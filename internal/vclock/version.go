package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mocca/internal/wire"
)

// Version is a per-site version vector: one write counter per site that
// has ever modified the associated state. It is the causality record the
// replicated information model keeps per object — two versions compare as
// ordered when one site has seen everything the other wrote, and as
// concurrent when each side holds writes the other has not seen.
//
// The zero value (nil) is a valid empty vector.
type Version map[string]uint64

// Ordering is the outcome of comparing two version vectors.
type Ordering int

// The four possible causal relations between two version vectors.
const (
	Equal Ordering = iota
	Before
	After
	Concurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// NewVersion builds a vector with a single write by site.
func NewVersion(site string) Version { return Version{site: 1} }

// Tick records one more write by site, returning the vector (allocated if
// nil).
func (v Version) Tick(site string) Version {
	if v == nil {
		return Version{site: 1}
	}
	v[site]++
	return v
}

// Counter returns site's write counter (0 if the site never wrote).
func (v Version) Counter(site string) uint64 { return v[site] }

// Sum returns the total number of writes the vector records. Because
// every write anywhere ticks exactly one counter, Sum is merge-invariant:
// converged replicas agree on it, which makes it usable as a replica-local
// optimistic-concurrency version number.
func (v Version) Sum() uint64 {
	var n uint64
	for _, c := range v {
		n += c
	}
	return n
}

// Clone deep-copies the vector.
func (v Version) Clone() Version {
	if v == nil {
		return nil
	}
	out := make(Version, len(v))
	for s, c := range v {
		out[s] = c
	}
	return out
}

// Merge returns a new vector holding the element-wise maximum of v and o —
// the causal history that has seen both sides' writes.
func (v Version) Merge(o Version) Version {
	out := make(Version, len(v)+len(o))
	for s, c := range v {
		out[s] = c
	}
	for s, c := range o {
		if c > out[s] {
			out[s] = c
		}
	}
	return out
}

// Compare reports the causal relation of v to o: After means v has seen
// strictly more, Before strictly less, Concurrent that each side holds
// writes the other lacks.
func (v Version) Compare(o Version) Ordering {
	var less, more bool
	for s, c := range v {
		switch oc := o[s]; {
		case c > oc:
			more = true
		case c < oc:
			less = true
		}
	}
	for s, oc := range o {
		if oc > v[s] {
			less = true
		}
	}
	switch {
	case more && less:
		return Concurrent
	case more:
		return After
	case less:
		return Before
	default:
		return Equal
	}
}

// Dominates reports whether v has seen every write o has (v >= o
// element-wise) — i.e. Compare is After or Equal.
func (v Version) Dominates(o Version) bool {
	for s, oc := range o {
		if oc > v[s] {
			return false
		}
	}
	return true
}

// ErrBadVersion reports a malformed binary version encoding.
var ErrBadVersion = errors.New("vclock: bad version encoding")

// AppendBinary appends a deterministic binary encoding of the vector to
// dst: a uint64 entry count, then per site in sorted order a
// length-prefixed site name and a uint64 counter, all in wire's shared
// codec layout. Sorted order makes the encoding canonical — equal
// vectors encode to equal bytes — which is what lets durable-store
// recovery be verified byte-for-byte.
func (v Version) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUint64(dst, uint64(len(v)))
	// Room on the stack for a deployment's worth of sites; a longer vector
	// spills to the heap.
	var room [16]string
	sites := room[:0]
	for s := range v {
		sites = append(sites, s)
	}
	slices.Sort(sites)
	for _, s := range sites {
		dst = wire.AppendString(dst, s)
		dst = wire.AppendUint64(dst, v[s])
	}
	return dst
}

// DecodeVersion decodes a vector produced by AppendBinary from data,
// returning it (nil for the empty vector) and the remaining bytes. ScanVersion
// checks it first; the site names are then copied once, into one string that
// every key is a substring of.
func DecodeVersion(data []byte) (Version, []byte, error) {
	raw, rest, err := ScanVersion(data)
	if err != nil {
		return nil, rest, err
	}
	n := binary.BigEndian.Uint64(raw)
	if n == 0 {
		return nil, rest, nil
	}
	// Past the count, an entry is its name and 12 bytes of prefix and counter.
	var names strings.Builder
	names.Grow(len(raw) - 8 - 12*int(n))
	for p := raw[8:]; len(p) > 0; {
		l := int(binary.BigEndian.Uint32(p))
		names.Write(p[4 : 4+l])
		p = p[4+l+8:]
	}
	v, text := make(Version, n), names.String()
	for p := raw[8:]; len(p) > 0; {
		l := int(binary.BigEndian.Uint32(p))
		v[text[:l]] = binary.BigEndian.Uint64(p[4+l:])
		text, p = text[l:], p[4+l+8:]
	}
	return v, rest, nil
}

// ScanVersion walks one vector produced by AppendBinary without decoding it:
// it returns the encoding and the remaining bytes as sub-slices of data and
// allocates nothing. It makes every check DecodeVersion makes, so it fails on
// exactly the inputs DecodeVersion fails on, and raw is what DecodeVersion
// reads. It is what lets a holder compare, hash or forward a vector it has no
// need to materialise.
func ScanVersion(data []byte) (raw, rest []byte, err error) {
	n, rest, err := wire.ConsumeUint64(data)
	if err != nil {
		return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, err)
	}
	if n > uint64(len(rest))/12 {
		return nil, data, fmt.Errorf("%w: %d sites in %d bytes", ErrBadVersion, n, len(rest))
	}
	for ; n > 0; n-- {
		// A site name under ConsumeString's checks, then its counter.
		if len(rest) < 4 {
			return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, wire.ErrTruncated)
		}
		name := uint64(binary.BigEndian.Uint32(rest))
		if name >= wire.MaxStringLen {
			return nil, data, fmt.Errorf("%w: %v: %d-byte string", ErrBadVersion, wire.ErrOversize, name)
		}
		if uint64(len(rest)) < 4+name+8 {
			return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, wire.ErrTruncated)
		}
		rest = rest[4+name+8:]
	}
	return data[:len(data)-len(rest)], rest, nil
}

// String renders the vector as "site:counter" pairs sorted by site, e.g.
// "gmd:2 upc:1"; the empty vector renders as "∅".
func (v Version) String() string {
	if len(v) == 0 {
		return "∅"
	}
	sites := make([]string, 0, len(v))
	for s := range v {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = fmt.Sprintf("%s:%d", s, v[s])
	}
	return strings.Join(parts, " ")
}
