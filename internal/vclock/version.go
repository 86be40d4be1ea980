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

// Version is a per-site version vector: one entry per site that has ever
// modified the associated state, the number of that site's latest write
// to it. It is the causality record the replicated information model
// keeps per object — two versions compare as ordered when one site has
// seen everything the other wrote, and as concurrent when each side holds
// writes the other has not seen.
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

// NewVersion builds a vector with a single write by site, numbered 1 — a
// per-object count. An information.Space does not use it: it numbers a
// site's writes with one counter across all its rows, so a row's first
// entry is that counter's next value. Stores that keep their own
// per-object count (the benchmark's) do.
func NewVersion(site string) Version { return Version{site: 1} }

// Tick records one more write by site by raising its entry by exactly 1,
// returning the vector (allocated if nil) — the per-object count that
// NewVersion starts. An information.Space sets its entry past its site's
// write counter instead.
func (v Version) Tick(site string) Version {
	if v == nil {
		return Version{site: 1}
	}
	v[site]++
	return v
}

// Counter returns site's entry: the number of its latest write the vector
// records (0 if the site never wrote).
func (v Version) Counter(site string) uint64 { return v[site] }

// Sum returns the sum of the vector's entries. Every write raises one
// entry by at least 1 (by exactly 1 under Tick; by more where a site
// numbers its writes across all its rows) and merges never lower one, so
// Sum rises with every write an object sees, and converged replicas,
// holding equal vectors, agree on it: a replica-local
// optimistic-concurrency version number. It counts writes only where
// every write ticks.
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
// dst: a uvarint entry count, then per site in sorted order the site name
// prefixed with its length as a uvarint, and the counter as a uvarint — a
// site with a short name and fewer than 128 writes takes its name and two
// bytes. Sorted order makes the encoding canonical — equal vectors encode
// to equal bytes — which is what lets durable-store recovery be verified
// byte-for-byte and lets a digest tree hash a vector's bytes.
func (v Version) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(v)))
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
		dst = wire.AppendUvarint(dst, v[s])
	}
	return dst
}

// minEntryBytes is the least one entry of an encoded vector takes: a
// one-byte name length and a one-byte counter.
const minEntryBytes = 2

// DecodeVersion decodes a vector produced by AppendBinary from data,
// returning it (nil for the empty vector) and the remaining bytes. ScanVersion
// checks it first; the site names are then copied once, into one string that
// every key is a substring of.
func DecodeVersion(data []byte) (Version, []byte, error) {
	raw, rest, err := ScanVersion(data)
	if err != nil {
		return nil, rest, err
	}
	n, k := binary.Uvarint(raw)
	if n == 0 {
		return nil, rest, nil
	}
	// Past the count, an entry is its name and at least two bytes of length
	// and counter. Bytes a Builder holds are never written again, so a key
	// cut from what it has built stays valid as it grows.
	p := raw[k:]
	var names strings.Builder
	names.Grow(len(p) - minEntryBytes*int(n))
	v := make(Version, n)
	for len(p) > 0 {
		l, k := binary.Uvarint(p)
		names.Write(p[k : k+int(l)])
		c, m := binary.Uvarint(p[k+int(l):])
		text := names.String()
		v[text[len(text)-int(l):]] = c
		p = p[k+int(l)+m:]
	}
	return v, rest, nil
}

// ScanVersion walks one vector produced by AppendBinary without decoding it:
// it returns the encoding and the remaining bytes as sub-slices of data and
// allocates nothing. It makes every check DecodeVersion makes, so it fails on
// exactly the inputs DecodeVersion fails on, and raw is what DecodeVersion
// reads: a uvarint past 64 bits, an entry count past what the remaining
// bytes can hold and a name past wire's length limit or past the end are
// each an error wrapping ErrBadVersion and wire's own error. It is what
// lets a holder compare, hash or forward a vector it has no need to
// materialise.
func ScanVersion(data []byte) (raw, rest []byte, err error) {
	fail := func(err error) ([]byte, []byte, error) {
		return nil, data, fmt.Errorf("%w: %w", ErrBadVersion, err)
	}
	n, rest, err := wire.ConsumeUvarint(data)
	if err != nil {
		return fail(err)
	}
	if n > uint64(len(rest))/minEntryBytes {
		return fail(fmt.Errorf("%w: %d sites in %d bytes", wire.ErrTruncated, n, len(rest)))
	}
	for ; n > 0; n-- {
		// A name under wire.SkipString's checks, then a counter under
		// wire.ConsumeUvarint's, made in place; where one fails, the wire
		// function, which fails on the same bytes, names the error.
		l, k := binary.Uvarint(rest)
		if k <= 0 || l >= wire.MaxStringLen || l > uint64(len(rest)-k) {
			_, _, err := wire.SkipString(rest)
			return fail(err)
		}
		rest = rest[k+int(l):]
		if _, k = binary.Uvarint(rest); k <= 0 {
			_, _, err := wire.ConsumeUvarint(rest)
			return fail(err)
		}
		rest = rest[k:]
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
