package vclock

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mocca/internal/wire"
)

// The site roster is the deployment's shared naming context for sites: a
// process-wide, append-only list of the site names the process has enrolled
// (information.NewSpace enrols its site, so every site whose writes a
// vector records is on it). Bodies that carry rows and dots say a site in
// the roster form — a uvarint k: 0 says a spelled name follows, its length
// as a uvarint and its bytes; k ≥ 1 names entry k−1 — so an enrolled name
// costs one byte where it cost its length and a prefix. Like the schema
// table beside it in information, a published roster is never written:
// Enrol publishes a longer copy, and readers load it without a lock. An
// entry's index never changes, but whether a name is spelled or indexed
// depends on what the process has enrolled, so a test that pins those
// bytes enrols its sites in an init. The roster never reaches disk: a
// durable store spells its vectors (AppendBinary), so it reopens in a
// process that enrolled its sites in another order.

// MaxRoster caps the roster; a name enrolled past it stays spelled.
const MaxRoster = 1 << 14

// ErrUnknownSite reports a roster-form site naming an entry past the
// roster's end: the sender's roster held a name this process never
// enrolled.
var ErrUnknownSite = errors.New("vclock: unknown site index")

type roster struct {
	names []string
	index map[string]int
}

var (
	sites   atomic.Pointer[roster]
	sitesMu sync.Mutex // serialises enrolments
)

func init() { sites.Store(&roster{index: map[string]int{}}) }

// Enrol puts site on the roster unless it is there or the roster is full.
func Enrol(site string) {
	if _, ok := sites.Load().index[site]; ok {
		return
	}
	sitesMu.Lock()
	defer sitesMu.Unlock()
	r := sites.Load()
	if _, ok := r.index[site]; ok || len(r.names) >= MaxRoster {
		return
	}
	site = strings.Clone(site)
	// Readers of r never look past its length, so the next roster may
	// share its array.
	next := &roster{names: append(r.names, site), index: maps.Clone(r.index)}
	next.index[site] = len(r.names)
	sites.Store(next)
}

// AppendSite appends site in the roster form.
func AppendSite(dst []byte, site string) []byte { return sites.Load().appendSite(dst, site) }

func (r *roster) appendSite(dst []byte, site string) []byte {
	if i, ok := r.index[site]; ok {
		return wire.AppendUvarint(dst, uint64(i)+1)
	}
	return wire.AppendString(append(dst, 0), site)
}

// ConsumeSite reads a site in the roster form: an entry's name, which is
// the roster's own string, or a copy of a spelled name.
func ConsumeSite(data []byte) (string, []byte, error) {
	s, rest, err := sites.Load().skipSite(data)
	if err != nil || !s.spelled {
		return s.name, rest, err
	}
	return string(s.raw), rest, nil
}

// SkipSite walks one site in the roster form, under ConsumeSite's checks,
// and returns the bytes after it; it allocates nothing.
func SkipSite(data []byte) ([]byte, error) {
	_, rest, err := sites.Load().skipSite(data)
	return rest, err
}

// siteRef is a roster-form site as skipSite finds it: an entry's name, or
// the bytes of a spelled one.
type siteRef struct {
	name    string
	raw     []byte
	spelled bool
}

// less reports whether s sorts before o by name.
func (s siteRef) less(o siteRef) bool {
	switch {
	case !s.spelled && !o.spelled:
		return s.name < o.name
	case !s.spelled:
		return s.name < string(o.raw)
	case !o.spelled:
		return string(s.raw) < o.name
	}
	return bytes.Compare(s.raw, o.raw) < 0
}

// skipSite walks one roster-form site without copying it. An index past the
// roster is ErrUnknownSite; a spelled name the roster holds is refused, so
// a site has one form.
func (r *roster) skipSite(data []byte) (siteRef, []byte, error) {
	k, rest, err := wire.ConsumeUvarint(data)
	switch {
	case err != nil:
		return siteRef{}, data, err
	case k > uint64(len(r.names)):
		return siteRef{}, data, fmt.Errorf("%w: entry %d of %d", ErrUnknownSite, k-1, len(r.names))
	case k > 0:
		return siteRef{name: r.names[k-1]}, rest, nil
	}
	raw, rest, err := wire.SkipString(rest)
	if err != nil {
		return siteRef{}, data, err
	}
	if _, ok := r.index[string(raw)]; ok {
		return siteRef{}, data, fmt.Errorf("%w: %q spelled, but entry %d", wire.ErrBadBody, raw, r.index[string(raw)])
	}
	return siteRef{raw: raw, spelled: true}, rest, nil
}

// AppendWire appends the vector in the roster form: a uvarint entry count,
// then per site in name order the site (AppendSite) and its counter as a
// uvarint — two bytes for an enrolled site with fewer than 128 writes.
// It is how rows travel; AppendBinary is how they are stored.
func (v Version) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(v)))
	var room [16]string
	names := room[:0]
	for s := range v {
		names = append(names, s)
	}
	slices.Sort(names)
	r := sites.Load()
	for _, s := range names {
		dst = wire.AppendUvarint(r.appendSite(dst, s), v[s])
	}
	return dst
}

// ScanWire walks one vector produced by AppendWire without decoding it,
// returning its encoding and the remaining bytes as sub-slices of data; it
// allocates nothing. Beside ScanVersion's checks it refuses what
// skipSite refuses and entries out of name order or named twice, so a
// vector has one encoding. Each error wraps ErrBadVersion.
func ScanWire(data []byte) (raw, rest []byte, err error) { return sites.Load().scanWire(data) }

func (r *roster) scanWire(data []byte) (raw, rest []byte, err error) {
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
	var prev siteRef
	for i := uint64(0); i < n; i++ {
		var s siteRef
		if s, rest, err = r.skipSite(rest); err != nil {
			return fail(err)
		}
		if i > 0 && !prev.less(s) {
			return fail(fmt.Errorf("%w: entry %d out of name order", wire.ErrBadBody, i))
		}
		if _, rest, err = wire.ConsumeUvarint(rest); err != nil {
			return fail(err)
		}
		prev = s
	}
	return data[:len(data)-len(rest)], rest, nil
}

// DecodeWire decodes a vector produced by AppendWire, under ScanWire's
// checks. An enrolled site's key is the roster's own string; a spelled
// one is a copy.
func DecodeWire(data []byte) (Version, []byte, error) {
	r := sites.Load()
	raw, rest, err := r.scanWire(data)
	if err != nil {
		return nil, rest, err
	}
	n, p, _ := wire.ConsumeUvarint(raw)
	if n == 0 {
		return nil, rest, nil
	}
	v := make(Version, n)
	for len(p) > 0 {
		s, q, _ := r.skipSite(p)
		if s.spelled {
			s.name = string(s.raw)
		}
		v[s.name], p, _ = wire.ConsumeUvarint(q)
	}
	return v, rest, nil
}
