package information

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"mocca/internal/wire"
)

// The high-water marks travel as one section, written straight out of the
// tree and read where it lies: a uvarint count, then per site in sorted
// name order its uvarint-prefixed name and its mark as a uvarint, every
// varint in its shortest form. Equal marks are equal bytes, and neither the
// sender nor the reader builds a map or a string per site.
//
// A replica that already holds an earlier section of a peer's is sent a
// delta instead (AppendMarksDelta): the sites whose mark rose, each as its
// position in the earlier section's name order and the rise, then the sites
// that section lacks, by name and mark. ApplyMarksDelta rebuilds the full
// section from the earlier one, byte for byte; MarksCheck is the 32-bit
// check the rebuilt section must match, so a delta applied to a section
// other than its base is refused rather than read.

// AppendMarks appends the tree's high-water marks as a marks section.
func (t *DigestTree) AppendMarks(b []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b = wire.AppendUvarint(b, uint64(len(t.order)))
	for _, x := range t.order {
		b = wire.AppendString(b, x.name)
		b = wire.AppendUvarint(b, x.top)
	}
	return b
}

// SkipMarks checks the marks section at the front of data and returns it
// still encoded, aliasing data, and the bytes after it. Names must rise
// strictly: NewerThanMarks walks a section beside the tree's own sorted
// sites. Every varint must be in its shortest form, so a section is the
// one encoding of its marks and a rebuilt one can be compared byte for
// byte.
func SkipMarks(data []byte) (section, rest []byte, err error) {
	n, rest, err := wire.ConsumeUvarint(data)
	if err != nil {
		return nil, data, err
	}
	if n > uint64(len(rest)/2) { // a name's length, a mark
		return nil, data, fmt.Errorf("%w: %d marks in %d bytes", wire.ErrBadBody, n, len(rest))
	}
	size := wire.UvarintLen(n)
	var prev []byte
	for i := range n {
		var name []byte
		if name, rest, err = wire.SkipString(rest); err != nil {
			return nil, data, err
		}
		if i > 0 && string(prev) >= string(name) {
			return nil, data, fmt.Errorf("%w: marks out of name order", wire.ErrBadBody)
		}
		var mark uint64
		if mark, rest, err = wire.ConsumeUvarint(rest); err != nil {
			return nil, data, err
		}
		size += wire.UvarintLen(uint64(len(name))) + len(name) + wire.UvarintLen(mark)
		prev = name
	}
	if section = data[:len(data)-len(rest)]; len(section) != size {
		return nil, data, fmt.Errorf("%w: marks varint not in its shortest form", wire.ErrBadBody)
	}
	return section, rest, nil
}

// MarksCheck is the 32-bit check of a marks section (CRC-32, IEEE) that a
// delta carries and its rebuild must match.
func MarksCheck(section []byte) uint32 { return crc32.ChecksumIEEE(section) }

// AppendMarksDelta appends the delta that rebuilds section cur from
// section base, both as SkipMarks accepts them: a uvarint count of the
// sites whose mark rose, each as its uvarint position in base's name order
// (rising) and the uvarint rise; then a uvarint count of the sites base
// lacks, each as its uvarint-prefixed name (rising) and its mark. ok is
// false, and b returned as it was, when cur drops a site base names or
// lowers its mark — which a tree's own marks never do, since its sites
// stay and its marks only rise — so the caller sends cur whole.
func AppendMarksDelta(b, base, cur []byte) (_ []byte, ok bool) {
	if bytes.Equal(base, cur) {
		return append(b, 0, 0), true // the common case: nothing rose, nothing new
	}
	// The rises are written as they are found, behind a one-byte count
	// widened afterwards in the rare case of 128 or more.
	start := len(b)
	b = append(b, 0)
	var rose, added uint64
	if !diffMarks(base, cur, func(pos uint64, name []byte, mark, was uint64) {
		if name != nil {
			added++
			return
		}
		rose++
		b = wire.AppendUvarint(wire.AppendUvarint(b, pos), mark-was)
	}) {
		return b[:start], false
	}
	if n := wire.UvarintLen(rose); n > 1 {
		b = slices.Insert(b, start+1, make([]byte, n-1)...)
	}
	binary.PutUvarint(b[start:], rose)
	b = wire.AppendUvarint(b, added)
	if added > 0 {
		diffMarks(base, cur, func(_ uint64, name []byte, mark, _ uint64) {
			if name != nil {
				b = appendMark(b, name, mark)
			}
		})
	}
	return b, true
}

// diffMarks walks cur beside base in name order and calls each for every
// site whose mark rose — name nil, its position in base, its mark in cur
// and in base — and for every site base lacks, with its name and mark. It
// stops and reports false when cur drops a site of base or lowers its mark.
func diffMarks(base, cur []byte, each func(pos uint64, name []byte, mark, was uint64)) bool {
	bc, c := newMarksCursor(base), newMarksCursor(cur)
	name, mark, ok := c.next()
	for pos := uint64(0); ; pos++ {
		bn, bm, bok := bc.next()
		if !bok {
			break
		}
		for ok && string(name) < string(bn) {
			each(0, name, mark, 0)
			name, mark, ok = c.next()
		}
		if !ok || string(name) != string(bn) || mark < bm {
			return false
		}
		if mark > bm {
			each(pos, nil, mark, bm)
		}
		name, mark, ok = c.next()
	}
	for ; ok; name, mark, ok = c.next() {
		each(0, name, mark, 0)
	}
	return true
}

// SkipMarksDelta checks the delta at the front of data as AppendMarksDelta
// lays it out — positions and names rising, every rise at least 1 — and
// returns it still encoded, aliasing data, and the bytes after it. Whether
// it fits a base is ApplyMarksDelta's to find.
func SkipMarksDelta(data []byte) (delta, rest []byte, err error) {
	if _, _, rest, err = parseMarksDelta(data); err != nil {
		return nil, data, err
	}
	return data[:len(data)-len(rest)], rest, nil
}

// parseMarksDelta checks the delta at the front of data and returns
// cursors over its rises and its added sites, and the bytes after it.
func parseMarksDelta(data []byte) (rises risesCursor, added marksCursor, rest []byte, err error) {
	bad := func(what string) (risesCursor, marksCursor, []byte, error) {
		return risesCursor{}, marksCursor{}, data, fmt.Errorf("%w: marks delta %s", wire.ErrBadBody, what)
	}
	n, rest, err := wire.ConsumeUvarint(data)
	if err != nil {
		return risesCursor{}, marksCursor{}, data, err
	}
	if n > uint64(len(rest)/2) { // a position, a rise
		return bad("counts more rises than its bytes hold")
	}
	rises = risesCursor{rest: rest, left: n}
	c := rises
	for i, prev := uint64(0), uint64(0); i < n; i++ {
		pos, rise, ok := c.next()
		switch {
		case !ok:
			return bad("cut short in its rises")
		case i > 0 && pos <= prev:
			return bad("positions out of order")
		case rise == 0:
			return bad("rise of zero")
		}
		prev = pos
	}
	if n, rest, err = wire.ConsumeUvarint(c.rest); err != nil {
		return risesCursor{}, marksCursor{}, data, err
	}
	if n > uint64(len(rest)/2) { // a name's length, a mark
		return bad("counts more sites than its bytes hold")
	}
	added = marksCursor{rest: rest, left: n}
	a := added
	var prev []byte
	for i := range n {
		name, _, ok := a.next()
		switch {
		case !ok:
			return bad("cut short in its sites")
		case i > 0 && string(prev) >= string(name):
			return bad("names out of order")
		}
		prev = name
	}
	return rises, added, a.rest, nil
}

// risesCursor walks the rises of a delta parseMarksDelta accepted.
type risesCursor struct {
	rest []byte
	left uint64
}

// next returns the next rise's position and size; ok is false past the
// last one.
func (c *risesCursor) next() (pos, rise uint64, ok bool) {
	if c.left == 0 {
		return 0, 0, false
	}
	c.left--
	var err error
	if pos, c.rest, err = wire.ConsumeUvarint(c.rest); err == nil {
		rise, c.rest, err = wire.ConsumeUvarint(c.rest)
	}
	if err != nil {
		c.left = 0
		return 0, 0, false
	}
	return pos, rise, true
}

// ApplyMarksDelta appends to dst the section a delta rebuilds from base, a
// section SkipMarks accepted. A delta that does not fit base — a position
// past its sites, a name it already holds, a rise past 64 bits — is an
// error; one that fits a base other than its own yields a section the
// sender's MarksCheck refuses.
func ApplyMarksDelta(dst, base, delta []byte) ([]byte, error) {
	bad := func(what string) ([]byte, error) {
		return dst, fmt.Errorf("%w: marks delta %s", wire.ErrBadBody, what)
	}
	rises, ac, rest, err := parseMarksDelta(delta)
	if err != nil {
		return dst, err
	}
	if len(rest) > 0 {
		return bad("followed by stray bytes")
	}
	if rises.left == 0 && ac.left == 0 {
		return append(dst, base...), nil
	}
	bc := newMarksCursor(base)
	out := wire.AppendUvarint(dst, bc.left+ac.left)
	pos, rise, rok := rises.next()
	an, am, aok := ac.next()
	for i := uint64(0); ; i++ {
		bn, bm, bok := bc.next()
		if !bok {
			break
		}
		for ; aok && string(an) < string(bn); an, am, aok = ac.next() {
			out = appendMark(out, an, am)
		}
		if aok && string(an) == string(bn) {
			return bad("adds a site its base holds")
		}
		if rok && i == pos {
			if bm+rise < bm {
				return bad("rises past 64 bits")
			}
			bm += rise
			pos, rise, rok = rises.next()
		}
		out = appendMark(out, bn, bm)
	}
	if rok {
		return bad("names a position past its base")
	}
	for ; aok; an, am, aok = ac.next() {
		out = appendMark(out, an, am)
	}
	return out, nil
}

// appendMark appends one site's entry of a marks section.
func appendMark(b, name []byte, mark uint64) []byte {
	return wire.AppendUvarint(append(wire.AppendUvarint(b, uint64(len(name))), name...), mark)
}

// marksCursor walks a section SkipMarks accepted, in name order.
type marksCursor struct {
	rest []byte
	left uint64
}

func newMarksCursor(section []byte) marksCursor {
	n, rest, err := wire.ConsumeUvarint(section)
	if err != nil {
		return marksCursor{}
	}
	return marksCursor{rest: rest, left: n}
}

// next returns the next site's name, aliasing the section, and its mark;
// ok is false past the last one.
func (c *marksCursor) next() (name []byte, mark uint64, ok bool) {
	if c.left == 0 {
		return nil, 0, false
	}
	c.left--
	var err error
	if name, c.rest, err = wire.SkipString(c.rest); err == nil {
		mark, c.rest, err = wire.ConsumeUvarint(c.rest)
	}
	if err != nil {
		c.left = 0
		return nil, 0, false
	}
	return name, mark, true
}

// NewerThanMarks is NewerThanHW for marks in a section SkipMarks accepted
// (or AppendMarks wrote), read in place: the section and the tree's sites
// are both in name order, so one walk pairs each site with the peer's mark,
// 0 for a site the section does not name.
func (t *DigestTree) NewerThanMarks(section []byte) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := newMarksCursor(section)
	name, mark, ok := c.next()
	var out []string
	for _, x := range t.order {
		for ok && string(name) < x.name {
			name, mark, ok = c.next()
		}
		peer := uint64(0)
		if ok && string(name) == x.name {
			peer = mark
		}
		if x.top > peer {
			out = x.appendAbove(out, peer)
		}
	}
	// An entry past the marks of several sites was collected once per site.
	slices.Sort(out)
	return slices.Compact(out)
}

// MarksAhead reports whether a section SkipMarks accepted gives some site a
// mark past the tree's own: its sender holds a write of that site this
// tree has never seen.
func (t *DigestTree) MarksAhead(section []byte) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := newMarksCursor(section)
	for name, mark, ok := c.next(); ok; name, mark, ok = c.next() {
		top := uint64(0)
		if x := t.sites[string(name)]; x != nil {
			top = x.top
		}
		if mark > top {
			return true
		}
	}
	return false
}
