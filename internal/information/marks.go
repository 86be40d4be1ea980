package information

import (
	"fmt"
	"slices"

	"mocca/internal/wire"
)

// The high-water marks travel as one section, written straight out of the
// tree and read where it lies: a uvarint count, then per site in sorted
// name order its uvarint-prefixed name and its mark as a uvarint. Equal
// marks are equal bytes, and neither the sender nor the reader builds a map
// or a string per site.

// AppendMarks appends the tree's high-water marks as a marks section.
func (t *DigestTree) AppendMarks(b []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b = wire.AppendUvarint(b, uint64(len(t.order)))
	for _, x := range t.order {
		b = wire.AppendVarString(b, x.name)
		b = wire.AppendUvarint(b, x.top)
	}
	return b
}

// SkipMarks checks the marks section at the front of data and returns it
// still encoded, aliasing data, and the bytes after it. Names must rise
// strictly: NewerThanMarks walks a section beside the tree's own sorted
// sites.
func SkipMarks(data []byte) (section, rest []byte, err error) {
	n, rest, err := wire.ConsumeUvarint(data)
	if err != nil {
		return nil, data, err
	}
	if n > uint64(len(rest)/2) { // a name's length, a mark
		return nil, data, fmt.Errorf("%w: %d marks in %d bytes", wire.ErrBadBody, n, len(rest))
	}
	var prev []byte
	for i := range n {
		var name []byte
		if name, rest, err = wire.SkipVarString(rest); err != nil {
			return nil, data, err
		}
		if i > 0 && string(prev) >= string(name) {
			return nil, data, fmt.Errorf("%w: marks out of name order", wire.ErrBadBody)
		}
		if _, rest, err = wire.ConsumeUvarint(rest); err != nil {
			return nil, data, err
		}
		prev = name
	}
	return data[:len(data)-len(rest)], rest, nil
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
	if name, c.rest, err = wire.SkipVarString(c.rest); err == nil {
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
