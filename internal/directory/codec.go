package directory

import (
	"slices"

	"mocca/internal/wire"
)

// A search travels as a hand-written binary body, like the replica and
// rumor planes' (see internal/replica/codec.go for the shape: a tag byte
// with the high bit set, then wire's primitives — strings behind a uvarint
// length, the scope, size limit and every count a uvarint — maps in sorted
// key order). An entry in the answer is its DN in string form and its
// attributes. Range 0xC1–0xCA: 0xC1 and 0xC2, the search and its answer
// with four-byte string lengths and eight-byte integers, are retired, and
// so are 0xC3–0xC8.
const (
	tagSearchReq  byte = 0xC9
	tagSearchResp byte = 0xCA
)

// The one flag of each message: searchReq.Deref, searchResp.Partial.
const flagSet byte = 1

func flagIf(set bool) byte {
	if set {
		return flagSet
	}
	return 0
}

// AppendAttributes appends an attribute set: a uvarint count, then per
// attribute in sorted name order the name, a value count and the values in
// their own order. A trader offer's properties travel in the same form.
func AppendAttributes(b []byte, a Attributes) []byte {
	b = wire.AppendUvarint(b, uint64(len(a)))
	var room [8]string // an entry's or an offer's few names sort on the stack
	names := room[:0]
	for name := range a {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b = wire.AppendStrings(wire.AppendString(b, name), a[name])
	}
	return b
}

// ConsumeAttributes reads a set written by AppendAttributes. An empty set,
// and an attribute without values, read as nil.
func ConsumeAttributes(b *wire.Body) Attributes {
	n := b.Count(1 + 1) // a name's length and a value count
	if n == 0 {
		return nil
	}
	a := make(Attributes, n)
	for range n {
		name := b.String()
		a[name] = b.Strings()
	}
	return a
}

// AppendBinary implements encoding.BinaryAppender.
func (m searchReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagSearchReq, flagIf(m.Deref))
	b = wire.AppendString(b, m.Base)
	b = wire.AppendUvarint(b, uint64(m.Scope))
	b = wire.AppendString(b, m.Filter)
	return wire.AppendUvarint(b, uint64(m.SizeLimit)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *searchReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSearchReq, "x500 searchReq")
	deref := b.Flags(flagSet) != 0
	*m = searchReq{Base: b.String(), Scope: b.Int(), Filter: b.String(), SizeLimit: b.Int(), Deref: deref}
	return b.Close()
}

// appendEntry writes an entry: its DN in string form, rendered straight
// into b, then its attributes.
func appendEntry(b []byte, e *Entry) []byte {
	b = e.DN.appendText(wire.AppendUvarint(b, uint64(e.DN.textLen())))
	return AppendAttributes(b, e.Attrs)
}

// consumeEntry reads an entry written by appendEntry: a DN that does not
// parse is a bad body, and an entry without attributes reads with an empty
// set.
func consumeEntry(b *wire.Body) *Entry {
	e := &Entry{DN: wire.Consume(b, consumeDN), Attrs: ConsumeAttributes(b)}
	if e.Attrs == nil {
		e.Attrs = Attributes{}
	}
	return e
}

func consumeDN(data []byte) (DN, []byte, error) {
	s, rest, err := wire.ConsumeString(data)
	if err != nil {
		return nil, data, err
	}
	dn, err := ParseDN(s)
	return dn, rest, err
}

// consumeEntries reads a list of entries; an empty one reads as nil.
func consumeEntries(b *wire.Body) []*Entry {
	n := b.Count(1 + 1) // a DN's length and an attribute count
	if n == 0 {
		return nil
	}
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = consumeEntry(b)
	}
	return entries
}

// AppendBinary implements encoding.BinaryAppender.
func (m searchResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendList(append(b, tagSearchResp, flagIf(m.Partial)), m.Entries, appendEntry), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *searchResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSearchResp, "x500 searchResp")
	*m = searchResp{Partial: b.Flags(flagSet) != 0}
	m.Entries = consumeEntries(&b)
	return b.Close()
}
