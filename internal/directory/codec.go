package directory

import (
	"slices"

	"mocca/internal/wire"
)

// Every DSA operation travels as a hand-written binary body, like the
// replica and rumor planes' (see internal/replica/codec.go for the shape: a
// tag byte with the high bit set, then wire's primitives, maps in sorted key
// order). An Entry is its DN in string form and its attributes; a
// standalone Entry is x500.read's answer and x500.add's request. Read,
// delete and list name one entry with a dnReq; a write is answered with
// wire.Empty. Range 0xC1–0xC5.
const (
	tagSearchReq  byte = 0xC1
	tagSearchResp byte = 0xC2
	tagEntry      byte = 0xC3
	tagDNReq      byte = 0xC4
	tagModifyReq  byte = 0xC5
)

// The one flag of each message: searchReq.Deref, searchResp.Partial.
const flagSet byte = 1

func flagIf(set bool) byte {
	if set {
		return flagSet
	}
	return 0
}

// AppendAttributes appends an attribute set: a count, then per attribute in
// sorted name order the name, a value count and the values in their own
// order. A trader offer's properties travel in the same form.
func AppendAttributes(b []byte, a Attributes) []byte {
	b = wire.AppendUint64(b, uint64(len(a)))
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
	n := b.Count(4 + 8) // a name's prefix and a value count
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
	b = wire.AppendUint64(b, uint64(m.Scope))
	b = wire.AppendString(b, m.Filter)
	return wire.AppendUint64(b, uint64(m.SizeLimit)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *searchReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSearchReq, "x500 searchReq")
	deref := b.Flags(flagSet) != 0
	*m = searchReq{Base: b.String(), Scope: b.Int(), Filter: b.String(), SizeLimit: b.Int(), Deref: deref}
	return b.Close()
}

// appendEntry writes an entry: its DN in string form, then its attributes.
func appendEntry(b []byte, e *Entry) []byte {
	return AppendAttributes(wire.AppendString(b, e.DN.String()), e.Attrs)
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
	n := b.Count(4 + 8) // a DN's prefix and an attribute count
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

// AppendBinary implements encoding.BinaryAppender.
func (e Entry) AppendBinary(b []byte) ([]byte, error) {
	return appendEntry(append(b, tagEntry), &e), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (e *Entry) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagEntry, "x500 entry")
	*e = *consumeEntry(&b)
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m dnReq) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendString(append(b, tagDNReq), m.DN), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *dnReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagDNReq, "x500 dnReq")
	*m = dnReq{DN: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m modifyReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagModifyReq), m.DN)
	b = wire.AppendUint64(b, uint64(len(m.Mods)))
	for _, mod := range m.Mods {
		b = wire.AppendString(b, mod.Op)
		b = wire.AppendString(b, mod.Attr)
		b = wire.AppendString(b, mod.Value)
		b = wire.AppendStrings(b, mod.Values)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *modifyReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagModifyReq, "x500 modifyReq")
	*m = modifyReq{DN: b.String()}
	if n := b.Count(3*4 + 8); n > 0 { // three prefixes and a value count
		m.Mods = make([]Modification, n)
		for i := range m.Mods {
			m.Mods[i] = Modification{Op: b.String(), Attr: b.String(), Value: b.String(), Values: b.Strings()}
		}
	}
	return b.Close()
}
