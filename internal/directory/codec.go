package directory

import (
	"slices"

	"mocca/internal/wire"
)

// x500.search — the one DSA operation a workload issues — travels as
// hand-written binary bodies, like the replica and rumor planes' (see
// internal/replica/codec.go for the shape: a tag byte with the high bit
// set, then wire's primitives, maps in sorted key order); wire.AppendBody
// picks a message's own AppendBinary over JSON, so the administrative
// operations beside it are untouched. Range 0xC1–0xC2.
const (
	tagSearchReq  byte = 0xC1
	tagSearchResp byte = 0xC2
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
		b = wire.AppendString(b, name)
		b = wire.AppendUint64(b, uint64(len(a[name])))
		for _, v := range a[name] {
			b = wire.AppendString(b, v)
		}
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
		var values []string
		if nv := b.Count(4); nv > 0 {
			values = make([]string, nv)
			for i := range values {
				values[i] = b.String()
			}
		}
		a[name] = values
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

// AppendBinary implements encoding.BinaryAppender.
func (m searchResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagSearchResp, flagIf(m.Partial))
	b = wire.AppendUint64(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.DN)
		b = AppendAttributes(b, e.Attrs)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *searchResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSearchResp, "x500 searchResp")
	*m = searchResp{Partial: b.Flags(flagSet) != 0}
	if n := b.Count(4 + 8); n > 0 { // a DN's prefix and an attribute count
		m.Entries = make([]WireEntry, n)
		for i := range m.Entries {
			m.Entries[i] = WireEntry{DN: b.String(), Attrs: ConsumeAttributes(&b)}
		}
	}
	return b.Close()
}
