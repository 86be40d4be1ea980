package trader

import (
	"mocca/internal/directory"
	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// An import travels as a hand-written binary body (see
// internal/replica/codec.go for the shape). An offer in the answer is its
// id, service type, provider and properties, the properties in directory's
// attribute-set form. Range 0xD1–0xD5; 0xD3–0xD5 are retired.
const (
	tagImportReq  byte = 0xD1
	tagImportResp byte = 0xD2
)

// appendOffer writes an offer: id, service type, provider, properties.
func appendOffer(b []byte, o Offer) []byte {
	b = wire.AppendString(b, o.ID)
	b = wire.AppendString(b, o.ServiceType)
	b = wire.AppendString(b, string(o.Provider))
	return directory.AppendAttributes(b, o.Properties)
}

// consumeOffer reads an offer written by appendOffer; an offer without
// properties reads with an empty set.
func consumeOffer(b *wire.Body) Offer {
	o := Offer{ID: b.String(), ServiceType: b.String(), Provider: netsim.Address(b.String()),
		Properties: directory.ConsumeAttributes(b)}
	if o.Properties == nil {
		o.Properties = directory.Attributes{}
	}
	return o
}

// AppendBinary implements encoding.BinaryAppender.
func (m importReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagImportReq)
	b = wire.AppendString(b, m.ServiceType)
	b = wire.AppendString(b, m.Constraint)
	b = wire.AppendUint64(b, uint64(m.MaxOffers))
	b = wire.AppendString(b, m.OrderBy)
	b = wire.AppendString(b, m.Importer)
	return wire.AppendUint64(b, uint64(m.Hops)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *importReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagImportReq, "trader importReq")
	*m = importReq{ServiceType: b.String(), Constraint: b.String(), MaxOffers: b.Int(),
		OrderBy: b.String(), Importer: b.String(), Hops: b.Int()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m importResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendList(append(b, tagImportResp), m.Offers, appendOffer), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *importResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagImportResp, "trader importResp")
	*m = importResp{}
	if n := b.Count(3*4 + 8); n > 0 { // three prefixes and an attribute count
		m.Offers = make([]Offer, n)
		for i := range m.Offers {
			m.Offers[i] = consumeOffer(&b)
		}
	}
	return b.Close()
}
