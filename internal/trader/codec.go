package trader

import (
	"mocca/internal/directory"
	"mocca/internal/wire"
)

// trader.import — the one trading operation a workload issues, and the one
// federation forwards — travels as hand-written binary bodies (see
// internal/replica/codec.go for the shape); an offer's properties are in
// directory's attribute-set form. Export, withdraw and type registration
// stay JSON. Range 0xD1–0xD2.
const (
	tagImportReq  byte = 0xD1
	tagImportResp byte = 0xD2
)

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
	b = append(b, tagImportResp)
	b = wire.AppendUint64(b, uint64(len(m.Offers)))
	for _, o := range m.Offers {
		b = wire.AppendString(b, o.ID)
		b = wire.AppendString(b, o.ServiceType)
		b = wire.AppendString(b, o.Provider)
		b = directory.AppendAttributes(b, o.Properties)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *importResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagImportResp, "trader importResp")
	*m = importResp{}
	if n := b.Count(3*4 + 8); n > 0 { // three prefixes and an attribute count
		m.Offers = make([]WireOffer, n)
		for i := range m.Offers {
			m.Offers[i] = WireOffer{ID: b.String(), ServiceType: b.String(), Provider: b.String(),
				Properties: directory.ConsumeAttributes(&b)}
		}
	}
	return b.Close()
}
