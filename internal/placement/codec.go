package placement

import (
	"mocca/internal/information"
	"mocca/internal/wire"
)

// placement.read and placement.write travel as hand-written binary bodies
// (see internal/replica/codec.go). A read's answer and a forwarded write are
// one message: a site, and a row in the one row codec that replica and
// gossip.fetch carry rows in (information.AppendObject). Range 0xE1–0xE3.
const (
	tagReadReq   byte = 0xE1
	tagSiteRow   byte = 0xE2
	tagWriteResp byte = 0xE3
)

// The one flag of writeResp.
const flagApplied byte = 1

// AppendBinary implements encoding.BinaryAppender.
func (m readReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagReadReq), m.Actor)
	return wire.AppendString(b, m.ObjectID), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *readReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagReadReq, "placement readReq")
	*m = readReq{Actor: b.String(), ObjectID: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m siteRow) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagSiteRow), m.Site)
	return information.AppendObject(b, m.Object), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *siteRow) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSiteRow, "placement siteRow")
	*m = siteRow{Site: b.String(), Object: wire.Consume(&b, information.DecodeObject)}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m writeResp) AppendBinary(b []byte) ([]byte, error) {
	flags := byte(0)
	if m.Applied {
		flags = flagApplied
	}
	return wire.AppendString(append(b, tagWriteResp, flags), m.Site), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *writeResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagWriteResp, "placement writeResp")
	applied := b.Flags(flagApplied) != 0
	*m = writeResp{Site: b.String(), Applied: applied}
	return b.Close()
}
