package rtc

import (
	"encoding/binary"

	"mocca/internal/wire"
)

// Every conference message travels as a hand-written binary body (see
// internal/replica/codec.go for the shape: a tag byte with the high bit
// set, then wire's primitives, state maps in sorted key order, instants as
// wire.AppendTime writes them). Leave, the floor calls and heartbeats name
// a member with one memberReq; leave is answered with wire.Empty, and a
// heartbeat is an announcement. Range 0xA1–0xA9; 0xA8–0xA9 are retired.
const (
	tagEvent      byte = 0xA1
	tagJoinReq    byte = 0xA2
	tagJoinResp   byte = 0xA3
	tagUpdateReq  byte = 0xA4
	tagUpdateResp byte = 0xA5
	tagMemberReq  byte = 0xA6
	tagFloorResp  byte = 0xA7
)

// eventKinds are the kinds a conference sends.
var eventKinds = [...]EventKind{EventState, EventPointer, EventJoined, EventLeft, EventEvicted, EventFloor, EventSnapshot}

// consumeKind reads an EventKind written as a string: one of eventKinds as
// that constant, without allocating; any other text as itself.
func consumeKind(data []byte) (EventKind, []byte, error) {
	for _, k := range eventKinds {
		if n := 4 + len(k); len(data) >= n && binary.BigEndian.Uint32(data) == uint32(len(k)) && string(data[4:n]) == string(k) {
			return k, data[n:], nil
		}
	}
	s, rest, err := wire.ConsumeString(data)
	return EventKind(s), rest, err
}

// appendEvent writes an event's fields.
func appendEvent(b []byte, ev Event) []byte {
	b = wire.AppendString(b, ev.Conference)
	b = wire.AppendUint64(b, ev.Seq)
	b = wire.AppendString(b, string(ev.Kind))
	b = wire.AppendString(b, ev.From)
	b = wire.AppendString(b, ev.Key)
	b = wire.AppendString(b, ev.Value)
	b = wire.AppendStringMap(b, ev.State)
	return wire.AppendTime(b, ev.At)
}

func consumeEvent(b *wire.Body) Event {
	return Event{Conference: b.String(), Seq: b.Uint64(), Kind: wire.Consume(b, consumeKind), From: b.String(),
		Key: b.String(), Value: b.String(), State: b.StringMap(), At: b.Time()}
}

// AppendBinary implements encoding.BinaryAppender.
func (ev Event) AppendBinary(b []byte) ([]byte, error) {
	return appendEvent(append(b, tagEvent), ev), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ev *Event) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagEvent, "rtc event")
	*ev = consumeEvent(&b)
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m joinReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagJoinReq)
	b = wire.AppendString(b, m.Conference)
	b = wire.AppendString(b, m.Member)
	return wire.AppendString(b, m.Addr), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *joinReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagJoinReq, "rtc joinReq")
	*m = joinReq{Conference: b.String(), Member: b.String(), Addr: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m joinResp) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUint64(append(b, tagJoinResp), m.Seq)
	b = wire.AppendStringMap(b, m.State)
	b = wire.AppendStrings(b, m.Members)
	b = wire.AppendUint64(b, uint64(m.Mode))
	return wire.AppendString(b, m.Title), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *joinResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagJoinResp, "rtc joinResp")
	*m = joinResp{Seq: b.Uint64(), State: b.StringMap(), Members: b.Strings(), Mode: b.Int(), Title: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m updateReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagUpdateReq)
	b = wire.AppendString(b, m.Conference)
	b = wire.AppendString(b, m.Member)
	b = wire.AppendString(b, string(m.Kind))
	b = wire.AppendString(b, m.Key)
	return wire.AppendString(b, m.Value), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *updateReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagUpdateReq, "rtc updateReq")
	*m = updateReq{Conference: b.String(), Member: b.String(), Kind: wire.Consume(&b, consumeKind), Key: b.String(), Value: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m updateResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendUint64(append(b, tagUpdateResp), m.Seq), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *updateResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagUpdateResp, "rtc updateResp")
	*m = updateResp{Seq: b.Uint64()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m memberReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagMemberReq), m.Conference)
	return wire.AppendString(b, m.Member), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *memberReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagMemberReq, "rtc memberReq")
	*m = memberReq{Conference: b.String(), Member: b.String()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m floorResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendString(append(b, tagFloorResp), m.Holder), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *floorResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagFloorResp, "rtc floorResp")
	*m = floorResp{Holder: b.String()}
	return b.Close()
}
