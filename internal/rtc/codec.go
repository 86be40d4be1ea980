package rtc

import (
	"encoding/binary"
	"slices"

	"mocca/internal/wire"
)

// The conference messages a workload sends — join, update and the event
// fan-out — travel as hand-written binary bodies (see
// internal/replica/codec.go for the shape: a tag byte with the high bit
// set, then wire's primitives, state maps in sorted key order, instants as
// wire.AppendTime writes them). Leave, the floor, heartbeats and resync stay
// JSON; a resync reply nests events in that JSON, which is why Event keeps
// its tags. Range 0xA1–0xA5.
const (
	tagEvent      byte = 0xA1
	tagJoinReq    byte = 0xA2
	tagJoinResp   byte = 0xA3
	tagUpdateReq  byte = 0xA4
	tagUpdateResp byte = 0xA5
)

// appendState writes a state map: count, then key and value per key in
// sorted order.
func appendState(b []byte, state map[string]string) []byte {
	b = wire.AppendUint64(b, uint64(len(state)))
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, state[k])
	}
	return b
}

// consumeState reads a map written by appendState; an empty one reads as nil.
func consumeState(b *wire.Body) map[string]string {
	n := b.Count(2 * 4)
	if n == 0 {
		return nil
	}
	state := make(map[string]string, n)
	for range n {
		k := b.String()
		state[k] = b.String()
	}
	return state
}

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

// AppendBinary implements encoding.BinaryAppender.
func (ev Event) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagEvent)
	b = wire.AppendString(b, ev.Conference)
	b = wire.AppendUint64(b, ev.Seq)
	b = wire.AppendString(b, string(ev.Kind))
	b = wire.AppendString(b, ev.From)
	b = wire.AppendString(b, ev.Key)
	b = wire.AppendString(b, ev.Value)
	b = appendState(b, ev.State)
	return wire.AppendTime(b, ev.At), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ev *Event) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagEvent, "rtc event")
	*ev = Event{Conference: b.String(), Seq: b.Uint64(), Kind: wire.Consume(&b, consumeKind), From: b.String(),
		Key: b.String(), Value: b.String(), State: consumeState(&b), At: b.Time()}
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
	b = append(b, tagJoinResp)
	b = wire.AppendUint64(b, m.Seq)
	b = appendState(b, m.State)
	b = wire.AppendUint64(b, uint64(len(m.Members)))
	for _, name := range m.Members {
		b = wire.AppendString(b, name)
	}
	b = wire.AppendUint64(b, uint64(m.Mode))
	return wire.AppendString(b, m.Title), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *joinResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagJoinResp, "rtc joinResp")
	*m = joinResp{Seq: b.Uint64(), State: consumeState(&b)}
	if n := b.Count(4); n > 0 {
		m.Members = make([]string, n)
		for i := range m.Members {
			m.Members[i] = b.String()
		}
	}
	m.Mode, m.Title = b.Int(), b.String()
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
