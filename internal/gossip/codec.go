package gossip

import (
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The rumor plane's three messages — the gossip.rumor announcement and the
// gossip.fetch request and reply — travel as hand-written binary bodies,
// like the anti-entropy protocol's: a tag byte naming the message, then
// wire's shared primitives — uint32 length-prefixed strings, big-endian
// uint64 counts and integers — with version vectors in vclock's canonical
// form and rows in the one row codec (information.AppendObject).
// wire.EncodeBody picks a message's own AppendBinary over JSON, so the
// membership messages are untouched.
//
// A rumor entry's vector stays the bytes it arrived as (vclock.ScanVersion
// has walked them, so vclock.DecodeVersion reads them): the dedup key is
// taken over those bytes, a duplicate is dropped without a decode, and a
// forward appends them verbatim. Every sender here writes the canonical
// form, where equal vectors are equal bytes; a peer that sends a vector in
// some other order is keyed apart from its canonical twin, which costs at
// most one extra forward per TTL hop and never a wrong answer — rows still
// travel through the replica's apply. A decoded rumorReq aliases the body it
// was read from, as wire.Unmarshal's envelope aliases its frame: the entries
// a handler keeps while it fetches hold that one frame until the fetch ends.
//
// The tags have the high bit set: no JSON text starts with such a byte, so
// a JSON decoder handed a binary body — or a binary decoder handed JSON —
// fails on the first byte instead of misreading the rest. 0x92, the
// retired rumor reply, is not reused: an old peer's reply fails on it.
const (
	tagRumorReq  byte = 0x91
	tagFetchReq  byte = 0x93
	tagFetchResp byte = 0x94
)

// AppendBinary implements encoding.BinaryAppender.
func (m rumorReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagRumorReq)
	b = wire.AppendString(b, m.From.Site)
	b = wire.AppendString(b, string(m.From.Addr))
	b = wire.AppendString(b, string(m.From.Repl))
	b = wire.AppendUint64(b, uint64(m.TTL))
	b = wire.AppendUint64(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.ID)
		b = append(b, e.VV...)
	}
	return b, nil
}

// size is the length of the body AppendBinary writes, for a sender that
// builds it in a buffer of its own.
func (m rumorReq) size() int {
	n := 1 + 3*4 + 2*8 + len(m.From.Site) + len(m.From.Addr) + len(m.From.Repl)
	for _, e := range m.Entries {
		n += 4 + len(e.ID) + len(e.VV)
	}
	return n
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagFetchReq)
	b = wire.AppendString(b, m.Site)
	b = wire.AppendUint64(b, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		b = wire.AppendString(b, id)
	}
	return b, nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagFetchResp)
	b = wire.AppendUint64(b, uint64(len(m.Objects)))
	for _, o := range m.Objects {
		b = information.AppendObject(b, o)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *rumorReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagRumorReq, "rumorReq")
	from := Peer{Site: b.String(), Addr: netsim.Address(b.String()), Repl: netsim.Address(b.String())}
	*m = rumorReq{From: from, TTL: b.Int()}
	if n := b.Count(12); n > 0 { // id prefix + vector count
		m.Entries = make([]rumorEntry, n)
		for i := range m.Entries {
			m.Entries[i] = rumorEntry{ID: b.String(), VV: wire.Consume(&b, vclock.ScanVersion)}
		}
	}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagFetchReq, "fetchReq")
	*m = fetchReq{Site: b.String()}
	if n := b.Count(4); n > 0 {
		m.IDs = make([]string, n)
		for i := range m.IDs {
			m.IDs[i] = b.String()
		}
	}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagFetchResp, "fetchResp")
	*m = fetchResp{Objects: information.ConsumeObjects(&b)}
	return b.Close()
}
