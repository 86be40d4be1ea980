package gossip

import (
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// Every overlay message travels as a hand-written binary body, like the
// anti-entropy protocol's: a tag byte naming the message, then wire's shared
// primitives — uint32 length-prefixed strings, big-endian uint64 counts and
// integers — with a peer as its three strings and rows in the one row codec
// (information.AppendObject). A Peer alone is the request of gossip.join,
// gossip.neighbor and gossip.probe: the sender introducing itself.
// Forward-join, neighbor and probe are answered with wire.Empty: a reply
// arriving is all the caller learns. A rumor names no sender and carries no
// vector: the frame's source is the sender, and each entry is a write's id
// and dot.
//
// The tags have the high bit set, so a body in a hex dump names its message.
// Retired tags are not reused, so an old peer's body fails on its first
// byte: 0x91, the rumor that carried its sender and whole vectors, and 0x92,
// the rumor reply.
const (
	tagFetchReq       byte = 0x93
	tagFetchResp      byte = 0x94
	tagPeer           byte = 0x95
	tagJoinResp       byte = 0x96
	tagForwardJoinReq byte = 0x97
	tagShuffleReq     byte = 0x98
	tagShuffleResp    byte = 0x99
	tagRumorReq       byte = 0x9A
)

// appendPeer writes a peer: its site, gossip address and replication
// address.
func appendPeer(b []byte, p Peer) []byte {
	b = wire.AppendString(b, p.Site)
	b = wire.AppendString(b, string(p.Addr))
	return wire.AppendString(b, string(p.Repl))
}

func consumePeer(b *wire.Body) Peer {
	return Peer{Site: b.String(), Addr: netsim.Address(b.String()), Repl: netsim.Address(b.String())}
}

// consumePeers reads a list of peers; an empty one reads as nil.
func consumePeers(b *wire.Body) []Peer {
	n := b.Count(3 * 4)
	if n == 0 {
		return nil
	}
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = consumePeer(b)
	}
	return peers
}

// AppendBinary implements encoding.BinaryAppender.
func (p Peer) AppendBinary(b []byte) ([]byte, error) {
	return appendPeer(append(b, tagPeer), p), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Peer) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagPeer, "gossip peer")
	*p = consumePeer(&b)
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m joinResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendPeer(append(b, tagJoinResp), m.Me)
	b = wire.AppendList(b, m.Active, appendPeer)
	return wire.AppendList(b, m.Passive, appendPeer), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *joinResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagJoinResp, "joinResp")
	*m = joinResp{Me: consumePeer(&b), Active: consumePeers(&b), Passive: consumePeers(&b)}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m forwardJoinReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendPeer(append(b, tagForwardJoinReq), m.Joiner)
	return wire.AppendUint64(b, uint64(m.TTL)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *forwardJoinReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagForwardJoinReq, "forwardJoinReq")
	*m = forwardJoinReq{Joiner: consumePeer(&b), TTL: b.Int()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m shuffleReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendPeer(append(b, tagShuffleReq), m.From)
	return wire.AppendList(b, m.Sample, appendPeer), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *shuffleReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagShuffleReq, "shuffleReq")
	*m = shuffleReq{From: consumePeer(&b), Sample: consumePeers(&b)}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m shuffleResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendList(append(b, tagShuffleResp), m.Sample, appendPeer), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *shuffleResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagShuffleResp, "shuffleResp")
	*m = shuffleResp{Sample: consumePeers(&b)}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m rumorReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUint64(append(b, tagRumorReq), uint64(m.TTL))
	b = wire.AppendUint64(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.ID)
		b = wire.AppendString(b, e.Site)
		b = wire.AppendUint64(b, e.Counter)
	}
	return b, nil
}

// size is the length of the body AppendBinary writes, for a sender that
// builds it in a buffer of its own.
func (m rumorReq) size() int {
	n := 1 + 2*8
	for _, e := range m.Entries {
		n += 2*4 + len(e.ID) + len(e.Site) + 8
	}
	return n
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagFetchReq), m.Site)
	return wire.AppendStrings(b, m.IDs), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendList(append(b, tagFetchResp), m.Objects, information.AppendObject), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *rumorReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagRumorReq, "rumorReq")
	*m = rumorReq{TTL: b.Int()}
	if n := b.Count(2*4 + 8); n > 0 { // id and site prefixes + counter
		m.Entries = make([]rumorEntry, n)
		for i := range m.Entries {
			m.Entries[i] = rumorEntry{ID: b.String(), Site: b.String(), Counter: b.Uint64()}
		}
	}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagFetchReq, "fetchReq")
	*m = fetchReq{Site: b.String(), IDs: b.Strings()}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagFetchResp, "fetchResp")
	*m = fetchResp{Objects: information.ConsumeObjects(&b)}
	return b.Close()
}
