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
// (information.AppendObject). A Peer alone is the request of gossip.join
// and gossip.probe: the sender introducing itself. Probe is answered with
// wire.Empty: a reply arriving is all the caller learns. Disconnect and
// prune are announcements with the empty body: the frame's source is all
// they say. No push, ihave or prune names its sender, and none carries a
// vector beside a row: each write is named by its id and dot.
//
// The tags have the high bit set, so a body in a hex dump names its message.
// Retired tags are not reused, so an old peer's body fails on its first
// byte: 0x91, the rumor that carried its sender and whole vectors; 0x92, the
// rumor reply; 0x9A, the rumor that carried dots without rows, for a fetch.
// Peer (0x95) no longer asks for a link: neighborReq does.
const (
	tagGraftReq       byte = 0x93
	tagGraftResp      byte = 0x94
	tagPeer           byte = 0x95
	tagJoinResp       byte = 0x96
	tagForwardJoinReq byte = 0x97
	tagShuffleReq     byte = 0x98
	tagShuffleResp    byte = 0x99
	tagRumorReq       byte = 0x9B
	tagIhaveReq       byte = 0x9C
	tagNeighborReq    byte = 0x9D
	tagNeighborResp   byte = 0x9E
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

// neighborReq's flags.
const (
	flagRing   byte = 1 << 0
	flagLonely byte = 1 << 1
)

// AppendBinary implements encoding.BinaryAppender.
func (m neighborReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendPeer(append(b, tagNeighborReq), m.From)
	var flags byte
	if m.Ring {
		flags |= flagRing
	}
	if m.Lonely {
		flags |= flagLonely
	}
	return append(b, flags), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *neighborReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagNeighborReq, "neighborReq")
	from := consumePeer(&b)
	flags := b.Flags(flagRing | flagLonely)
	*m = neighborReq{From: from, Ring: flags&flagRing != 0, Lonely: flags&flagLonely != 0}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m neighborResp) AppendBinary(b []byte) ([]byte, error) {
	var flags byte
	if m.Accepted {
		flags = 1
	}
	return append(b, tagNeighborResp, flags), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *neighborResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagNeighborResp, "neighborResp")
	*m = neighborResp{Accepted: b.Flags(1) != 0}
	return b.Close()
}

// appendPushEntry writes one pushed write: its dot's site and counter, then
// its row.
func appendPushEntry(b []byte, site string, counter uint64, row *information.Object) []byte {
	b = wire.AppendString(b, site)
	b = wire.AppendUint64(b, counter)
	return information.AppendObject(b, row)
}

// AppendBinary implements encoding.BinaryAppender.
func (m rumorReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUint64(append(b, tagRumorReq), uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = appendPushEntry(b, e.Site, e.Counter, e.Row)
	}
	return b, nil
}

// appendPush writes the gossip.rumor body that pairs each dot with its row.
// rows is what FetchWire returned for the dots' ids: a subsequence of them,
// in their order; a dot whose row is missing is left out.
func appendPush(b []byte, dots []rumorEntry, rows []*information.Object) []byte {
	n := 0
	for _, d := range dots {
		if n < len(rows) && rows[n].ID == d.ID {
			n++
		}
	}
	b = wire.AppendUint64(append(b, tagRumorReq), uint64(n))
	i := 0
	for _, d := range dots {
		if i < len(rows) && rows[i].ID == d.ID {
			b = appendPushEntry(b, d.Site, d.Counter, rows[i])
			i++
		}
	}
	return b
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *rumorReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagRumorReq, "rumorReq")
	*m = rumorReq{}
	if n := b.Count(4 + 8); n > 0 { // site prefix + counter, before the row
		m.Entries = make([]pushEntry, n)
		for i := range m.Entries {
			m.Entries[i] = pushEntry{Site: b.String(), Counter: b.Uint64(), Row: wire.Consume(&b, information.DecodeObject)}
		}
	}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m ihaveReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUint64(append(b, tagIhaveReq), uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.ID)
		b = wire.AppendString(b, e.Site)
		b = wire.AppendUint64(b, e.Counter)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *ihaveReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagIhaveReq, "ihaveReq")
	*m = ihaveReq{}
	if n := b.Count(2*4 + 8); n > 0 { // id and site prefixes + counter
		m.Entries = make([]rumorEntry, n)
		for i := range m.Entries {
			m.Entries[i] = rumorEntry{ID: b.String(), Site: b.String(), Counter: b.Uint64()}
		}
	}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m graftReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, tagGraftReq), m.Site)
	return wire.AppendStrings(b, m.IDs), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *graftReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagGraftReq, "graftReq")
	*m = graftReq{Site: b.String(), IDs: b.Strings()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m graftResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendList(append(b, tagGraftResp), m.Objects, information.AppendObject), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *graftResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagGraftResp, "graftResp")
	*m = graftResp{Objects: information.ConsumeObjects(&b)}
	return b.Close()
}
