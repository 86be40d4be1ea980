package gossip

import (
	"slices"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// Every overlay message travels as a hand-written binary body, like the
// anti-entropy protocol's: a tag byte naming the message, then wire's shared
// primitives — strings, counts and counters prefixed or written as uvarints,
// so a short name costs one byte of length and a count below 128 one byte —
// with a peer as its three strings and rows in the row codec's wire form
// (information.AppendWireObject: an id a Space minted by its sequence and
// entropy, each site by its roster entry). A dot is its site in vclock's
// roster form (vclock.AppendSite: one byte for an enrolled site) and its
// counter.
// A Peer alone is the request of gossip.join and gossip.probe: the sender
// introducing itself. Probe is answered with wire.Empty: a reply arriving
// is all the caller learns. Disconnect and prune are announcements with
// the empty body: the frame's source is all they say. No push, ihave or prune names its sender, and none carries a
// vector beside a row: each write is named by its dot alone, and a push
// or a graft's reply pairs the dot with its row. A graft's reply is a
// gossip.rumor body: the grafter takes it as a push.
//
// The tags have the high bit set, so a body in a hex dump names its message.
// Retired tags are not reused, so an old peer's body fails on its first
// byte: 0x91, the rumor that carried its sender and whole vectors; 0x92, the
// rumor reply; 0x9A, the rumor that carried dots without rows, for a fetch;
// 0x93, 0x94 and 0x9C, the graft by ids, its list of rows and the ihave
// whose dots carried ids; 0x9B, the push whose rows spelled their schema's
// name and keys (its successor, 0x90, took the one value left below the
// range); and 0x90, 0x9F and 0xA0, the push, ihave and graft whose dots
// and rows spelled their sites (their successors took a second run, at
// 0xF5); and 0xF5, the push whose rows spelled their ids (its successor
// took 0xF8, the next of that run). Peer (0x95) no longer asks for a link:
// neighborReq does. forwardJoinReq's TTL was eight bytes until it became a
// uvarint; an old body fails on the seven bytes left over.
const (
	tagPeer           byte = 0x95
	tagJoinResp       byte = 0x96
	tagForwardJoinReq byte = 0x97
	tagShuffleReq     byte = 0x98
	tagShuffleResp    byte = 0x99
	tagNeighborReq    byte = 0x9D
	tagNeighborResp   byte = 0x9E
	tagIhaveReq       byte = 0xF6
	tagGraftReq       byte = 0xF7
	tagRumorReq       byte = 0xF8
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

// appendPeers writes a list of peers: a uvarint count, then each peer.
func appendPeers(b []byte, peers []Peer) []byte { return wire.AppendList(b, peers, appendPeer) }

// consumePeers reads a list of peers; an empty one reads as nil.
func consumePeers(b *wire.Body) []Peer {
	n := b.Count(3) // three lengths
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
	return appendPeers(appendPeers(b, m.Active), m.Passive), nil
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
	return wire.AppendUvarint(b, m.TTL), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *forwardJoinReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagForwardJoinReq, "forwardJoinReq")
	*m = forwardJoinReq{Joiner: consumePeer(&b), TTL: b.Uint64()}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m shuffleReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendPeer(append(b, tagShuffleReq), m.From)
	return appendPeers(b, m.Sample), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *shuffleReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagShuffleReq, "shuffleReq")
	*m = shuffleReq{From: consumePeer(&b), Sample: consumePeers(&b)}
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m shuffleResp) AppendBinary(b []byte) ([]byte, error) {
	return appendPeers(append(b, tagShuffleResp), m.Sample), nil
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
	b = wire.AppendUvarint(vclock.AppendSite(b, site), counter)
	return information.AppendWireObject(b, row)
}

// AppendBinary implements encoding.BinaryAppender.
func (m rumorReq) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(append(b, tagRumorReq), uint64(len(m.Entries)))
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
	b = wire.AppendUvarint(append(b, tagRumorReq), uint64(n))
	i := 0
	for _, d := range dots {
		if i < len(rows) && rows[i].ID == d.ID {
			b = appendPushEntry(b, d.Site, d.Counter, rows[i])
			i++
		}
	}
	return b
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The entries are
// decoded into m.Entries' storage: a pooled request is decoded again
// without growing.
func (m *rumorReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagRumorReq, "rumorReq")
	m.Entries = m.Entries[:0]
	if n := b.Count(1 + 1); n > 0 { // site + counter, before the row
		m.Entries = slices.Grow(m.Entries, n)[:n]
		for i := range m.Entries {
			m.Entries[i] = pushEntry{Site: wire.Consume(&b, vclock.ConsumeSite), Counter: b.Uint64(), Row: wire.Consume(&b, information.DecodeWireObject)}
		}
	}
	return b.Close()
}

// appendDots writes a list of dots: a uvarint count, then each dot's site,
// in the roster form, and counter.
func appendDots(b []byte, dots []dot) []byte {
	b = wire.AppendUvarint(b, uint64(len(dots)))
	for _, d := range dots {
		b = wire.AppendUvarint(vclock.AppendSite(b, d.Site), d.Counter)
	}
	return b
}

// consumeDots reads a list of dots into dst's storage; an empty one reads
// as dst[:0], which is nil for a nil dst.
func consumeDots(b *wire.Body, dst []dot) []dot {
	n := b.Count(1 + 1) // site + counter
	if n == 0 {
		return dst[:0]
	}
	dots := slices.Grow(dst[:0], n)[:n]
	for i := range dots {
		dots[i] = dot{Site: wire.Consume(b, vclock.ConsumeSite), Counter: b.Uint64()}
	}
	return dots
}

// AppendBinary implements encoding.BinaryAppender.
func (m ihaveReq) AppendBinary(b []byte) ([]byte, error) {
	return appendDots(append(b, tagIhaveReq), m.Dots), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The dots are
// decoded into m.Dots' storage, as rumorReq's entries are.
func (m *ihaveReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagIhaveReq, "ihaveReq")
	m.Dots = consumeDots(&b, m.Dots)
	return b.Close()
}

// AppendBinary implements encoding.BinaryAppender.
func (m graftReq) AppendBinary(b []byte) ([]byte, error) {
	return appendDots(append(b, tagGraftReq), m.Dots), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *graftReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagGraftReq, "graftReq")
	*m = graftReq{Dots: consumeDots(&b, nil)}
	return b.Close()
}
