package replica

import (
	"slices"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// marksKept is how many of its own marks sections a replicator keeps per
// peer: the one the peer last confirmed holding, and those sent since.
const marksKept = 4

// peerMarks is a replicator's record of the marks it exchanges with one
// peer, used in both directions: requests and replies, whoever calls.
// Each side numbers the sections it sends the peer with generations from
// 1. A section goes out as a delta from the latest one the peer confirmed
// holding — by naming its generation in a request's ack, or by a reply to
// a request that does not ask for whole marks — and whole when there is
// none. The receiver keeps the peer's last two sections, so a delta from
// the confirmed one still rebuilds when a later one, not yet confirmed,
// has arrived: a reply's section, or a request that crossed this side's. The receiver rebuilds a delta from the section it holds and keeps
// the result only if it passes the sender's check, so a delta from a base
// it lost — after a lost reply, a restart, or a late request from a timed
// out exchange — or from one reused under the same generation is refused,
// never read: the marks pass is answered as if it carried no marks, and
// the next one carries them whole.
type peerMarks struct {
	// held is the peer's last two sections this side rebuilt, whole, the
	// latest first: a delta may come from the one before, when the peer
	// built it before the latest arrived (its request and this side's
	// crossed). A generation of 0 is a free slot.
	held     [2]sentMarks
	spare    []byte // where the next rebuild is written
	gen      uint64 // the generation of this side's last section to the peer
	base     uint64 // this side's latest generation the peer confirmed holding; 0: none
	fellBack bool   // the peer lost or refused the base: the next whole section is a fallback
	sent     [marksKept]sentMarks
	delta    []byte // the last delta sent, until its body is encoded
}

// sentMarks is one whole section, with the generation its sender gave it.
type sentMarks struct {
	gen     uint64
	section []byte
}

// peerMarksLocked returns the record for peer, creating it.
func (r *Replicator) peerMarksLocked(peer netsim.Address) *peerMarks {
	p := r.marks[peer]
	if p == nil {
		if r.marks == nil {
			r.marks = make(map[netsim.Address]*peerMarks)
		}
		p = &peerMarks{}
		r.marks[peer] = p
	}
	return p
}

// trimMarks cuts the record for a peer leaving the sync set down to what a
// return needs to resume with deltas: this side's section the peer
// confirmed holding and its latest one, which a reply still in flight may
// confirm, and the peer's latest section this side rebuilt. The other
// sections sent, the held one before the latest and the scratch buffers
// are rebuilt if the peer comes back.
func (r *Replicator) trimMarks(peer netsim.Address) {
	r.marksMu.Lock()
	defer r.marksMu.Unlock()
	p := r.marks[peer]
	if p == nil {
		return
	}
	for i, s := range p.sent {
		if s.gen != p.base && s.gen != p.gen {
			p.sent[i] = sentMarks{}
		}
	}
	p.held[1], p.spare, p.delta = sentMarks{}, nil, nil
}

// outMarks stamps the tree's marks for peer with a new generation, as a
// delta from the section the peer last confirmed holding when that is
// shorter. A request names the peer's section this side holds; a reply's
// confirmation is the request it answers. The section aliases the
// record's buffers: it is good until the next outMarks for the same peer,
// and a body is encoded before that.
func (r *Replicator) outMarks(peer netsim.Address, tree *information.DigestTree, request bool) marksMsg {
	r.marksMu.Lock()
	p := r.peerMarksLocked(peer)
	p.gen++
	var base []byte
	if p.base != 0 && p.gen-p.base < marksKept {
		base = p.sent[p.base%marksKept].section
	}
	slot := &p.sent[p.gen%marksKept]
	slot.gen, slot.section = p.gen, tree.AppendMarks(slot.section[:0])
	m := marksMsg{Gen: p.gen, Section: slot.section}
	if request {
		m.Ack = p.held[0].gen
	}
	if base != nil {
		var ok bool
		p.delta, ok = information.AppendMarksDelta(p.delta[:0], base, slot.section)
		if ok && len(p.delta)+wire.UvarintLen(p.base)+4 < len(slot.section) {
			m.Base, m.Check, m.Section = p.base, information.MarksCheck(slot.section), p.delta
		}
	}
	fallback := m.Base == 0 && p.fellBack
	p.fellBack = false
	r.marksMu.Unlock()
	if fallback {
		r.bump(func(s *Stats) { s.MarksFallbacks++ })
	}
	return m
}

// inMarks takes the marks peer sent: a request's ack names the section of
// this side's the peer holds, and the section is rebuilt whole. ok is
// false when it cannot be: a delta from a base this side does not hold
// (what it holds is kept: still the peer's latest it has), or one whose
// rebuild fails the check (the base is dropped: the peer numbers its
// sections anew). The section returned aliases the record's buffers until
// the next inMarks from the same peer.
func (r *Replicator) inMarks(peer netsim.Address, m marksMsg, request bool) (section []byte, ok bool) {
	r.marksMu.Lock()
	defer r.marksMu.Unlock()
	p := r.peerMarksLocked(peer)
	if request {
		p.confirm(m.Ack)
	}
	if m.Section == nil {
		return nil, false
	}
	var rebuilt []byte
	if m.Base == 0 {
		rebuilt = append(p.spare[:0], m.Section...)
	} else {
		i := slices.IndexFunc(p.held[:], func(h sentMarks) bool { return h.gen == m.Base })
		if i < 0 {
			return nil, false
		}
		var err error
		rebuilt, err = information.ApplyMarksDelta(p.spare[:0], p.held[i].section, m.Section)
		if err != nil || information.MarksCheck(rebuilt) != m.Check {
			p.held[i].gen = 0
			return nil, false
		}
	}
	p.spare = p.held[1].section
	p.held[1], p.held[0] = p.held[0], sentMarks{gen: m.Gen, section: rebuilt}
	return rebuilt, true
}

// confirmMarks records how peer answered the marks this side sent under
// gen: held (the reply did not ask for whole marks) confirms them as the
// next base, and otherwise the base is gone.
func (r *Replicator) confirmMarks(peer netsim.Address, gen uint64, held bool) {
	r.marksMu.Lock()
	defer r.marksMu.Unlock()
	p := r.peerMarksLocked(peer)
	if held {
		p.confirm(gen)
	} else {
		p.confirm(0)
	}
}

// confirm takes gen as the section of this side's the peer holds: the next
// base if this side still keeps it, and none otherwise. A generation below
// the base is a late request's, sent before the peer confirmed the base,
// and tells nothing new; 0 says the peer holds none.
func (p *peerMarks) confirm(gen uint64) {
	switch {
	case gen != 0 && gen < p.base:
		return
	case gen != 0 && gen <= p.gen && p.sent[gen%marksKept].gen == gen:
		p.base = gen
		return
	}
	if p.base != 0 || gen != 0 {
		p.fellBack = true
	}
	p.base = 0
}
