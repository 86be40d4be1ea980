package replica

import (
	"encoding/binary"
	"errors"
	"slices"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// maxMarksPasses bounds the marks passes of one exchange. A peer under
// steady writes can mismatch again after every pass; past the bound the
// exchange verifies the root and descends, so it always ends.
const maxMarksPasses = 4

// merkleExchange drives one peer exchange through the digest
// negotiation: marks passes (root compare + high-water repair) while they
// move rows → root verify → subtree descent → scoped digest exchange over
// the divergent leaves. Descent runs only for a gap the marks cannot name.
type merkleExchange struct {
	r         *Replicator
	peer      netsim.Address
	st        roundState
	next      func(roundState)
	passes    int      // marks passes sent
	depth     int      // descent steps taken
	divergent []uint32 // divergent leaf buckets found
}

// fail ends the exchange on err. A reply whose rows this process cannot
// name is also a failed apply (Refused).
func (m *merkleExchange) fail(err error) {
	m.r.bump(func(s *Stats) { s.PeerFailures++ })
	m.r.Refused(err)
	m.st.failures++
	m.next(m.st)
}

// Refused hears of a body carrying rows that failed to decode, with the
// decoder's error: a replica.push this replica serves, a reply to its own
// exchange, or a gossip.rumor or graft reply its overlay received. Rows
// this process cannot name — a site past its roster, a schema it never
// registered — are failed applies; any other error is not counted here.
func (r *Replicator) Refused(err error) {
	if errors.Is(err, vclock.ErrUnknownSite) || errors.Is(err, information.ErrUnknownSchema) {
		r.bump(func(s *Stats) { s.ApplyFailures++ })
	}
}

func (m *merkleExchange) finish() {
	m.r.bump(func(s *Stats) { s.PeerSyncs++ })
	m.next(m.st)
}

// count records digest payload bytes for this exchange, both directions,
// by section kind.
func (m *merkleExchange) count(marks, frames, children, want int) {
	n := marks + frames + children + want
	m.st.digestBytes += n
	m.r.bump(func(s *Stats) {
		s.DigestBytes += int64(n)
		s.MarksBytes += int64(marks)
		s.FrameBytes += int64(frames)
		s.ChildrenBytes += int64(children)
		s.WantBytes += int64(want)
	})
}

// negotiate sends one negotiation step and hands the peer's answer to
// then, counting its frame, children and marks sections both ways. A call
// that errors — timeout, no such method, undecodable reply — fails the
// exchange.
func (m *merkleExchange) negotiate(req digestReq, then func(digestResp)) {
	r := m.r
	m.count(req.Marks.size(), len(req.Frames), 0, 0)
	r.ep.GoMsg(m.peer, MethodDigest, req, func(res rpc.Result) {
		var resp digestResp
		if err := res.Decode(&resp); err != nil {
			m.fail(err)
			return
		}
		m.count(resp.Marks.size(), 0, len(resp.Children), 0)
		then(resp)
	}, rpc.CallTimeout(DefaultSyncTimeout), rpc.CallTrace(m.st.trace))
}

// pull merges the rows a peer answered with and books those that changed
// local state.
func (m *merkleExchange) pull(deltas []*information.Object) int {
	applied := m.r.applyRows(deltas)
	if applied > 0 {
		m.st.moved = true
		m.st.applied += applied
		m.r.bump(func(s *Stats) { s.Applied += int64(applied) })
	}
	return applied
}

// push delivers rows the peer has not seen and continues with then; a
// failed push fails the exchange.
func (m *merkleExchange) push(objs []*information.Object, then func()) {
	r := m.r
	r.ep.GoMsg(m.peer, MethodPush, pushReq{Objects: objs}, func(res rpc.Result) {
		var pr pushResp
		if err := res.Decode(&pr); err != nil {
			m.fail(err)
			return
		}
		r.bump(func(s *Stats) { s.Pushed += int64(len(objs)) })
		m.st.pushed += len(objs)
		// Progress only if the peer actually changed state — it may have
		// received the same objects from another site already.
		if pr.Applied > 0 {
			m.st.moved = true
		}
		then()
	}, rpc.CallTimeout(DefaultSyncTimeout), rpc.CallTrace(m.st.trace))
}

// rootFrame encodes the tree's root as the single frame that opens (or
// re-verifies) a negotiation.
func rootFrame(tree *information.DigestTree) []byte {
	return wire.AppendTreeFrames(nil, []wire.TreeFrame{{Path: wire.PackTreePath(0, 0), Hash: tree.Root()}})
}

// open starts the exchange with its first marks pass.
func (m *merkleExchange) open() {
	m.r.bump(func(s *Stats) { s.MerkleExchanges++ })
	m.marksPass()
}

// marksPass sends the root frame plus the high-water marks. A matching
// root ends the exchange at one tiny message pair — the converged steady
// state. On a mismatch it merges the rows the peer's marks prove missing
// here and pushes the rows this side's marks prove missing there; a pass
// that moved rows is followed by another, up to maxMarksPasses, since what
// is left is most often a gap the next marks will name. So is a pass on
// which either side could not rebuild the other's marks from a delta: the
// next one carries them whole. Only a mismatch the marks cannot explain —
// nothing to pull, nothing to push — descends.
func (m *merkleExchange) marksPass() {
	r := m.r
	m.passes++
	tree := r.space.Tree()
	marks := r.outMarks(m.peer, tree, true)
	m.negotiate(digestReq{Frames: rootFrame(tree), Marks: marks}, func(resp digestResp) {
		r.confirmMarks(m.peer, marks.Gen, !resp.Full)
		if resp.Match {
			if m.passes == 1 {
				r.bump(func(s *Stats) { s.ConvergedRoots++ })
			}
			m.finish()
			return
		}
		applied := m.pull(resp.Deltas)
		if applied > 0 {
			r.bump(func(s *Stats) { s.HWFastDeltas += int64(applied) })
		}
		again := m.marksPass
		if m.passes >= maxMarksPasses {
			again = m.verify
		}
		peerMarks, held := r.inMarks(m.peer, resp.Marks, false)
		var push []*information.Object
		if held {
			push = r.newerThanMarks(tree, peerMarks)
		}
		switch {
		case len(push) > 0:
			m.push(push, again)
		case applied > 0, resp.Full, !held:
			again()
		case resp.Children != nil:
			// Nothing the marks explain: descend from the root's
			// children the mismatch response carried.
			m.descend(resp.Children)
		default:
			// The peer thought its marks explained the gap, and they
			// named nothing here: ask for the root's children.
			m.verify()
		}
	})
}

// verify recompares the roots alone; a mismatch descends from the
// children the response carries.
func (m *merkleExchange) verify() {
	r := m.r
	m.negotiate(digestReq{Frames: rootFrame(r.space.Tree())}, func(resp digestResp) {
		if resp.Match {
			m.finish()
			return
		}
		m.descend(resp.Children)
	})
}

// descend compares the peer's children section, in place, with the local
// tree: mismatched internal nodes form the next negotiation frontier,
// mismatched leaves join the divergent set. An empty frontier ends the
// descent and moves to the scoped digest exchange.
func (m *merkleExchange) descend(children []byte) {
	r := m.r
	if len(children) == 0 {
		// The peer reported no mismatched children — it may have
		// converged mid-negotiation (a third replicator pushed it the
		// missing state between steps). Close out over whatever
		// divergent leaves were already found; none means done.
		m.scopedSync()
		return
	}
	tree := r.space.Tree()
	var frontier []wire.TreeFrame
	var kids [information.MerkleFanout]uint64
	// The decoder refused any section that is not its uvarint count and
	// childRecordSize·count bytes.
	_, n := binary.Uvarint(children)
	for records := children[n:]; len(records) > 0; records = records[childRecordSize:] {
		level, index := wire.TreePathParts(binary.BigEndian.Uint64(records))
		for j, local := range tree.AppendChildren(kids[:0], level, index) {
			if local == binary.BigEndian.Uint64(records[8+8*j:]) {
				continue
			}
			child := index*information.MerkleFanout + uint32(j)
			if int(level)+1 >= information.MerkleDepth {
				m.divergent = append(m.divergent, child)
				continue
			}
			frontier = append(frontier, wire.TreeFrame{Path: wire.PackTreePath(level+1, child), Hash: local})
		}
	}
	if len(frontier) == 0 || m.depth >= information.MerkleDepth {
		m.scopedSync()
		return
	}
	m.depth++
	if m.depth > m.st.descentDepth {
		m.st.descentDepth = m.depth
	}
	r.bump(func(s *Stats) { s.DescentCalls++ })
	m.negotiate(digestReq{Frames: wire.AppendTreeFrames(nil, frontier)}, func(resp digestResp) {
		if resp.Match {
			// Every offered frame now agrees: the peer converged while
			// the negotiation was in flight.
			m.scopedSync()
			return
		}
		m.descend(resp.Children)
	})
}

// scopedSync runs the id→version-vector digest exchange narrowed to the
// divergent leaf buckets: digest entries for O(changed) leaves instead
// of the whole id space, then the delta apply and push.
func (m *merkleExchange) scopedSync() {
	r := m.r
	if len(m.divergent) == 0 {
		// Hash descent found nothing concrete (e.g. the peer converged
		// mid-negotiation): the exchange is over.
		m.finish()
		return
	}
	slices.Sort(m.divergent)
	digest := make(map[string]vclock.Version, len(m.divergent))
	tree := r.space.Tree()
	for _, b := range m.divergent {
		tree.LeafDigestInto(digest, b)
	}
	m.st.digestEntries += len(digest)
	m.count(0, 0, 0, digestMapBytes(digest))
	r.bump(func(s *Stats) { s.DigestEntriesSent += int64(len(digest)) })
	r.ep.GoMsg(m.peer, MethodSync, syncReq{Digest: digest, Scope: m.divergent}, func(res rpc.Result) {
		var resp syncResp
		if err := res.Decode(&resp); err != nil {
			m.fail(err)
			return
		}
		m.count(0, 0, 0, wantBytes(resp.Want))
		m.pull(resp.Deltas)
		// Push half: our rows in the divergent buckets the peer's scoped
		// digest has not fully seen: the offered ids it named, sorted.
		var push []*information.Object
		for _, id := range resp.Want {
			if _, offered := digest[id]; !offered {
				continue
			}
			if obj, ok := r.space.Fetch(id); ok {
				push = append(push, obj)
			}
		}
		if len(push) == 0 {
			m.finish()
			return
		}
		m.push(push, m.finish)
	}, rpc.CallTimeout(DefaultSyncTimeout), rpc.CallTrace(m.st.trace))
}

// The digest-byte counters measure the digest sections of the bodies
// exchanged: tree frames, children and marks sections as carried (len of
// the encoding), and for id→version-vector digests and want-lists the
// sizes below, which are what appendDigest and
// information.AppendWireIDs write.
// Data deltas and pushes are never digest bytes.

func vvBytes(vv vclock.Version) int {
	n := wire.UvarintLen(uint64(len(vv)))
	//lint:allow determinism commutative byte-sum; the total is identical under any iteration order
	for s, c := range vv {
		n += wire.UvarintLen(uint64(len(s))) + len(s) + wire.UvarintLen(c)
	}
	return n
}

func digestMapBytes(d map[string]vclock.Version) int {
	n := wire.UvarintLen(uint64(len(d)))
	//lint:allow determinism commutative byte-sum; the total is identical under any iteration order
	for id, vv := range d {
		n += information.WireIDLen(id) + vvBytes(vv)
	}
	return n
}

func wantBytes(want []string) int {
	n := wire.UvarintLen(uint64(len(want)))
	for _, id := range want {
		n += information.WireIDLen(id)
	}
	return n
}
