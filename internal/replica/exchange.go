package replica

import (
	"encoding/binary"
	"slices"

	"mocca/internal/information"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// merkleExchange drives one peer exchange through the digest
// negotiation: root compare (+ high-water fast path) → optional verify →
// subtree descent → scoped digest exchange over the divergent leaves.
type merkleExchange struct {
	r         *Replicator
	p         peer
	st        roundState
	next      func(roundState)
	depth     int      // descent steps taken
	divergent []uint32 // divergent leaf buckets found
}

func (m *merkleExchange) fail() {
	m.r.bump(func(s *Stats) { s.PeerFailures++ })
	m.st.failures++
	m.next(m.st)
}

func (m *merkleExchange) finish() {
	m.r.bump(func(s *Stats) { s.PeerSyncs++ })
	m.next(m.st)
}

// count records digest payload bytes for this exchange, both directions.
func (m *merkleExchange) count(n int) {
	m.st.digestBytes += n
	m.r.bump(func(s *Stats) { s.DigestBytes += int64(n) })
}

// negotiate sends one negotiation step and hands the peer's answer to
// then, counting its frame and mark sections both ways. A call that errors
// — timeout, no such method, undecodable reply — fails the exchange.
func (m *merkleExchange) negotiate(req digestReq, then func(digestResp)) {
	r := m.r
	m.count(len(req.Frames) + hwBytes(req.HW))
	r.ep.GoJSON(m.p.addr, MethodDigest, req, func(res rpc.Result) {
		var resp digestResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(len(resp.Children) + hwBytes(resp.HW))
		then(resp)
	}, rpc.CallTimeout(DefaultSyncTimeout), rpc.CallTrace(m.st.trace))
}

// pull merges the rows a peer answered with and books those that changed
// local state.
func (m *merkleExchange) pull(deltas []*information.Object) int {
	applied, _, _ := m.r.applyRows(deltas)
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
	r.ep.GoJSON(m.p.addr, MethodPush, pushReq{Site: r.site, Objects: objs}, func(res rpc.Result) {
		var pr pushResp
		if err := res.Decode(&pr); err != nil {
			m.fail()
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

// open sends the root frame plus high-water marks. A matching root ends
// the exchange at one tiny message pair — the converged steady state.
func (m *merkleExchange) open() {
	r := m.r
	r.bump(func(s *Stats) { s.MerkleExchanges++ })
	tree := r.treeFor(m.p.site)
	m.negotiate(digestReq{Site: r.site, Frames: rootFrame(tree), HW: tree.HighWater()}, func(resp digestResp) {
		if m.p.site == "" && resp.Site != "" {
			// An untagged peer introduced itself: future rounds can scope
			// placement (and trees) by its site. Tag-only — inserting here
			// would resurrect a peer RemovePeer dropped while this reply
			// was in flight.
			r.tagPeerSite(m.p.addr, resp.Site)
			m.p.site = resp.Site
		}
		if resp.Match {
			r.bump(func(s *Stats) { s.ConvergedRoots++ })
			m.finish()
			return
		}
		// High-water fast path: merge the rows the peer's marks prove we
		// lack, push the rows our marks prove it lacks.
		applied := m.pull(resp.Deltas)
		if applied > 0 {
			r.bump(func(s *Stats) { s.HWFastDeltas += int64(applied) })
		}
		peerSite := resp.Site
		if peerSite == "" {
			peerSite = m.p.site
		}
		push := r.newerThanHW(tree, resp.HW, peerSite)
		switch {
		case len(push) > 0:
			m.push(push, m.verify)
		case applied > 0:
			// State moved: one cheap root recompare before descending.
			m.verify()
		default:
			// Nothing the marks explain: descend from the root's
			// children the mismatch response already carried.
			m.descend(resp.Children)
		}
	})
}

// verify recompares roots after the fast path moved state; a mismatch
// descends from the children the response carries.
func (m *merkleExchange) verify() {
	r := m.r
	m.negotiate(digestReq{Site: r.site, Frames: rootFrame(r.treeFor(m.p.site))}, func(resp digestResp) {
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
		m.scopedSync(r.treeFor(m.p.site))
		return
	}
	tree := r.treeFor(m.p.site)
	var frontier []wire.TreeFrame
	var kids [information.MerkleFanout]uint64
	// The decoder refused any section that is not 8 + childRecordSize·n bytes.
	for records := children[8:]; len(records) > 0; records = records[childRecordSize:] {
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
		m.scopedSync(tree)
		return
	}
	m.depth++
	if m.depth > m.st.descentDepth {
		m.st.descentDepth = m.depth
	}
	r.bump(func(s *Stats) { s.DescentCalls++ })
	m.negotiate(digestReq{Site: r.site, Frames: wire.AppendTreeFrames(nil, frontier)}, func(resp digestResp) {
		if resp.Match {
			// Every offered frame now agrees: the peer converged while
			// the negotiation was in flight.
			m.scopedSync(r.treeFor(m.p.site))
			return
		}
		m.descend(resp.Children)
	})
}

// scopedSync runs the id→version-vector digest exchange narrowed to the
// divergent leaf buckets: digest entries for O(changed) leaves instead
// of the whole id space, then the delta apply and push.
func (m *merkleExchange) scopedSync(tree *information.DigestTree) {
	r := m.r
	if len(m.divergent) == 0 {
		// Hash descent found nothing concrete (e.g. the peer converged
		// mid-negotiation): the exchange is over.
		m.finish()
		return
	}
	slices.Sort(m.divergent)
	digest := make(map[string]vclock.Version, len(m.divergent))
	for _, b := range m.divergent {
		tree.LeafDigestInto(digest, b)
	}
	m.st.digestEntries += len(digest)
	m.count(digestMapBytes(digest))
	r.bump(func(s *Stats) { s.DigestEntriesSent += int64(len(digest)) })
	r.ep.GoJSON(m.p.addr, MethodSync, syncReq{Site: r.site, Digest: digest, Scope: m.divergent}, func(res rpc.Result) {
		var resp syncResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(wantBytes(resp.Want))
		m.pull(resp.Deltas)
		// Push half: our rows in the divergent buckets the peer's scoped
		// digest has not fully seen: the offered ids it named, sorted. The
		// tree is already scoped to the peer's placement interest.
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
// exchanged: tree frames and children sections as carried (len of the
// encoding), and for high-water maps, id→version-vector digests and
// want-lists the sizes below, which are what appendHW, appendDigest and
// appendStrings write. Data deltas and pushes are never digest bytes.

func vvBytes(vv vclock.Version) int {
	n := 8
	for s := range vv {
		n += len(s) + 12
	}
	return n
}

func digestMapBytes(d map[string]vclock.Version) int {
	n := 8
	//lint:allow determinism commutative byte-sum; the total is identical under any iteration order
	for id, vv := range d {
		n += len(id) + 4 + vvBytes(vv)
	}
	return n
}

// hwBytes is 0 for an absent (nil) map: no section is encoded.
func hwBytes(hw map[string]uint64) int {
	if hw == nil {
		return 0
	}
	n := 8
	for s := range hw {
		n += len(s) + 12
	}
	return n
}

func wantBytes(want []string) int {
	n := 8
	for _, id := range want {
		n += len(id) + 4
	}
	return n
}
