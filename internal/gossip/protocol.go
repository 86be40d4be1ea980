package gossip

import (
	"cmp"
	"encoding"
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"sync"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// errClosed answers protocol calls that land on a crashed overlay.
var errClosed = errors.New("gossip: overlay closed")

// --- wire types ------------------------------------------------------------
//
// Every message travels as a binary body (codec.go). A Peer alone is the
// request of join and probe; probe is answered with wire.Empty, and
// forward-join, disconnect and prune are announcements: forward-join
// carries its walk, the other two nothing but the frame's source.

// joinResp bootstraps the joiner: the contact's identity plus a sample
// of its views.
type joinResp struct {
	Me      Peer
	Active  []Peer
	Passive []Peer
}

type forwardJoinReq struct {
	Joiner Peer
	TTL    int
}

// neighborReq asks for a symmetric active link. It is high-priority —
// admitted even by a full member — when it pins the receiver as the
// requester's ring successor or the requester's active view is empty.
type neighborReq struct {
	From   Peer
	Ring   bool
	Lonely bool
}

// neighborResp says whether the receiver holds the link now.
type neighborResp struct {
	Accepted bool
}

type shuffleReq struct {
	From   Peer
	Sample []Peer
}

type shuffleResp struct {
	Sample []Peer
}

// rumorEntry names one fresh write by its dot: the site that made it and
// the counter that site's entry of the row's vector reached with it — as
// exact a name as the whole vector, at a size independent of its width.
type rumorEntry struct {
	ID      string
	Site    string
	Counter uint64
}

// pushEntry is one write of a gossip.rumor push: its dot and the row the
// sender holds for it, which answers the dot (the row's id is the dot's).
type pushEntry struct {
	Site    string
	Counter uint64
	Row     *information.Object
}

func (e pushEntry) dot() rumorEntry {
	return rumorEntry{ID: e.Row.ID, Site: e.Site, Counter: e.Counter}
}

// rumorReq is a gossip.rumor body: the pushed writes. The sender is not in
// it: the frame's source address names it.
type rumorReq struct {
	Entries []pushEntry
}

// ihaveReq is a gossip.ihave body: the dots a lazy peer is told of.
type ihaveReq struct {
	Entries []rumorEntry
}

type graftReq struct {
	IDs []string
}

type graftResp struct {
	Objects []*information.Object
}

// --- handlers --------------------------------------------------------------

// register installs the overlay protocol. Handlers are pure local
// compute plus scheduled follow-up calls, so the synchronous form is
// safe under the simulated clock.
func (o *Overlay) register() {
	o.ep.MustRegister(MethodJoin, rpc.Handle(func(_ netsim.Address, joiner Peer) (joinResp, error) {
		o.mu.Lock()
		o.stats.Joins++
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return joinResp{}, errClosed
		}
		resp := joinResp{Me: o.self, Active: o.ActiveView(), Passive: o.PassiveView()}
		// Admit the joiner — its view is empty, so a full contact evicts
		// for it — and spread it across the overlay so other members
		// (which may be under their active target) can adopt it.
		forwardTo := o.ActiveView()
		o.addActive(joiner, true, notRing)
		for _, p := range forwardTo {
			if p.Addr != joiner.Addr {
				o.announce(p.Addr, MethodForwardJoin, forwardJoinReq{Joiner: joiner, TTL: DefaultWalkTTL})
			}
		}
		o.arm(0)
		return resp, nil
	}))

	o.ep.MustRegister(MethodForwardJoin, rpc.Handle(func(_ netsim.Address, req forwardJoinReq) (wire.Empty, error) {
		o.mu.Lock()
		o.stats.ForwardJoins++
		closed := o.closed
		deficit := len(o.active) < o.activeTargetLocked()
		var walk []Peer
		if !deficit && req.TTL > 0 {
			for _, p := range o.active {
				if p.Addr != req.Joiner.Addr {
					walk = append(walk, p)
				}
			}
		}
		o.mu.Unlock()
		if closed || req.Joiner.Addr == o.self.Addr {
			return wire.Empty{}, nil
		}
		if deficit {
			// Room in the active view: ask the joiner for a link.
			o.neighbor(req.Joiner, notRing, func(bool, int) {})
		} else {
			o.addPassive(req.Joiner)
			if len(walk) > 0 {
				o.mu.Lock()
				next := walk[o.rng.Intn(len(walk))]
				o.mu.Unlock()
				o.announce(next.Addr, MethodForwardJoin, forwardJoinReq{Joiner: req.Joiner, TTL: req.TTL - 1})
			}
		}
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodNeighbor, rpc.Handle(func(_ netsim.Address, req neighborReq) (neighborResp, error) {
		o.mu.Lock()
		o.stats.Neighbors++
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return neighborResp{}, errClosed
		}
		ring := notRing
		if req.Ring {
			ring = ringPredecessor
		}
		// A full member admits only a high-priority request; any other is
		// refused rather than paid for with an eviction.
		if !o.addActive(req.From, req.Ring || req.Lonely, ring) {
			return neighborResp{}, nil
		}
		o.arm(0)
		return neighborResp{Accepted: true}, nil
	}))

	o.ep.MustRegister(MethodDisconnect, rpc.Handle(func(from netsim.Address, _ wire.Empty) (wire.Empty, error) {
		o.removeActive(from)
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodShuffle, rpc.Handle(func(_ netsim.Address, req shuffleReq) (shuffleResp, error) {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return shuffleResp{}, errClosed
		}
		o.stats.Shuffles++
		sample := o.sampleLocked(req.From.Addr)
		o.mu.Unlock()
		o.addPassive(req.From)
		for _, p := range req.Sample {
			o.addPassive(p)
		}
		return shuffleResp{Sample: sample}, nil
	}))

	o.ep.MustRegister(MethodProbe, rpc.Handle(func(_ netsim.Address, from Peer) (wire.Empty, error) {
		o.mu.Lock()
		closed := o.closed
		held := indexOf(o.active, from.Addr) >= 0
		o.mu.Unlock()
		if closed {
			return wire.Empty{}, errClosed
		}
		if !held {
			// The prober holds a link this end does not: it goes at both.
			o.announce(from.Addr, MethodDisconnect, wire.Empty{})
		}
		o.addPassive(from)
		return wire.Empty{}, nil
	}))

	// Pushes, ihaves and prunes are announcements: the sender waits for
	// nothing, so the handlers answer nothing. The frame's source is the
	// sender.
	o.ep.MustRegister(MethodRumor, rpc.HandleCtx(func(from netsim.Address, tc wire.TraceContext, req rumorReq) (wire.Empty, error) {
		o.receive(tc, from, req.Entries, false)
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodIhave, rpc.Handle(func(from netsim.Address, req ihaveReq) (wire.Empty, error) {
		o.onIhave(from, req.Entries)
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodPrune, rpc.Handle(func(from netsim.Address, _ wire.Empty) (wire.Empty, error) {
		o.mu.Lock()
		if indexOf(o.active, from) >= 0 {
			o.lazy[from] = true
		}
		o.mu.Unlock()
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodGraft, rpc.Handle(func(from netsim.Address, req graftReq) (graftResp, error) {
		o.mu.Lock()
		if indexOf(o.active, from) >= 0 {
			delete(o.lazy, from)
		}
		o.stats.RumorFetches++
		o.mu.Unlock()
		if o.replica == nil {
			return graftResp{}, nil
		}
		return graftResp{Objects: o.replica.FetchWire(req.IDs)}, nil
	}))
}

// announce sends msg one-way: one frame, no reply, no timer.
func (o *Overlay) announce(to netsim.Address, method string, msg encoding.BinaryAppender) {
	body, _ := msg.AppendBinary(nil) // never errs
	_ = o.ep.Announce(to, method, body)
}

// --- rumor mongering -------------------------------------------------------

// Publish spreads a fresh local write: its row to the eager peers, its
// dot — this site's entry of vv, which the write has just ticked — to the
// lazy ones. A vector this site never ticked names no write of its own and
// publishes nothing — anti-entropy carries that row; nor does a dot
// already published.
func (o *Overlay) Publish(id string, vv vclock.Version) {
	entry := rumorEntry{ID: id, Site: o.self.Site, Counter: vv.Counter(o.self.Site)}
	o.mu.Lock()
	if _, seen := o.seen[entry.key()]; o.closed || entry.Counter == 0 || seen {
		o.mu.Unlock()
		return
	}
	o.receipts++
	o.markSeenLocked(entry.key(), o.receipts)
	eager, lazy := o.splitLocked("")
	if len(eager)+len(lazy) == 0 {
		o.mu.Unlock()
		return
	}
	o.stats.RumorsPublished++
	flush := o.queueIhavesLocked(lazy, []rumorEntry{entry})
	o.mu.Unlock()
	if flush {
		o.clock.AfterFunc(ihaveInterval, o.flushIhaves)
	}
	// A tagged object's rumor rides the originating write's trace: the
	// publish is an instant span under it and every push carries it.
	var tc wire.TraceContext
	if o.tracer.On() {
		if parent, ok := o.objects.Lookup(id); ok {
			o.tracer.Event("gossip.publish", o.self.Site, parent, "",
				observe.Attr{Key: "object", Value: id})
			tc = parent
		}
	}
	o.push(eager, []rumorEntry{entry}, tc)
}

// receive takes the entries a push from the member at from carried, or
// the rows a graft pulled from it. The first receipt of a dot applies its
// row, passes the write on and keeps the link eager at this end too, as a
// branch of the tree. A push of dots all seen before is a duplicate, and
// proves the link redundant — it turns lazy at this end, and one prune
// makes it lazy at the other — unless one of two races explains it:
//
//   - A dot first grafted proves nothing: the push that arrives after a
//     graft is a tree branch that was late, and every member of a
//     subtree cut off from its root grafts at once, so pruning there
//     would cut the subtree's own branches.
//   - A sender that has delivered some other write first since the
//     dot's first copy arrived is a branch too: two writes crossing at a
//     member arrive first by different links, and pruning both links
//     would cut the member off from both.
//
// A row anti-entropy delivered first is not a duplicate either: the dot
// was never seen, so the write is passed on and the link stays eager. A
// sender outside the active view holds a link this end does not, and is
// told to drop it.
func (o *Overlay) receive(tc wire.TraceContext, from netsim.Address, entries []pushEntry, grafted bool) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.stats.RumorsSeen += int64(len(entries))
	offView := indexOf(o.active, from) < 0
	if offView && !grafted {
		o.stats.RumorsOffView += int64(len(entries))
	}
	known := !offView || indexOf(o.passive, from) >= 0
	fresh := make([]rumorEntry, 0, len(entries))
	rows := make([]*information.Object, 0, len(entries))
	// The duplicates are redundant if each one's first copy was pushed no
	// earlier than the sender last brought news.
	redundant := true
	receipt := uint64(0) // a graft is no receipt a duplicate can prove redundant
	if !grafted {
		o.receipts++
		receipt = o.receipts
	}
	for _, e := range entries {
		k := e.dot().key()
		if first, seen := o.seen[k]; seen {
			redundant = redundant && first >= o.lastFresh[from]
			continue
		}
		o.markSeenLocked(k, receipt)
		fresh = append(fresh, e.dot())
		if !slices.Contains(rows, e.Row) {
			rows = append(rows, e.Row)
		}
	}
	prune := len(fresh) == 0 && len(entries) > 0 && redundant && !grafted && !offView
	switch {
	case prune:
		o.lazy[from] = true
		o.stats.Prunes++
	case len(fresh) > 0 && !offView:
		delete(o.lazy, from)
		o.lastFresh[from] = receipt
	}
	o.mu.Unlock()
	if !known && o.contacts != nil {
		// A sender in neither view is a member this one has not met: the
		// advertised membership names it for the passive view.
		all := o.contacts()
		if i := indexOf(all, from); i >= 0 {
			o.addPassive(all[i])
		}
	}
	switch {
	case offView && !grafted:
		o.announce(from, MethodDisconnect, wire.Empty{})
	case prune:
		o.announce(from, MethodPrune, wire.Empty{})
	}
	if len(rows) > 0 && o.replica != nil {
		if applied := o.replica.ApplyWire(rows); applied > 0 {
			o.mu.Lock()
			o.stats.RumorApplied += int64(applied)
			o.mu.Unlock()
		}
	}
	o.forward(fresh, from, tc)
}

// forward passes received writes on: rows to the eager peers, dots to the
// lazy ones, leaving out the peer they came from.
func (o *Overlay) forward(entries []rumorEntry, from netsim.Address, tc wire.TraceContext) {
	if len(entries) == 0 {
		return
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	eager, lazy := o.splitLocked(from)
	flush := o.queueIhavesLocked(lazy, entries)
	if len(eager) > 0 {
		o.stats.RumorsForwarded++
	}
	o.mu.Unlock()
	if flush {
		o.clock.AfterFunc(ihaveInterval, o.flushIhaves)
	}
	if len(eager) == 0 {
		return
	}
	// A single-entry push can keep riding its write's trace; mixed
	// batches have no one parent and go untraced.
	if len(entries) == 1 && o.tracer.On() {
		if parent, ok := o.objects.Lookup(entries[0].ID); ok {
			o.tracer.Event("gossip.forward", o.self.Site, parent, "",
				observe.Attr{Key: "object", Value: entries[0].ID})
			tc = parent
		}
	}
	o.push(eager, entries, tc)
}

// splitLocked divides the active view, less exclude, into eager peers —
// ordered by site — and lazy peers.
func (o *Overlay) splitLocked(exclude netsim.Address) (eager, lazy []Peer) {
	for _, p := range o.active {
		switch {
		case p.Addr == exclude:
		case o.lazy[p.Addr]:
			lazy = append(lazy, p)
		default:
			eager = append(eager, p)
		}
	}
	slices.SortFunc(eager, func(a, b Peer) int { return cmp.Compare(a.Site, b.Site) })
	return eager, lazy
}

// push sends every target the rows that answer the dots in one
// gossip.rumor announcement. The body is encoded once: rpc copies it into
// each frame and only reads it. A push leaves nothing behind at the
// sender — losing one is fine, anti-entropy is the repair path.
func (o *Overlay) push(targets []Peer, dots []rumorEntry, tc wire.TraceContext) {
	if len(targets) == 0 || o.replica == nil {
		return
	}
	ids := make([]string, len(dots))
	for i, d := range dots {
		ids[i] = d.ID
	}
	rows := o.replica.FetchWire(ids)
	if len(rows) == 0 {
		return
	}
	var opts []rpc.CallOption
	if !tc.IsZero() {
		opts = []rpc.CallOption{rpc.CallTrace(tc)}
	}
	buf := pushBufs.Get().(*[]byte)
	body := appendPush((*buf)[:0], dots, rows)
	for _, p := range targets {
		_ = o.ep.Announce(p.Addr, MethodRumor, body, opts...)
	}
	*buf = body[:0]
	pushBufs.Put(buf)
	o.mu.Lock()
	o.stats.EagerPushed += int64(len(rows) * len(targets))
	o.mu.Unlock()
}

// pushBufs holds the buffers push bodies are built in: rpc copies a body
// into each frame, so its buffer is free again once the fan-out returns.
var pushBufs = sync.Pool{New: func() any { return new([]byte) }}

// queueIhavesLocked queues dots for each lazy peer's next gossip.ihave and
// reports whether the caller must arm the flush.
func (o *Overlay) queueIhavesLocked(lazy []Peer, dots []rumorEntry) bool {
	for _, p := range lazy {
		o.ihaves[p.Addr] = append(o.ihaves[p.Addr], dots...)
	}
	if len(lazy) == 0 || o.flushArmed {
		return false
	}
	o.flushArmed = true
	return true
}

// flushIhaves sends every lazy peer the dots queued for it since the last
// flush, in one announcement each, in address order.
func (o *Overlay) flushIhaves() {
	o.mu.Lock()
	o.flushArmed = false
	if o.closed {
		o.mu.Unlock()
		return
	}
	queued := o.ihaves
	o.ihaves = make(map[netsim.Address][]rumorEntry, len(queued))
	o.stats.IhavesSent += int64(len(queued))
	o.mu.Unlock()
	for _, addr := range slices.Sorted(maps.Keys(queued)) {
		o.announce(addr, MethodIhave, ihaveReq{Entries: queued[addr]})
	}
}

// onIhave notes the dots a lazy peer announced that this member has not
// received, and grafts the ones still missing after graftTimeout.
func (o *Overlay) onIhave(from netsim.Address, entries []rumorEntry) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	offView := indexOf(o.active, from) < 0
	var missing []rumorEntry
	for _, e := range entries {
		if !o.haveLocked(e) {
			missing = append(missing, e)
		}
	}
	o.mu.Unlock()
	if offView {
		o.announce(from, MethodDisconnect, wire.Empty{})
	}
	if len(missing) > 0 {
		o.clock.AfterFunc(graftTimeout, func() { o.graft(from, missing) })
	}
}

// haveLocked reports whether the write a dot names has arrived, by a push,
// a graft or anti-entropy.
func (o *Overlay) haveLocked(e rumorEntry) bool {
	_, seen := o.seen[e.key()]
	return seen || (o.replica != nil && o.replica.HasSeen(e.ID, e.Site, e.Counter))
}

// graft pulls from the announcer at from the announced writes that have
// still not arrived and no other graft is pulling, and makes the link
// eager at both ends: the reply is taken as a push from it.
func (o *Overlay) graft(from netsim.Address, announced []rumorEntry) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	var want []rumorEntry
	for _, e := range announced {
		if k := e.key(); !o.haveLocked(e) && !o.grafting[k] {
			o.grafting[k] = true
			want = append(want, e)
		}
	}
	if len(want) == 0 {
		o.mu.Unlock()
		return
	}
	o.stats.Grafts++
	if indexOf(o.active, from) >= 0 {
		delete(o.lazy, from)
	}
	o.mu.Unlock()
	ids := make([]string, 0, len(want))
	for _, e := range want {
		if !slices.Contains(ids, e.ID) {
			ids = append(ids, e.ID)
		}
	}
	slices.Sort(ids)
	o.ep.GoMsg(from, MethodGraft, graftReq{IDs: ids}, func(res rpc.Result) {
		o.mu.Lock()
		for _, e := range want {
			delete(o.grafting, e.key())
		}
		o.mu.Unlock()
		var resp graftResp
		if err := res.Decode(&resp); err != nil {
			return // a later ihave, or anti-entropy, brings the write
		}
		var got []pushEntry
		for _, e := range want {
			for _, row := range resp.Objects {
				if row.ID == e.ID && row.VV.Counter(e.Site) >= e.Counter {
					got = append(got, pushEntry{Site: e.Site, Counter: e.Counter, Row: row})
					break
				}
			}
		}
		o.receive(wire.TraceContext{}, from, got, true)
	}, rpc.CallTimeout(DefaultTimeout))
}

// markSeenLocked records a rumor key, resetting the set at its cap —
// a reset only costs passing already-quiet writes on once more.
func (o *Overlay) markSeenLocked(k uint64, receipt uint64) {
	if len(o.seen) >= seenCap {
		o.seen = make(map[uint64]uint64)
	}
	o.seen[k] = receipt
}

// key is the rumor-dedup key: FNV-1a over the id, its length, the site
// and the counter, each integer as eight big-endian bytes.
func (e rumorEntry) key() uint64 {
	var n [16]byte
	binary.BigEndian.PutUint64(n[:8], uint64(len(e.ID)))
	binary.BigEndian.PutUint64(n[8:], e.Counter)
	return fnvMore(fnvMore(fnvMore(fnv64(e.ID), n[:8]), e.Site), n[8:])
}
