package gossip

import (
	"cmp"
	"encoding"
	"encoding/binary"
	"errors"
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
	TTL    uint64
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

// dot names one write: the site that made it and the counter that site's
// entry of the row's vector reached with it — as exact a name as the whole
// vector, at a size independent of its width, and without the row's id: a
// site numbers all its writes with one counter.
type dot struct {
	Site    string
	Counter uint64
}

// rumorEntry is one fresh write as a member passes it on: its dot and the
// id of the row it was made on, which a push fetches.
type rumorEntry struct {
	ID      string
	Site    string
	Counter uint64
}

func (e rumorEntry) dot() dot { return dot{Site: e.Site, Counter: e.Counter} }

// pushEntry is one write of a gossip.rumor push: its dot and the row the
// sender holds for it, which answers the dot (the row's id is the dot's).
type pushEntry struct {
	Site    string
	Counter uint64
	Row     *information.Object
}

func (e pushEntry) dot() dot { return dot{Site: e.Site, Counter: e.Counter} }

func (e pushEntry) entry() rumorEntry {
	return rumorEntry{ID: e.Row.ID, Site: e.Site, Counter: e.Counter}
}

// rumorReq is a gossip.rumor body, and a graft's reply: the pushed writes.
// The sender is not in it: the frame's source address names it.
type rumorReq struct {
	Entries []pushEntry
}

// ihaveReq is a gossip.ihave body: the dots a lazy peer is told of.
type ihaveReq struct {
	Dots []dot
}

// graftReq is a gossip.graft body: the announced dots to pull.
type graftReq struct {
	Dots []dot
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
	o.ep.MustRegister(MethodRumor, o.handleRumor)
	o.ep.MustRegister(MethodIhave, o.handleIhave)

	o.ep.MustRegister(MethodPrune, rpc.Handle(func(from netsim.Address, _ wire.Empty) (wire.Empty, error) {
		o.mu.Lock()
		if indexOf(o.active, from) >= 0 {
			o.setLazyLocked(from, true)
		}
		o.mu.Unlock()
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodGraft, rpc.Handle(func(from netsim.Address, req graftReq) (rumorReq, error) {
		o.mu.Lock()
		if indexOf(o.active, from) >= 0 {
			o.setLazyLocked(from, false)
		}
		o.stats.RumorFetches++
		o.mu.Unlock()
		return rumorReq{Entries: o.graftRows(req.Dots)}, nil
	}))
}

// handleRumor serves a gossip.rumor push. The push decodes into pooled
// entries, given back once the receipt is done: only its rows outlive it.
func (o *Overlay) handleRumor(r rpc.Request) ([]byte, error) {
	sc := getScratch()
	defer sc.release()
	if err := sc.push.UnmarshalBinary(r.Body); err != nil {
		if o.replica != nil {
			o.replica.Refused(err)
		}
		return nil, err
	}
	o.receive(r.Trace, r.From, sc.push.Entries, false)
	return nil, nil
}

// handleIhave serves a gossip.ihave, decoding its dots into pooled
// storage.
func (o *Overlay) handleIhave(r rpc.Request) ([]byte, error) {
	sc := getScratch()
	defer sc.release()
	if err := sc.ihave.UnmarshalBinary(r.Body); err != nil {
		return nil, err
	}
	o.onIhave(r.From, sc.ihave.Dots)
	return nil, nil
}

// announce sends msg one-way: one frame, no reply, no timer. The body is
// built in a pooled buffer: rpc copies it into the frame.
func (o *Overlay) announce(to netsim.Address, method string, msg encoding.BinaryAppender) {
	sc := getScratch()
	sc.body, _ = msg.AppendBinary(sc.body) // never errs
	_ = o.ep.Announce(to, method, sc.body)
	sc.release()
}

// --- rumor mongering -------------------------------------------------------

// Publish spreads a fresh local write: its row to the eager peers, its
// dot — this site's entry of vv, which the write has just ticked — to the
// lazy ones. A vector this site never ticked names no write of its own and
// publishes nothing — anti-entropy carries that row; nor does a dot
// already published.
func (o *Overlay) Publish(id string, vv vclock.Version) {
	entry := rumorEntry{ID: id, Site: o.self.Site, Counter: vv.Counter(o.self.Site)}
	k := entry.dot().key()
	o.mu.Lock()
	if first, seen := o.seen[k]; o.closed || entry.Counter == 0 || (seen && first.id == id) {
		o.mu.Unlock()
		return
	}
	o.receipts++
	o.markSeenLocked(k, id, o.receipts)
	sp := o.splitLocked()
	if len(sp.eager)+len(sp.lazy) == 0 {
		o.mu.Unlock()
		return
	}
	o.stats.RumorsPublished++
	entries := []rumorEntry{entry}
	flush := o.queueIhavesLocked(sp.lazy, "", entries)
	o.mu.Unlock()
	if flush {
		o.clock.Schedule(ihaveInterval, o.flushFn)
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
	o.push(sp.eager, "", entries, tc)
}

// receive takes the entries a push from the member at from carried, or
// the rows a graft pulled from it. The first receipt of a dot applies its
// row, passes the write on and keeps the link eager at this end too, as a
// branch of the tree. A push of dots all seen before, each on the row it
// names, is a duplicate, and proves the link redundant — it turns lazy at
// this end, and one prune makes it lazy at the other — unless one of two
// races explains it:
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
// was never seen, so the write is passed on and the link stays eager; nor
// is a dot seen on another row, which a restarted site has issued again.
// Every dot the sender pushed leaves the ihave queued for it: it holds
// them. A sender outside the active view holds a link this end does not,
// and is told to drop it.
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
	sc := getScratch()
	defer sc.release()
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
		if first, seen := o.seen[k]; seen && first.id == e.Row.ID {
			redundant = redundant && first.receipt >= o.lastFresh[from]
			continue
		}
		o.markSeenLocked(k, e.Row.ID, receipt)
		sc.fresh = append(sc.fresh, e.entry())
		if !slices.Contains(sc.rows, e.Row) {
			sc.rows = append(sc.rows, e.Row)
		}
	}
	o.unqueueLocked(from, func(d dot) bool {
		return slices.ContainsFunc(entries, func(e pushEntry) bool { return e.dot() == d })
	})
	prune := len(sc.fresh) == 0 && len(entries) > 0 && redundant && !grafted && !offView
	switch {
	case prune:
		o.setLazyLocked(from, true)
		o.stats.Prunes++
	case len(sc.fresh) > 0 && !offView:
		o.setLazyLocked(from, false)
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
	if len(sc.rows) > 0 && o.replica != nil {
		if applied := o.replica.ApplyWire(sc.rows); applied > 0 {
			o.mu.Lock()
			o.stats.RumorApplied += int64(applied)
			o.mu.Unlock()
		}
	}
	o.forward(sc.fresh, from, tc)
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
	sp := o.splitLocked()
	flush := o.queueIhavesLocked(sp.lazy, from, entries)
	pushing := others(sp.eager, from) > 0
	if pushing {
		o.stats.RumorsForwarded++
	}
	o.mu.Unlock()
	if flush {
		o.clock.Schedule(ihaveInterval, o.flushFn)
	}
	if !pushing {
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
	o.push(sp.eager, from, entries, tc)
}

// viewSplit is the active view divided into eager peers, ordered by site,
// and lazy peers, in view order. A split is never written once built: a
// change to the view or to a link's mark drops it, and the next caller
// builds a new one, so a fan-out may read one after the lock is let go.
type viewSplit struct {
	eager, lazy []Peer
}

// splitLocked returns the current split of the active view, building it
// if the view or a mark changed since the last one.
func (o *Overlay) splitLocked() *viewSplit {
	if o.split != nil {
		return o.split
	}
	sp := &viewSplit{}
	for _, p := range o.active {
		if o.lazy[p.Addr] {
			sp.lazy = append(sp.lazy, p)
		} else {
			sp.eager = append(sp.eager, p)
		}
	}
	slices.SortFunc(sp.eager, func(a, b Peer) int { return cmp.Compare(a.Site, b.Site) })
	o.split = sp
	return sp
}

// setLazyLocked marks the link to addr lazy or eager, dropping the split
// only when the mark changes.
func (o *Overlay) setLazyLocked(addr netsim.Address, lazy bool) {
	if o.lazy[addr] == lazy {
		return
	}
	if lazy {
		o.lazy[addr] = true
	} else {
		delete(o.lazy, addr)
	}
	o.split = nil
}

// others counts the peers other than addr.
func others(peers []Peer, addr netsim.Address) int {
	if indexOf(peers, addr) >= 0 {
		return len(peers) - 1
	}
	return len(peers)
}

// push sends every target but skip the rows that answer the dots in one
// gossip.rumor announcement. The body is encoded once: rpc copies it into
// each frame and only reads it. A push leaves nothing behind at the
// sender — losing one is fine, anti-entropy is the repair path.
func (o *Overlay) push(targets []Peer, skip netsim.Address, dots []rumorEntry, tc wire.TraceContext) {
	n := others(targets, skip)
	if n == 0 || o.replica == nil {
		return
	}
	sc := getScratch()
	defer sc.release()
	for _, d := range dots {
		sc.ids = append(sc.ids, d.ID)
	}
	sc.rows = o.replica.FetchWire(sc.rows, sc.ids)
	if len(sc.rows) == 0 {
		return
	}
	var opts []rpc.CallOption
	if !tc.IsZero() {
		opts = []rpc.CallOption{rpc.CallTrace(tc)}
	}
	sc.body = appendPush(sc.body, dots, sc.rows)
	for _, p := range targets {
		if p.Addr != skip {
			_ = o.ep.Announce(p.Addr, MethodRumor, sc.body, opts...)
		}
	}
	o.mu.Lock()
	o.stats.EagerPushed += int64(len(sc.rows) * n)
	o.mu.Unlock()
}

// scratch is what one receipt, push, announcement or flush builds and
// drops: the writes first received and their rows, the ids a push fetches
// and the rows fetched, a decoded push or ihave, and the bodies rpc copies
// into each frame. It is pooled, so the rumor path keeps no garbage of its
// own.
type scratch struct {
	fresh []rumorEntry
	rows  []*information.Object
	ids   []string
	push  rumorReq
	ihave ihaveReq
	body  []byte
	to    []netsim.Address // a flush's lazy peers, in address order
	ends  []int            // where each one's ihave ends in body
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

// release empties the scratch, keeping its storage but no row or string,
// and puts it back.
func (sc *scratch) release() {
	clear(sc.fresh)
	clear(sc.rows)
	clear(sc.ids)
	clear(sc.push.Entries)
	clear(sc.ihave.Dots)
	sc.fresh, sc.rows, sc.ids = sc.fresh[:0], sc.rows[:0], sc.ids[:0]
	sc.push.Entries, sc.ihave.Dots = sc.push.Entries[:0], sc.ihave.Dots[:0]
	sc.body, sc.to, sc.ends = sc.body[:0], sc.to[:0], sc.ends[:0]
	scratches.Put(sc)
}

// queueIhavesLocked queues the writes' dots for each lazy peer but skip's
// next gossip.ihave and reports whether the caller must arm the flush.
func (o *Overlay) queueIhavesLocked(lazy []Peer, skip netsim.Address, entries []rumorEntry) bool {
	queued := false
	for _, p := range lazy {
		if p.Addr == skip {
			continue
		}
		q := o.ihaves[p.Addr]
		for _, e := range entries {
			q = append(q, e.dot())
		}
		o.ihaves[p.Addr] = q
		queued = true
	}
	if !queued || o.flushArmed {
		return false
	}
	o.flushArmed = true
	return true
}

// unqueueLocked takes from the ihave queued for peer every dot it has just
// shown it holds, by a push, an ihave or a graft's reply: telling it of
// them would only cost the bytes.
func (o *Overlay) unqueueLocked(peer netsim.Address, holds func(dot) bool) {
	q := o.ihaves[peer]
	if len(q) == 0 {
		return
	}
	kept := slices.DeleteFunc(q, holds)
	o.stats.IhaveSuppressed += int64(len(q) - len(kept))
	o.ihaves[peer] = kept
}

// flushIhaves sends every lazy peer the dots still queued for it since the
// last flush, in one announcement each, in address order. The bodies are
// encoded under the lock, so each queue is emptied, keeping its storage,
// only once its body holds its dots.
func (o *Overlay) flushIhaves() {
	o.mu.Lock()
	o.flushArmed = false
	if o.closed {
		o.mu.Unlock()
		return
	}
	sc := getScratch()
	defer sc.release()
	for addr, q := range o.ihaves {
		if len(q) > 0 {
			sc.to = append(sc.to, addr)
		}
	}
	slices.Sort(sc.to)
	for _, addr := range sc.to {
		q := o.ihaves[addr]
		sc.body, _ = ihaveReq{Dots: q}.AppendBinary(sc.body) // never errs
		sc.ends = append(sc.ends, len(sc.body))
		o.stats.IhaveDots += int64(len(q))
		o.ihaves[addr] = q[:0]
	}
	o.stats.IhavesSent += int64(len(sc.to))
	o.mu.Unlock()
	start := 0
	for i, addr := range sc.to {
		end := sc.ends[i]
		_ = o.ep.Announce(addr, MethodIhave, sc.body[start:end:end])
		start = end
	}
}

// onIhave notes the dots a lazy peer announced that this member has not
// received, and grafts the ones still missing after graftTimeout. The
// announcer holds every one of them, so none stays queued for it.
func (o *Overlay) onIhave(from netsim.Address, dots []dot) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	offView := indexOf(o.active, from) < 0
	o.unqueueLocked(from, func(d dot) bool { return slices.Contains(dots, d) })
	var missing []dot
	for _, d := range dots {
		if !o.haveLocked(d) {
			missing = append(missing, d)
		}
	}
	if len(missing) > 0 {
		o.graftChecks = append(o.graftChecks, graftCheck{from: from, dots: missing})
	}
	o.mu.Unlock()
	if offView {
		o.announce(from, MethodDisconnect, wire.Empty{})
	}
	if len(missing) > 0 {
		o.clock.Schedule(graftTimeout, o.graftFn)
	}
}

// graftCheck is the dots an ihave from the announcer at from named that
// had not arrived.
type graftCheck struct {
	from netsim.Address
	dots []dot
}

// graftDue grafts the oldest graft check. Every check arms one timer of
// graftTimeout, so the oldest check has waited at least that long when
// any of them fires — and on the simulated clock, which fires equal
// deadlines in the order they were armed, the check is the timer's own.
func (o *Overlay) graftDue() {
	o.mu.Lock()
	c := o.graftChecks[0]
	o.graftChecks[0] = graftCheck{}
	o.graftChecks = o.graftChecks[1:]
	o.mu.Unlock()
	o.graft(c.from, c.dots)
}

// idLocked names the row that holds the write d names: the one the dedup
// set recorded it on, or, once seenCap has reset the set, the one the
// replica's index files it under. A write a later one of the same site
// superseded on its row is named only by the dedup set.
func (o *Overlay) idLocked(d dot) (string, bool) {
	if first, seen := o.seen[d.key()]; seen {
		return first.id, true
	}
	if o.replica == nil {
		return "", false
	}
	return o.replica.DotID(d.Site, d.Counter)
}

// haveLocked reports whether the write a dot names has arrived, by a push,
// a graft or anti-entropy.
func (o *Overlay) haveLocked(d dot) bool {
	_, ok := o.idLocked(d)
	return ok
}

// graftRows answers a graft: each dot this member can name a row for,
// with the row it holds. A dot it cannot name is left out.
func (o *Overlay) graftRows(dots []dot) []pushEntry {
	if o.replica == nil {
		return nil
	}
	named := make([]dot, 0, len(dots))
	ids := make([]string, 0, len(dots))
	o.mu.Lock()
	for _, d := range dots {
		if id, ok := o.idLocked(d); ok {
			named = append(named, d)
			ids = append(ids, id)
		}
	}
	o.mu.Unlock()
	// FetchWire returns the rows it holds of ids in their order.
	rows := o.replica.FetchWire(nil, ids)
	var out []pushEntry
	r := 0
	for i, d := range named {
		if r < len(rows) && rows[r].ID == ids[i] {
			out = append(out, pushEntry{Site: d.Site, Counter: d.Counter, Row: rows[r]})
			r++
		}
	}
	return out
}

// graft pulls from the announcer at from the announced writes that have
// still not arrived and no other graft is pulling, and makes the link
// eager at both ends: the reply is taken as a push from it.
func (o *Overlay) graft(from netsim.Address, announced []dot) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	var want []dot
	for _, d := range announced {
		if k := d.key(); !o.haveLocked(d) && !o.grafting[k] {
			o.grafting[k] = true
			want = append(want, d)
		}
	}
	if len(want) == 0 {
		o.mu.Unlock()
		return
	}
	o.stats.Grafts++
	if indexOf(o.active, from) >= 0 {
		o.setLazyLocked(from, false)
	}
	o.mu.Unlock()
	o.ep.GoMsg(from, MethodGraft, graftReq{Dots: want}, func(res rpc.Result) {
		o.mu.Lock()
		for _, d := range want {
			delete(o.grafting, d.key())
		}
		o.mu.Unlock()
		var resp rumorReq
		if err := res.Decode(&resp); err != nil {
			if o.replica != nil {
				o.replica.Refused(err) // it counts a decoder's refusal, not a timeout
			}
			return // a later ihave, or anti-entropy, brings the write
		}
		got := slices.DeleteFunc(resp.Entries, func(e pushEntry) bool {
			return !slices.Contains(want, e.dot()) || e.Row.VV.Counter(e.Site) < e.Counter
		})
		o.receive(wire.TraceContext{}, from, got, true)
	}, rpc.CallTimeout(DefaultTimeout))
}

// seenWrite is what the dedup set keeps of a dot: the id of the row it was
// received or published on, and the receipt number of a pushed first copy
// (0 if grafted).
type seenWrite struct {
	id      string
	receipt uint64
}

// markSeenLocked records a dot by its key, resetting the set at its cap —
// a reset only costs passing already-quiet writes on once more.
func (o *Overlay) markSeenLocked(k uint64, id string, receipt uint64) {
	if len(o.seen) >= seenCap {
		o.seen = make(map[uint64]seenWrite)
	}
	o.seen[k] = seenWrite{id: id, receipt: receipt}
}

// key is the rumor-dedup key: FNV-1a over the site's length, the site and
// the counter, each integer as eight big-endian bytes.
func (d dot) key() uint64 {
	var n [16]byte
	binary.BigEndian.PutUint64(n[:8], uint64(len(d.Site)))
	binary.BigEndian.PutUint64(n[8:], d.Counter)
	return fnvMore(fnvMore(fnvMore(fnv64(""), n[:8]), d.Site), n[8:])
}
