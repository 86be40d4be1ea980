package gossip

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sort"

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
// request of join, neighbor and probe; forward-join, neighbor and probe are
// answered with wire.Empty.

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

type shuffleReq struct {
	From   Peer
	Sample []Peer
}

type shuffleResp struct {
	Sample []Peer
}

// rumorEntry announces one fresh write by its dot: the site that made it
// and the counter that site's entry of the row's vector reached with it —
// as exact a name as the whole vector, at a size independent of its width.
type rumorEntry struct {
	ID      string
	Site    string
	Counter uint64
}

// rumorReq is a gossip.rumor body. The sender is not in it: the frame's
// source address names it.
type rumorReq struct {
	TTL     int
	Entries []rumorEntry
}

type fetchReq struct {
	Site string
	IDs  []string
}

type fetchResp struct {
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
		// Admit the joiner and spread it across the overlay so other
		// members (which may be under their active target) can adopt it.
		forwardTo := o.ActiveView()
		o.addActive(joiner, false)
		for _, p := range forwardTo {
			if p.Addr == joiner.Addr {
				continue
			}
			o.ep.GoMsg(p.Addr, MethodForwardJoin, forwardJoinReq{Joiner: joiner, TTL: DefaultWalkTTL},
				func(rpc.Result) {}, rpc.CallTimeout(DefaultTimeout))
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
			// Room in the active view: adopt the joiner and tell it so.
			o.neighbor(req.Joiner, false, func(int) {})
		} else {
			o.addPassive(req.Joiner)
			if len(walk) > 0 {
				o.mu.Lock()
				next := walk[o.rng.Intn(len(walk))]
				o.mu.Unlock()
				o.ep.GoMsg(next.Addr, MethodForwardJoin, forwardJoinReq{Joiner: req.Joiner, TTL: req.TTL - 1},
					func(rpc.Result) {}, rpc.CallTimeout(DefaultTimeout))
			}
		}
		return wire.Empty{}, nil
	}))

	o.ep.MustRegister(MethodNeighbor, rpc.Handle(func(_ netsim.Address, from Peer) (wire.Empty, error) {
		o.mu.Lock()
		o.stats.Neighbors++
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return wire.Empty{}, errClosed
		}
		// Always accept: a symmetric link request outranks the weakest
		// current member (addActive evicts it to passive). Refusals would
		// need the requester to walk candidates, for little gain at the
		// scales the overlay targets.
		o.addActive(from, false)
		o.arm(0)
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
		o.mu.Unlock()
		if closed {
			return wire.Empty{}, errClosed
		}
		o.addPassive(from)
		return wire.Empty{}, nil
	}))

	// A rumor is an announcement: the sender waits for nothing, so the
	// handler answers nothing. The frame's source is the sender.
	o.ep.MustRegister(MethodRumor, func(r rpc.Request) ([]byte, error) {
		var req rumorReq
		if err := req.UnmarshalBinary(r.Body); err != nil {
			return nil, err
		}
		o.handleRumor(r.Trace, r.From, req)
		return nil, nil
	})

	o.ep.MustRegister(MethodFetch, rpc.Handle(func(_ netsim.Address, req fetchReq) (fetchResp, error) {
		if o.replica == nil {
			return fetchResp{}, nil
		}
		return fetchResp{Objects: o.replica.FetchWire(req.Site, req.IDs)}, nil
	}))
}

// --- rumor mongering -------------------------------------------------------

// Publish pushes a rumor for a fresh local write to the active view: the
// write's dot, this site's entry of vv, which the write has just ticked. A
// vector this site never ticked names no write of its own and publishes
// nothing — anti-entropy carries that row. rank, if non-nil, orders
// targets by placement interest for this object (higher first) — placed
// peers hear about hot spaces before bystanders do.
func (o *Overlay) Publish(id string, vv vclock.Version, rank func(site string) int) {
	entry := rumorEntry{ID: id, Site: o.self.Site, Counter: vv.Counter(o.self.Site)}
	o.mu.Lock()
	if o.closed || entry.Counter == 0 {
		o.mu.Unlock()
		return
	}
	o.markSeenLocked(entry.key())
	targets := o.rumorTargetsLocked("", rank)
	o.stats.RumorsPublished++
	o.mu.Unlock()
	// A tagged object's rumor rides the originating write's trace: the
	// publish is an instant span under it and every rumor rpc carries it.
	var tc wire.TraceContext
	if o.tracer.On() {
		if parent, ok := o.objects.Lookup(id); ok {
			o.tracer.Event("gossip.publish", o.self.Site, parent, "",
				observe.Attr{Key: "object", Value: id})
			tc = parent
		}
	}
	o.sendRumor(targets, rumorReq{TTL: DefaultTTL, Entries: []rumorEntry{entry}}, tc)
}

// handleRumor processes a rumor that arrived from the member at from.
// Entries this replica already holds are re-forwarded immediately with a
// decremented TTL; entries it lacks are pulled from the sender first and
// re-forwarded only once the rows actually landed — a forwarder must be
// able to serve the fetches its forwarding provokes, otherwise the
// epidemic dies at the first member whose pull raced its push. Entries
// whose pull fails are not re-forwarded; anti-entropy repairs that path.
func (o *Overlay) handleRumor(tc wire.TraceContext, from netsim.Address, req rumorReq) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.stats.RumorsSeen += int64(len(req.Entries))
	var have, want []rumorEntry
	for _, e := range req.Entries {
		k := e.key()
		if o.seen[k] {
			continue
		}
		o.markSeenLocked(k)
		if o.replica != nil && !o.replica.HasSeen(e.ID, e.Site, e.Counter) {
			want = append(want, e)
			continue
		}
		have = append(have, e)
	}
	if len(want) > 0 {
		o.stats.RumorFetches++
	}
	offView := indexOf(o.active, from) < 0
	if offView {
		o.stats.RumorsOffView++
	}
	known := !offView || indexOf(o.passive, from) >= 0
	o.mu.Unlock()
	if !known && o.contacts != nil {
		// A sender in neither view is a member this one has not met: the
		// advertised membership names it for the passive view.
		all := o.contacts()
		if i := indexOf(all, from); i >= 0 {
			o.addPassive(all[i])
		}
	}
	o.forwardRumor(have, req.TTL, from)
	if len(want) > 0 {
		ids := make([]string, len(want))
		for i, e := range want {
			ids[i] = e.ID
		}
		sort.Strings(ids)
		// The fetch continues the rumor's trace: tc is the serve-span
		// context of the incoming gossip.rumor rpc (zero when untraced).
		o.ep.GoMsg(from, MethodFetch, fetchReq{Site: o.self.Site, IDs: ids}, func(res rpc.Result) {
			var resp fetchResp
			if err := res.Decode(&resp); err != nil || o.replica == nil {
				return
			}
			if applied := o.replica.ApplyWire(resp.Objects); applied > 0 {
				o.mu.Lock()
				o.stats.RumorApplied += int64(applied)
				o.mu.Unlock()
				// Arm anti-entropy: the sync layer floods what the rumor
				// seeded to peers the rumor itself missed.
				o.replica.SyncSoon()
			}
			var landed []rumorEntry
			for _, e := range want {
				if slices.ContainsFunc(resp.Objects, func(obj *information.Object) bool { return obj.ID == e.ID }) {
					landed = append(landed, e)
				}
			}
			o.forwardRumor(landed, req.TTL, from)
		}, rpc.CallTimeout(DefaultTimeout), rpc.CallTrace(tc))
	}
}

// forwardRumor re-forwards entries this member can vouch for (it holds
// the rows) to the active view, excluding the peer they came from.
func (o *Overlay) forwardRumor(entries []rumorEntry, ttl int, from netsim.Address) {
	if len(entries) == 0 || ttl <= 0 {
		return
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	targets := o.rumorTargetsLocked(from, nil)
	if len(targets) > 0 {
		o.stats.RumorsForwarded++
	}
	o.mu.Unlock()
	if len(targets) > 0 {
		// A single-entry batch can keep riding its write's trace; mixed
		// batches have no one parent and go untraced.
		var tc wire.TraceContext
		if len(entries) == 1 && o.tracer.On() {
			if parent, ok := o.objects.Lookup(entries[0].ID); ok {
				o.tracer.Event("gossip.forward", o.self.Site, parent, "",
					observe.Attr{Key: "object", Value: entries[0].ID})
				tc = parent
			}
		}
		o.sendRumor(targets, rumorReq{TTL: ttl - 1, Entries: entries}, tc)
	}
}

// rumorTargetsLocked picks the peers one rumor goes to: the active view
// minus the sender, ordered by rank (placement interest) then site — the
// whole view, the deterministic-coverage choice.
func (o *Overlay) rumorTargetsLocked(exclude netsim.Address, rank func(site string) int) []Peer {
	out := make([]Peer, 0, len(o.active))
	for _, p := range o.active {
		if p.Addr != exclude {
			out = append(out, p)
		}
	}
	score := func(site string) int {
		if rank != nil {
			return rank(site)
		}
		return o.rank(site)
	}
	slices.SortFunc(out, func(a, b Peer) int {
		if c := cmp.Compare(score(b.Site), score(a.Site)); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	})
	return out
}

// sendRumor encodes req once and announces it to every target with the same
// body: rpc copies it into each frame and only reads it. A rumor is one frame
// per target and leaves nothing behind at the sender — losing one is fine,
// anti-entropy is the repair path.
func (o *Overlay) sendRumor(targets []Peer, req rumorReq, tc wire.TraceContext) {
	body, _ := req.AppendBinary(make([]byte, 0, req.size())) // never errs
	var opts []rpc.CallOption
	if !tc.IsZero() {
		opts = []rpc.CallOption{rpc.CallTrace(tc)}
	}
	for _, p := range targets {
		_ = o.ep.Announce(p.Addr, MethodRumor, body, opts...)
	}
}

// markSeenLocked records a rumor key, resetting the set at its cap —
// a reset only costs re-forwarding already-quiet rumors once.
func (o *Overlay) markSeenLocked(k uint64) {
	if len(o.seen) >= seenCap {
		o.seen = make(map[uint64]bool)
	}
	o.seen[k] = true
}

// key is the rumor-dedup key: FNV-1a over the id, its length, the site
// and the counter, each integer as eight big-endian bytes.
func (e rumorEntry) key() uint64 {
	var n [16]byte
	binary.BigEndian.PutUint64(n[:8], uint64(len(e.ID)))
	binary.BigEndian.PutUint64(n[8:], e.Counter)
	return fnvMore(fnvMore(fnvMore(fnv64(e.ID), n[:8]), e.Site), n[8:])
}
