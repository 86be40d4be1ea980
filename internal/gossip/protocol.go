package gossip

import (
	"cmp"
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

type joinReq struct {
	Joiner Peer `json:"joiner"`
}

// joinResp bootstraps the joiner: the contact's identity plus a sample
// of its views.
type joinResp struct {
	Me      Peer   `json:"me"`
	Active  []Peer `json:"active,omitempty"`
	Passive []Peer `json:"passive,omitempty"`
}

type forwardJoinReq struct {
	Joiner Peer `json:"joiner"`
	TTL    int  `json:"ttl"`
}

type ack struct{}

type neighborReq struct {
	From Peer `json:"from"`
}

type neighborResp struct {
	Accepted bool `json:"accepted"`
}

type shuffleReq struct {
	From   Peer   `json:"from"`
	Sample []Peer `json:"sample"`
}

type shuffleResp struct {
	Sample []Peer `json:"sample"`
}

type probeReq struct {
	From Peer `json:"from"`
}

type probeResp struct {
	OK bool `json:"ok"`
}

// The rumor-plane messages below travel as the binary bodies in codec.go;
// the membership messages above stay JSON.

// rumorEntry announces one fresh write: enough for the receiver to
// decide whether it needs the row, without shipping the row itself. VV is
// the vector in vclock's binary form (see codec.go), decoded only by the
// member that sees the entry first.
type rumorEntry struct {
	ID string
	VV []byte
}

type rumorReq struct {
	From    Peer
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
	o.ep.MustRegister(MethodJoin, rpc.HandleJSON(func(_ netsim.Address, req joinReq) (joinResp, error) {
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
		o.addActive(req.Joiner, false)
		for _, p := range forwardTo {
			if p.Addr == req.Joiner.Addr {
				continue
			}
			o.ep.GoJSON(p.Addr, MethodForwardJoin, forwardJoinReq{Joiner: req.Joiner, TTL: DefaultWalkTTL},
				func(rpc.Result) {}, rpc.CallTimeout(DefaultTimeout))
		}
		o.arm(0)
		return resp, nil
	}))

	o.ep.MustRegister(MethodForwardJoin, rpc.HandleJSON(func(_ netsim.Address, req forwardJoinReq) (ack, error) {
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
			return ack{}, nil
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
				o.ep.GoJSON(next.Addr, MethodForwardJoin, forwardJoinReq{Joiner: req.Joiner, TTL: req.TTL - 1},
					func(rpc.Result) {}, rpc.CallTimeout(DefaultTimeout))
			}
		}
		return ack{}, nil
	}))

	o.ep.MustRegister(MethodNeighbor, rpc.HandleJSON(func(_ netsim.Address, req neighborReq) (neighborResp, error) {
		o.mu.Lock()
		o.stats.Neighbors++
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return neighborResp{}, errClosed
		}
		// Always accept: a symmetric link request outranks the weakest
		// current member (addActive evicts it to passive). Refusals would
		// need the requester to walk candidates, for little gain at the
		// scales the overlay targets.
		o.addActive(req.From, false)
		o.arm(0)
		return neighborResp{Accepted: true}, nil
	}))

	o.ep.MustRegister(MethodShuffle, rpc.HandleJSON(func(_ netsim.Address, req shuffleReq) (shuffleResp, error) {
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

	o.ep.MustRegister(MethodProbe, rpc.HandleJSON(func(_ netsim.Address, req probeReq) (probeResp, error) {
		o.mu.Lock()
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return probeResp{}, errClosed
		}
		o.addPassive(req.From)
		return probeResp{OK: true}, nil
	}))

	// A rumor is an announcement: the sender waits for nothing, so the
	// handler answers nothing.
	o.ep.MustRegister(MethodRumor, func(r rpc.Request) ([]byte, error) {
		var req rumorReq
		if err := req.UnmarshalBinary(r.Body); err != nil {
			return nil, err
		}
		o.handleRumor(r.Trace, req)
		return nil, nil
	})

	o.ep.MustRegister(MethodFetch, rpc.HandleJSON(func(_ netsim.Address, req fetchReq) (fetchResp, error) {
		if o.replica == nil {
			return fetchResp{}, nil
		}
		return fetchResp{Objects: o.replica.FetchWire(req.Site, req.IDs)}, nil
	}))
}

// --- rumor mongering -------------------------------------------------------

// Publish pushes a rumor for a fresh local write to the active view.
// rank, if non-nil, orders targets by placement interest for this
// object (higher first) — placed peers hear about hot spaces before
// bystanders do.
func (o *Overlay) Publish(id string, vv vclock.Version, rank func(site string) int) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	entry := rumorEntry{ID: id, VV: vv.AppendBinary(nil)}
	o.markSeenLocked(rumorKey(id, entry.VV))
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
	o.sendRumor(targets, rumorReq{From: o.self, TTL: DefaultTTL, Entries: []rumorEntry{entry}}, tc)
}

// handleRumor processes an incoming rumor. Entries this replica already
// holds are re-forwarded immediately with a decremented TTL; entries it
// lacks are pulled from the sender first and re-forwarded only once the
// rows actually landed — a forwarder must be able to serve the fetches
// its forwarding provokes, otherwise the epidemic dies at the first
// member whose pull raced its push. Entries whose pull fails are not
// re-forwarded; anti-entropy repairs that path.
func (o *Overlay) handleRumor(tc wire.TraceContext, req rumorReq) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.stats.RumorsSeen += int64(len(req.Entries))
	var have, want []rumorEntry
	for _, e := range req.Entries {
		k := rumorKey(e.ID, e.VV)
		if o.seen[k] {
			continue
		}
		o.markSeenLocked(k)
		if o.replica != nil {
			// First sighting: the one place the vector becomes a map.
			vv, _, err := vclock.DecodeVersion(e.VV)
			if err != nil {
				continue
			}
			if !o.replica.HasSeen(e.ID, vv) {
				want = append(want, e)
				continue
			}
		}
		have = append(have, e)
	}
	if len(want) > 0 {
		o.stats.RumorFetches++
	}
	o.mu.Unlock()
	o.addPassive(req.From)
	o.forwardRumor(have, req.TTL, req.From.Addr)
	if len(want) > 0 {
		ids := make([]string, len(want))
		for i, e := range want {
			ids[i] = e.ID
		}
		sort.Strings(ids)
		// The fetch continues the rumor's trace: tc is the serve-span
		// context of the incoming gossip.rumor rpc (zero when untraced).
		o.ep.GoJSON(req.From.Addr, MethodFetch, fetchReq{Site: o.self.Site, IDs: ids}, func(res rpc.Result) {
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
			o.forwardRumor(landed, req.TTL, req.From.Addr)
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
		o.sendRumor(targets, rumorReq{From: o.self, TTL: ttl - 1, Entries: entries}, tc)
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

// rumorKey folds an id and an encoded version vector into the dedup key.
func rumorKey(id string, vv []byte) uint64 {
	h := fnv64(id)
	for _, b := range vv {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
