// Package gossip implements the epidemic overlay that lets a deployment
// scale past the full-mesh site peering: instead of every site syncing
// with every other site (O(n²) channels, offers, and per-peer Merkle
// trees), each site maintains a small partial view of the membership —
// HyParView-style — and runs anti-entropy only against that view, while
// fresh writes race ahead of the sync rounds as rumors.
//
// Three mechanisms cooperate:
//
//   - Partial-view membership. Each overlay keeps an active view of
//     ~⌈log₂ n⌉+c peers (the sites it actually syncs with) plus a larger
//     passive view of known-but-unused peers. The views are maintained by
//     join / forward-join / neighbor / shuffle / probe messages that ride
//     the ordinary rpc channel stack, so membership traffic is traced,
//     counted and fault-injectable like everything else. Peers are
//     discovered through trader offers (one "gossip-membership" offer per
//     live site), so membership is just another rules-over-offers
//     service. One active slot is pinned to the site's successor on the
//     sorted ring of advertised sites — a deterministic connectivity
//     backstop that keeps the union of active views a connected graph,
//     which is what makes drain-to-convergence a guarantee rather than a
//     probability.
//
//   - Rumor mongering. A fresh local write publishes a small rumor
//     (object id + version vector) to the active view with a hop-count
//     TTL. A rumor is an announcement: one frame per target, no reply, no
//     timeout, nothing kept at the sender. A receiver that has not seen
//     the version pulls the row from the rumor's sender (gossip.fetch),
//     applies it, arms its own anti-entropy round, and re-forwards the
//     rumor — so hot updates cover the overlay in O(log n) hops without
//     waiting for sync intervals, and anti-entropy remains the repair
//     path rather than the propagation path: a lost rumor is one it
//     repairs.
//
//   - View-scoped anti-entropy. The Replicator's peer set is driven by
//     the active view through the OnChange callback: peers entering the
//     view are added (and synced immediately — view churn re-arms
//     rounds), peers leaving are removed, which also releases their
//     placement-scoped Merkle trees. Placement interest biases both
//     promotion from the passive view and rumor target ordering, so
//     sites gossip hot spaces with placed peers first.
//
// The overlay is simulation-first like the replicator: all timers ride
// the injected clock, maintenance rounds are event-armed (join, view
// churn, Mend after a heal) and go dormant after a few quiet rounds or a
// run of failing ones, so a deployment drains to quiescence.
package gossip

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// RPC method names of the overlay protocol.
const (
	// MethodJoin introduces a new site to a contact: the contact admits
	// the joiner to its active view, spreads the joiner via forward-join,
	// and answers with a view sample the joiner bootstraps from.
	MethodJoin = "gossip.join"
	// MethodForwardJoin spreads a joiner across the overlay on a
	// TTL-limited walk; receivers with spare active capacity adopt it.
	MethodForwardJoin = "gossip.forward-join"
	// MethodNeighbor asks a peer to establish a symmetric active-view
	// link (promotion from the passive view, ring pinning, heal mends).
	MethodNeighbor = "gossip.neighbor"
	// MethodShuffle exchanges passive-view samples between two peers.
	MethodShuffle = "gossip.shuffle"
	// MethodProbe is the liveness check run against the active view.
	MethodProbe = "gossip.probe"
	// MethodRumor announces fresh-write rumors (id + version vector, TTL);
	// it is one-way (rpc.Endpoint.Announce) and has no reply.
	MethodRumor = "gossip.rumor"
	// MethodFetch pulls the rows behind a rumor from its sender.
	MethodFetch = "gossip.fetch"
)

// Trader vocabulary: each live site exports one membership offer, so the
// overlay discovers contacts the same way placement discovers holders.
const (
	// ServiceType is the trader service type of membership offers.
	ServiceType = "gossip-membership"
	// SiteProp is the offer property naming the advertising site.
	SiteProp = "gossip-site"
	// ReplProp is the offer property carrying the site's replication
	// endpoint address (the anti-entropy partner for this gossip peer).
	ReplProp = "gossip-repl"
)

// OfferID is the trader offer id a site advertises membership under.
func OfferID(site string) string { return "gossip-" + site }

// Tunables.
const (
	// DefaultInterval separates stabilization rounds while armed.
	DefaultInterval = 2 * time.Second
	// DefaultTimeout bounds each overlay rpc so a dead peer degrades the
	// round instead of stalling it.
	DefaultTimeout = 800 * time.Millisecond
	// DefaultTTL is the rumor hop budget — enough for the active-view
	// graph's diameter at 10³ sites.
	DefaultTTL = 6
	// DefaultWalkTTL is the forward-join walk length.
	DefaultWalkTTL = 3
	// DefaultQuietCap is how many consecutive no-change stabilization
	// rounds run before the overlay goes dormant until re-armed.
	DefaultQuietCap = 2
	// DefaultFailureCap is how many consecutive failing rounds run before
	// the overlay goes dormant (an unreachable ring successor or a
	// partition must not spin the event loop forever).
	DefaultFailureCap = 5
	// shuffleLen is how many peers one shuffle carries each way.
	shuffleLen = 8
	// seenCap bounds the rumor-dedup set; past it the set resets (stale
	// rumors are still cheap: HasSeen keeps them from re-applying).
	seenCap = 8192
)

// Peer identifies one overlay member: its site name, its gossip endpoint
// and its replication endpoint (what the anti-entropy layer peers with).
type Peer struct {
	Site string
	Addr netsim.Address
	Repl netsim.Address
}

// Replica is the slice of the replication layer the overlay needs: rumor
// staleness checks, the pull half of rumor mongering, and round arming.
// *replica.Replicator implements it.
type Replica interface {
	// HasSeen reports whether the local replica already holds id at a
	// version dominating vv.
	HasSeen(id string, vv vclock.Version) bool
	// FetchWire returns the named rows for a gossip.fetch reply,
	// placement-scoped to the requesting site.
	FetchWire(forSite string, ids []string) []*information.Object
	// ApplyWire merges fetched rows, returning how many changed state.
	ApplyWire(objs []*information.Object) int
	// SyncSoon arms an anti-entropy round — rumor applies kick it so the
	// sync layer floods what rumors seeded.
	SyncSoon()
}

// Stats counts overlay activity. ActiveSize/PassiveSize are gauges
// snapshotted by Stats().
type Stats struct {
	Rounds          int64 `metric:"rounds"` // stabilization rounds run
	Joins           int64 // join requests served
	ForwardJoins    int64 // forward-join walks served
	Neighbors       int64 // neighbor requests served
	Shuffles        int64 // shuffle exchanges completed (either side)
	Probes          int64 // probes answered by live peers
	ProbeFailures   int64 // probes that timed out or errored
	Promotions      int64 // passive→active promotions
	Demotions       int64 // active→passive demotions (failure or eviction)
	RumorsPublished int64 `metric:"rumors_published"` // locally-originated rumor sends
	RumorsForwarded int64 `metric:"rumors_forwarded"` // rumor re-forwards
	RumorsSeen      int64 `metric:"rumors_seen"`      // rumor entries received (fresh or duplicate)
	RumorFetches    int64 `metric:"rumor_fetches"`    // fetch pulls issued for rumored rows
	RumorApplied    int64 `metric:"rumor_applied"`    // rows rumor fetches changed local state with

	ActiveSize  int `metric:"active_view,gauge"`  // current active view size
	PassiveSize int `metric:"passive_view,gauge"` // current passive view size
}

// Option configures an Overlay.
type Option func(*Overlay)

// WithSeed derives the overlay's private PRNG (shuffle sampling,
// eviction tie-breaks) from the deployment seed; the site name is mixed
// in so overlays of one deployment do not move in lockstep.
func WithSeed(seed int64) Option { return func(o *Overlay) { o.seed = seed } }

// WithContacts installs the membership directory: the full list of
// advertised peers (self included is fine), typically resolved from
// trader offers. It is consulted for the bootstrap contact and the ring
// successor.
func WithContacts(fn func() []Peer) Option { return func(o *Overlay) { o.contacts = fn } }

// WithBias installs the placement-interest bias: higher-ranked sites are
// preferred when promoting from the passive view and ordered first among
// rumor targets, so hot spaces gossip with placed peers first.
func WithBias(fn func(site string) int) Option { return func(o *Overlay) { o.bias = fn } }

// WithTelemetry attaches the deployment telemetry plane: rumor publishes
// and forwards for a tagged object ride under the originating write's
// trace (an instant gossip.publish/gossip.forward span plus the context
// stamped on the rumor and fetch rpcs), so epidemic propagation shows up
// in the same trace as the write that seeded it.
func WithTelemetry(tel *observe.Telemetry) Option {
	return func(o *Overlay) {
		if tel != nil {
			o.tracer = tel.Tracer
			o.objects = tel.Objects
		}
	}
}

// WithOnChange installs the active-view churn callback — how the
// replication layer's peer set follows the overlay. It runs outside the
// overlay lock.
func WithOnChange(fn func(added, removed []Peer)) Option {
	return func(o *Overlay) { o.onChange = fn }
}

// Overlay is one site's membership agent: it serves the overlay protocol
// and runs event-armed stabilization rounds against its partial views.
type Overlay struct {
	ep       *rpc.Endpoint
	clock    vclock.Clock
	self     Peer
	replica  Replica
	contacts func() []Peer
	bias     func(site string) int
	onChange func(added, removed []Peer)
	tracer   *observe.Tracer
	objects  *observe.ObjectTraces

	seed int64

	mu          sync.Mutex
	rng         *rand.Rand
	active      []Peer
	passive     []Peer
	ring        netsim.Address // pinned ring-successor, eviction-exempt
	ringSkip    int            // ring-order index the last successful walk pinned
	seen        map[uint64]bool
	closed      bool
	armed       bool
	running     bool
	want        bool
	viewVersion uint64 // bumped on every active-view change
	targetCache int    // last activeTarget() result, for locked paths
	quiet       int
	consecFail  int
	stats       Stats
}

// New binds an overlay to its endpoint and registers the protocol
// handlers. site/replAddr identify this member to its peers; replica may
// be nil (membership-only overlays, e.g. in unit tests).
func New(ep *rpc.Endpoint, clock vclock.Clock, site string, replAddr netsim.Address, replica Replica, opts ...Option) *Overlay {
	o := &Overlay{
		ep:      ep,
		clock:   clock,
		self:    Peer{Site: site, Addr: ep.Addr(), Repl: replAddr},
		replica: replica,
		seed:    1,
		seen:    make(map[uint64]bool),
	}
	for _, opt := range opts {
		opt(o)
	}
	o.rng = rand.New(rand.NewSource(o.seed ^ int64(fnv64(site))))
	o.register()
	return o
}

// Self returns this overlay's own peer identity.
func (o *Overlay) Self() Peer { return o.self }

// Stats snapshots the counters plus the view-size gauges.
func (o *Overlay) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.stats
	out.ActiveSize = len(o.active)
	out.PassiveSize = len(o.passive)
	return out
}

// ActiveView returns the current active view, sorted by site.
func (o *Overlay) ActiveView() []Peer {
	o.mu.Lock()
	out := append([]Peer(nil), o.active...)
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// PassiveView returns the current passive view, sorted by site.
func (o *Overlay) PassiveView() []Peer {
	o.mu.Lock()
	out := append([]Peer(nil), o.passive...)
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Close marks the overlay dead: handlers stop mutating state and armed
// rounds fall through. Used when a site crashes.
func (o *Overlay) Close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
}

// activeTarget is the active-view size the overlay stabilizes toward:
// ⌈log₂ n⌉+2 over the advertised membership (minimum 3 — tiny
// deployments still want redundancy). The result is cached so locked
// code paths (eviction) agree with unlocked ones (deficit fill) on the
// same target — a disagreement would churn promote/evict forever.
func (o *Overlay) activeTarget() int {
	n := 0
	if o.contacts != nil {
		n = len(o.contacts())
	}
	t := ilog2(n) + 2
	if t < 3 {
		t = 3
	}
	o.mu.Lock()
	o.targetCache = t
	o.mu.Unlock()
	return t
}

// ringOrder lists the advertised membership in ring order starting just
// after self: successors first, then the wrap-around back toward self.
// Index 0 is the true ring successor; later indexes are the fallbacks a
// partition makes ensureRing walk to.
func (o *Overlay) ringOrder() []Peer {
	if o.contacts == nil {
		return nil
	}
	all := o.contacts()
	sort.Slice(all, func(i, j int) bool { return all[i].Site < all[j].Site })
	var after, before []Peer
	for _, p := range all {
		switch {
		case p.Addr == o.self.Addr:
		case p.Site > o.self.Site:
			after = append(after, p)
		default:
			before = append(before, p)
		}
	}
	return append(after, before...)
}

// Join bootstraps this overlay into the advertised membership: it sends
// gossip.join to a seeded-random advertised contact, adopts the
// contact's view sample, and arms stabilization. The contact is random
// rather than the ring successor on purpose: sites join one at a time,
// and early in a rollout every new site's ring successor wraps to the
// same first site — a hot spot that would accumulate O(n) channels on
// one member. Random contacts spread join load ~ln n per site; the ring
// slot is still pinned by the first stabilization round. A lone first
// site has no contact and simply stays armed for later joiners.
func (o *Overlay) Join() {
	candidates := o.ringOrder()
	if len(candidates) == 0 {
		return
	}
	o.mu.Lock()
	contact := candidates[o.rng.Intn(len(candidates))]
	o.mu.Unlock()
	o.ep.GoMsg(contact.Addr, MethodJoin, o.self, func(res rpc.Result) {
		var resp joinResp
		if err := res.Decode(&resp); err != nil {
			// Contact unreachable: stabilization will retry promotion from
			// whatever the trader advertises.
			o.arm(0)
			return
		}
		o.addActive(resp.Me, true)
		for _, p := range resp.Active {
			o.addPassive(p)
		}
		for _, p := range resp.Passive {
			o.addPassive(p)
		}
		o.arm(0)
	}, rpc.CallTimeout(DefaultTimeout))
}

// Mend re-knits the overlay after a partition heals: the ring successor
// is re-pinned (stabilization re-probes demoted peers and refills the
// view from the passive candidates the partition left behind) and rounds
// re-arm even if the overlay went dormant on its failure cap.
func (o *Overlay) Mend() {
	o.mu.Lock()
	o.consecFail = 0
	o.quiet = 0
	o.ringSkip = 0 // re-pin the true successor now the cut is gone
	o.mu.Unlock()
	o.arm(0)
}

// Suspect arms a stabilization round on outside evidence of peer
// failure — the replication layer calls it when a sync round fails, so a
// partition the dormant overlay cannot see still triggers probing,
// demotion of unreachable peers and a ring re-walk. The failure budget
// resets: new evidence deserves a new budget (dormancy re-caps after
// DefaultFailureCap failing rounds from here).
func (o *Overlay) Suspect() {
	o.mu.Lock()
	o.consecFail = 0
	o.quiet = 0
	o.mu.Unlock()
	o.arm(0)
}

// --- view mutation ---------------------------------------------------------

// indexOf finds addr in a view.
func indexOf(view []Peer, addr netsim.Address) int {
	for i, p := range view {
		if p.Addr == addr {
			return i
		}
	}
	return -1
}

// addActive admits p to the active view, evicting the weakest member to
// the passive view when full (the pinned ring peer and p itself are
// eviction-exempt). pin additionally marks p as the ring successor.
// Fires onChange outside the lock. Returns false if p was already there
// (or is self).
func (o *Overlay) addActive(p Peer, pin bool) bool {
	if p.Addr == o.self.Addr || p.Addr == "" {
		return false
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	if pin {
		o.ring = p.Addr
	}
	if indexOf(o.active, p.Addr) >= 0 {
		o.mu.Unlock()
		return false
	}
	if i := indexOf(o.passive, p.Addr); i >= 0 {
		o.passive = append(o.passive[:i], o.passive[i+1:]...)
	}
	var evicted []Peer
	target := o.activeTargetLocked()
	o.active = append(o.active, p)
	for len(o.active) > target {
		v := o.evictionVictimLocked(p.Addr)
		if v < 0 {
			break
		}
		victim := o.active[v]
		o.active = append(o.active[:v], o.active[v+1:]...)
		o.addPassiveLocked(victim)
		o.stats.Demotions++
		evicted = append(evicted, victim)
	}
	o.viewVersion++
	o.mu.Unlock()
	if o.onChange != nil {
		o.onChange([]Peer{p}, evicted)
	}
	return true
}

// activeTargetLocked is the locked view of activeTarget: it cannot call
// contacts (user code) under the lock, so it reads the cache the last
// activeTarget call left behind.
func (o *Overlay) activeTargetLocked() int {
	if o.targetCache > 0 {
		return o.targetCache
	}
	return 3
}

// evictionVictimLocked picks the active member to demote: lowest
// placement bias, site-name tie-break — never the pinned ring successor
// or the just-added peer.
func (o *Overlay) evictionVictimLocked(keep netsim.Address) int {
	best := -1
	for i, p := range o.active {
		if p.Addr == o.ring || p.Addr == keep {
			continue
		}
		if best < 0 || o.rank(p.Site) < o.rank(o.active[best].Site) ||
			(o.rank(p.Site) == o.rank(o.active[best].Site) && p.Site > o.active[best].Site) {
			best = i
		}
	}
	return best
}

func (o *Overlay) rank(site string) int {
	if o.bias == nil {
		return 0
	}
	return o.bias(site)
}

// removeActive drops addr from the active view (probe failure), moving
// it to the passive view so a later heal can promote it back.
func (o *Overlay) removeActive(addr netsim.Address) {
	o.mu.Lock()
	i := indexOf(o.active, addr)
	if i < 0 || o.closed {
		o.mu.Unlock()
		return
	}
	p := o.active[i]
	o.active = append(o.active[:i], o.active[i+1:]...)
	o.addPassiveLocked(p)
	o.stats.Demotions++
	o.viewVersion++
	o.mu.Unlock()
	if o.onChange != nil {
		o.onChange(nil, []Peer{p})
	}
}

// addPassive records p as a known-but-unused peer.
func (o *Overlay) addPassive(p Peer) {
	o.mu.Lock()
	if !o.closed {
		o.addPassiveLocked(p)
	}
	o.mu.Unlock()
}

func (o *Overlay) addPassiveLocked(p Peer) {
	if p.Addr == o.self.Addr || p.Addr == "" {
		return
	}
	if indexOf(o.active, p.Addr) >= 0 || indexOf(o.passive, p.Addr) >= 0 {
		return
	}
	if max := o.passiveTargetLocked(); len(o.passive) >= max {
		// Evict a random passive entry — HyParView's choice; the rng keeps
		// it deterministic per seed.
		o.passive[o.rng.Intn(len(o.passive))] = p
		return
	}
	o.passive = append(o.passive, p)
}

// passiveTargetLocked is the passive-view cap: 3×active+6.
func (o *Overlay) passiveTargetLocked() int {
	return 3*o.activeTargetLocked() + 6
}

// dropPassive removes a candidate that failed promotion.
func (o *Overlay) dropPassive(addr netsim.Address) {
	o.mu.Lock()
	if i := indexOf(o.passive, addr); i >= 0 {
		o.passive = append(o.passive[:i], o.passive[i+1:]...)
	}
	o.mu.Unlock()
}

// --- stabilization ---------------------------------------------------------

// arm schedules a stabilization round d from now (d < 0: one interval).
// Requests arriving while a round is armed or running are absorbed.
func (o *Overlay) arm(d time.Duration) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.want = true
	if o.armed || o.running {
		o.mu.Unlock()
		return
	}
	o.armed = true
	if d < 0 {
		d = DefaultInterval
	}
	o.mu.Unlock()
	o.clock.AfterFunc(d, o.round)
}

// round runs one stabilization pass: re-pin the ring successor, probe
// the active view, refill it from the passive view, shuffle once — all
// sequentially, so rounds are deterministic.
func (o *Overlay) round() {
	o.activeTarget() // refresh the target cache from the advertised membership
	o.mu.Lock()
	o.armed = false
	if o.running || o.closed {
		o.mu.Unlock()
		return
	}
	o.running = true
	o.want = false
	o.stats.Rounds++
	v0 := o.viewVersion
	failed0 := o.stats.ProbeFailures
	targets := append([]Peer(nil), o.active...)
	o.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].Addr < targets[j].Addr })

	o.ensureRing(func(failures int) {
		o.probeAll(targets, 0, failures, func(failures int) {
			o.fillDeficit(0, failures, func(failures int) {
				o.shuffleOnce(failures, func(failures int) {
					o.roundDone(v0, failed0, failures)
				})
			})
		})
	})
}

// roundDone decides whether to re-arm: an explicit request arrived
// mid-round, the active view changed, or the round failed with failure
// budget remaining. Quiet rounds accumulate toward dormancy.
func (o *Overlay) roundDone(v0 uint64, failed0 int64, failures int) {
	o.mu.Lock()
	o.running = false
	changed := o.viewVersion != v0 || o.stats.ProbeFailures != failed0 || failures > 0
	if failures > 0 || o.stats.ProbeFailures != failed0 {
		o.consecFail++
	} else {
		o.consecFail = 0
	}
	if changed {
		o.quiet = 0
	} else {
		o.quiet++
	}
	rearm := o.want ||
		(changed && o.consecFail < DefaultFailureCap && o.quiet < DefaultQuietCap)
	o.mu.Unlock()
	if rearm {
		o.arm(-1)
	}
}

// ensureRing re-pins the ring successor: if the advertised membership
// names a successor not currently in the active view, ask it to be a
// neighbor. A crashed successor's offer is withdrawn, so the ring heals
// around it; a *partitioned* successor is still advertised, so on
// failure the walk continues to the next site in ring order until a
// reachable one accepts — each partition component thereby forms its own
// ring, which is what keeps convergence deterministic under a cut.
// ringSkip remembers where the last walk succeeded so later rounds skip
// straight past the unreachable prefix; Mend resets it.
func (o *Overlay) ensureRing(done func(failures int)) {
	order := o.ringOrder()
	if len(order) == 0 {
		done(0)
		return
	}
	o.mu.Lock()
	idx := o.ringSkip
	if idx >= len(order) {
		idx = 0
	}
	o.mu.Unlock()
	o.ringWalk(order, idx, 0, done)
}

func (o *Overlay) ringWalk(order []Peer, idx, failures int, done func(failures int)) {
	if idx >= len(order) {
		// Nobody in ring order is reachable; give the failure budget the
		// bad news and let dormancy take over.
		done(failures)
		return
	}
	cand := order[idx]
	o.mu.Lock()
	have := indexOf(o.active, cand.Addr) >= 0
	if have {
		o.ring = cand.Addr
		o.ringSkip = idx
	}
	o.mu.Unlock()
	if have {
		done(failures)
		return
	}
	o.neighbor(cand, true, func(f int) {
		if f == 0 {
			o.mu.Lock()
			o.ringSkip = idx
			o.mu.Unlock()
			done(failures)
			return
		}
		o.ringWalk(order, idx+1, failures+f, done)
	})
}

// neighbor asks p for a symmetric active link; on accept p joins the
// active view (pinned if this is the ring slot).
func (o *Overlay) neighbor(p Peer, pin bool, done func(failures int)) {
	o.ep.GoMsg(p.Addr, MethodNeighbor, o.self, func(res rpc.Result) {
		if err := res.Decode(&wire.Empty{}); err != nil {
			o.dropPassive(p.Addr)
			done(1)
			return
		}
		// An answer is an acceptance: the peer always accepts.
		o.mu.Lock()
		o.stats.Promotions++
		o.mu.Unlock()
		o.addActive(p, pin)
		done(0)
	}, rpc.CallTimeout(DefaultTimeout))
}

// probeAll pings the snapshot of the active view sequentially; a failed
// probe demotes the peer to the passive view (a partitioned peer is a
// future candidate, not a corpse).
func (o *Overlay) probeAll(targets []Peer, i, failures int, done func(failures int)) {
	if i >= len(targets) {
		done(failures)
		return
	}
	p := targets[i]
	o.ep.GoMsg(p.Addr, MethodProbe, o.self, func(res rpc.Result) {
		if err := res.Decode(&wire.Empty{}); err != nil {
			o.mu.Lock()
			o.stats.ProbeFailures++
			o.mu.Unlock()
			o.removeActive(p.Addr)
		} else {
			o.mu.Lock()
			o.stats.Probes++
			o.mu.Unlock()
		}
		o.probeAll(targets, i+1, failures, done)
	}, rpc.CallTimeout(DefaultTimeout))
}

// fillDeficit promotes passive candidates (placement bias first) until
// the active view reaches its target, attempting a bounded number per
// round.
func (o *Overlay) fillDeficit(attempts, failures int, done func(failures int)) {
	target := o.activeTarget()
	o.mu.Lock()
	deficit := target - len(o.active)
	if deficit <= 0 || attempts > target || len(o.passive) == 0 || o.closed {
		o.mu.Unlock()
		done(failures)
		return
	}
	// Best candidate: highest bias, site-name tie-break.
	best := 0
	for i, p := range o.passive {
		if o.rank(p.Site) > o.rank(o.passive[best].Site) ||
			(o.rank(p.Site) == o.rank(o.passive[best].Site) && p.Site < o.passive[best].Site) {
			best = i
		}
	}
	cand := o.passive[best]
	o.mu.Unlock()
	o.neighbor(cand, false, func(f int) {
		if f > 0 {
			failures += f
		}
		o.fillDeficit(attempts+1, failures, done)
	})
}

// shuffleOnce exchanges passive-view samples with one random active
// peer.
func (o *Overlay) shuffleOnce(failures int, done func(failures int)) {
	o.mu.Lock()
	if len(o.active) == 0 || o.closed {
		o.mu.Unlock()
		done(failures)
		return
	}
	t := o.active[o.rng.Intn(len(o.active))]
	sample := o.sampleLocked(t.Addr)
	o.mu.Unlock()
	o.ep.GoMsg(t.Addr, MethodShuffle, shuffleReq{From: o.self, Sample: sample}, func(res rpc.Result) {
		var resp shuffleResp
		if err := res.Decode(&resp); err != nil {
			done(failures + 1)
			return
		}
		for _, p := range resp.Sample {
			o.addPassive(p)
		}
		o.mu.Lock()
		o.stats.Shuffles++
		o.mu.Unlock()
		done(failures)
	}, rpc.CallTimeout(DefaultTimeout))
}

// sampleLocked draws up to shuffleLen peers from the union of the views
// (excluding the shuffle partner), self included — what one shuffle
// carries.
func (o *Overlay) sampleLocked(exclude netsim.Address) []Peer {
	pool := make([]Peer, 0, len(o.active)+len(o.passive))
	for _, p := range o.active {
		if p.Addr != exclude {
			pool = append(pool, p)
		}
	}
	for _, p := range o.passive {
		if p.Addr != exclude {
			pool = append(pool, p)
		}
	}
	o.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > shuffleLen-1 {
		pool = pool[:shuffleLen-1]
	}
	return append(pool, o.self)
}

// --- helpers ---------------------------------------------------------------

func ilog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
