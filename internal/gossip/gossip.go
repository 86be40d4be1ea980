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
//     join / forward-join / neighbor / disconnect / shuffle / probe
//     messages that ride the ordinary rpc channel stack, so membership
//     traffic is traced, counted and fault-injectable like everything
//     else. Peers are discovered through trader offers (one
//     "gossip-membership" offer per live site), so membership is just
//     another rules-over-offers service. One active slot is pinned to the
//     site's successor on the sorted ring of advertised sites — a
//     deterministic connectivity backstop that keeps the union of active
//     views a connected graph, which is what makes drain-to-convergence a
//     guarantee rather than a probability.
//
//   - Rumor mongering on a broadcast tree (Plumtree: Leitão, Pereira,
//     Rodrigues, "Epidemic Broadcast Trees", SRDS 2007). Active views
//     are symmetric — a link is held at both ends or at neither — and
//     each member splits its view into eager peers and lazy peers. A
//     fresh write is pushed as its row, named by its dot (site and
//     counter), to the eager peers (gossip.rumor) and announced by dot
//     alone — no row id: a site numbers all its writes with one counter
//     — to the lazy ones, batched per interval (gossip.ihave). The first
//     receipt of a dot applies the row and passes it on the same way; a
//     second receipt is a duplicate, answered with gossip.prune, which
//     makes the sender treat the receiver as lazy. Duplicates thus prune
//     the eager links down to a spanning tree, so a write crosses each
//     member once. A dot queued for a lazy peer leaves the queue when that
//     peer pushes it, announces it or answers a graft with it: the peer
//     holds the write, and the ihave would only cost the bytes. A dot an
//     ihave named that has not arrived after a timeout is grafted
//     (gossip.graft, by dot): pulled from the announcer, which names the
//     row from its dedup set or its replica's index, and whose link turns
//     eager again — how the tree mends around a dead member. Pushes,
//     ihaves and prunes are announcements: one frame per target, no
//     reply, nothing kept at the sender. Anti-entropy remains the repair
//     path rather than the propagation path, on its own schedule: a lost
//     push is one it repairs.
//
//   - View-scoped anti-entropy. The Replicator's peer set is driven by
//     the active view through the OnChange callback: peers entering the
//     view are added (and synced immediately — view churn re-arms
//     rounds), peers leaving are removed.
//
// The overlay is simulation-first like the replicator: all timers ride
// the injected clock, maintenance rounds are event-armed (join, view
// churn, Mend after a heal) and go dormant after a few quiet rounds or a
// run of failing ones, so a deployment drains to quiescence.
//
// The rumor path keeps no garbage of its own: what a receipt, a push or a
// flush builds comes from a pool, or from storage the overlay keeps, and
// only the rows a push carries are new. Two rules make that safe. A split
// of the active view into eager and lazy peers is immutable: a change to
// the view or to a link's mark replaces it, never edits it, so a fan-out
// reads a snapshot after the lock is let go. And an ihave queue is emptied
// for reuse only once its body is encoded, under the lock that queues to
// it.
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
	// TTL-limited walk of announcements; receivers with spare active
	// capacity adopt it.
	MethodForwardJoin = "gossip.forward-join"
	// MethodNeighbor asks a peer to establish a symmetric active-view
	// link (promotion from the passive view, ring pinning, heal mends). A
	// full member refuses unless the request is high-priority.
	MethodNeighbor = "gossip.neighbor"
	// MethodDisconnect tells a peer its link is gone — the evicting end
	// announces it, so the evicted end drops the link too.
	MethodDisconnect = "gossip.disconnect"
	// MethodShuffle exchanges passive-view samples between two peers.
	MethodShuffle = "gossip.shuffle"
	// MethodProbe is the liveness check run against the active view.
	MethodProbe = "gossip.probe"
	// MethodRumor pushes fresh writes to eager peers: each as its dot and
	// the row. It is one-way (rpc.Endpoint.Announce) and has no reply.
	MethodRumor = "gossip.rumor"
	// MethodIhave announces fresh writes by dot alone to lazy peers,
	// batched per interval.
	MethodIhave = "gossip.ihave"
	// MethodPrune answers a duplicate push: the sender makes the receiver
	// a lazy peer.
	MethodPrune = "gossip.prune"
	// MethodGraft pulls announced rows that never arrived from their
	// announcer and makes the link eager again.
	MethodGraft = "gossip.graft"
)

// Trader vocabulary: each live site exports one membership offer, so the
// overlay discovers contacts through the trading function.
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
	// rumors are still cheap: the replica's index names the writes it
	// holds, and a graft is answered from it).
	seenCap = 8192
	// ihaveInterval batches lazy announcements: a lazy peer hears of
	// the writes of one interval in one gossip.ihave.
	ihaveInterval = 250 * time.Millisecond
	// graftTimeout is how long a write an ihave named may stay missing
	// before it is grafted from the announcer.
	graftTimeout = 250 * time.Millisecond
)

// Peer identifies one overlay member: its site name, its gossip endpoint
// and its replication endpoint (what the anti-entropy layer peers with).
type Peer struct {
	Site string
	Addr netsim.Address
	Repl netsim.Address
}

// Replica is the slice of the replication layer the overlay needs: the
// row that holds an announced write, and the rows a push or graft carries.
// The tree delivers; anti-entropy repairs what it missed on its own
// schedule, so a receipt arms no round. *replica.Replicator implements it.
type Replica interface {
	// DotID names the row the local replica holds the write (site,
	// counter) in: the row whose vector's site entry is exactly counter.
	// ok is false when the write never arrived, or a later write of the
	// same site superseded it on its row.
	DotID(site string, counter uint64) (id string, ok bool)
	// FetchWire appends to dst the named rows the replica holds, for a
	// push or a graft, in the order of ids.
	FetchWire(dst []*information.Object, ids []string) []*information.Object
	// ApplyWire merges pushed rows, returning how many changed state.
	ApplyWire(objs []*information.Object) int
	// Refused hears of a push or a graft's reply whose body failed to
	// decode, with the decoder's error: rows the process cannot name
	// count as failed applies.
	Refused(err error)
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
	RumorsPublished int64 `metric:"rumors_published"` // local writes published to at least one peer
	RumorsForwarded int64 `metric:"rumors_forwarded"` // received writes passed on to eager peers
	RumorsSeen      int64 `metric:"rumors_seen"`      // eager receipts: pushed or grafted entries, fresh or duplicate
	RumorFetches    int64 `metric:"rumor_fetches"`    // grafts served: pulls of rows from this member
	RumorApplied    int64 `metric:"rumor_applied"`    // rows eager receipts changed local state with
	RumorsOffView   int64 `metric:"rumors_off_view"`  // pushed entries from a sender outside the active view
	EagerPushed     int64 `metric:"eager_pushed"`     // rows pushed, one per eager target
	IhavesSent      int64 `metric:"ihaves_sent"`      // gossip.ihave announcements sent
	IhaveDots       int64 `metric:"ihave_dots"`       // dots the ihaves sent named
	IhaveSuppressed int64 `metric:"ihave_suppressed"` // queued dots dropped because the lazy peer showed it holds them
	Prunes          int64 `metric:"prunes"`           // prunes sent for duplicate pushes
	Grafts          int64 `metric:"grafts"`           // grafts sent for announced writes that never arrived

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

// WithTelemetry attaches the deployment telemetry plane: rumor publishes
// and forwards for a tagged object ride under the originating write's
// trace (an instant gossip.publish/gossip.forward span plus the context
// stamped on the pushes), so epidemic propagation shows up in the same
// trace as the write that seeded it.
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
	onChange func(added, removed []Peer)
	tracer   *observe.Tracer
	objects  *observe.ObjectTraces

	seed int64

	mu          sync.Mutex
	rng         *rand.Rand
	active      []Peer
	passive     []Peer
	ring        netsim.Address            // pinned ring-successor, eviction-exempt
	pinnedBy    map[netsim.Address]bool   // active peers whose ring successor this member is, eviction-exempt too
	ringSkip    int                       // ring-order index the last successful walk pinned
	seen        map[uint64]seenWrite      // dots received or published, by key
	receipts    uint64                    // pushes and publishes so far
	lastFresh   map[netsim.Address]uint64 // the receipt number of the last push from a peer that brought news
	lazy        map[netsim.Address]bool   // active peers that get ihaves, not rows; the rest are eager
	split       *viewSplit                // the active view by eager and lazy; nil once either changes
	ihaves      map[netsim.Address][]dot  // dots queued for each lazy peer's next ihave; a flushed queue keeps its storage
	flushArmed  bool                      // a flush of ihaves is due
	flushFn     func()                    // o.flushIhaves, bound once for the timers that flush
	grafting    map[uint64]bool           // dots with a graft in flight
	graftChecks []graftCheck              // ihaves' missing dots awaiting graftTimeout, oldest first
	graftFn     func()                    // o.graftDue, bound once for the timers that graft
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
		ep:        ep,
		clock:     clock,
		self:      Peer{Site: site, Addr: ep.Addr(), Repl: replAddr},
		replica:   replica,
		seed:      1,
		seen:      make(map[uint64]seenWrite),
		lastFresh: make(map[netsim.Address]uint64),
		pinnedBy:  make(map[netsim.Address]bool),
		lazy:      make(map[netsim.Address]bool),
		ihaves:    make(map[netsim.Address][]dot),
		grafting:  make(map[uint64]bool),
	}
	for _, opt := range opts {
		opt(o)
	}
	o.flushFn, o.graftFn = o.flushIhaves, o.graftDue
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
		o.addActive(resp.Me, true, notRing)
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

// ringEnd says whether a link is a ring link, and which end this member
// is. Both ends exempt a ring link from eviction.
type ringEnd uint8

const (
	notRing         ringEnd = iota
	ringSuccessor           // the peer is this member's ring successor
	ringPredecessor         // this member is the peer's ring successor
)

// addActive admits p to the active view and reports whether p is in it
// afterwards. A full view admits p only when force is set — a ring pin,
// a requester whose view is empty, a peer that has accepted this
// member's own request — and then evicts its weakest member to the
// passive view, telling it with gossip.disconnect so the link goes at
// both ends. Ring links and p itself are eviction-exempt. p enters as an
// eager peer. Fires onChange outside the lock.
func (o *Overlay) addActive(p Peer, force bool, ring ringEnd) bool {
	if p.Addr == o.self.Addr || p.Addr == "" {
		return false
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	switch ring {
	case ringSuccessor:
		o.ring = p.Addr
	case ringPredecessor:
		o.pinnedBy[p.Addr] = true
	}
	if indexOf(o.active, p.Addr) >= 0 {
		o.mu.Unlock()
		return true
	}
	target := o.activeTargetLocked()
	if !force && len(o.active) >= target {
		o.addPassiveLocked(p)
		o.mu.Unlock()
		return false
	}
	if i := indexOf(o.passive, p.Addr); i >= 0 {
		o.passive = append(o.passive[:i], o.passive[i+1:]...)
	}
	var evicted []Peer
	o.active = append(o.active, p)
	o.split = nil
	for len(o.active) > target {
		v := o.evictionVictimLocked(p.Addr)
		if v < 0 {
			break
		}
		evicted = append(evicted, o.dropLinkLocked(v))
	}
	o.viewVersion++
	o.mu.Unlock()
	for _, v := range evicted {
		o.announce(v.Addr, MethodDisconnect, wire.Empty{})
	}
	if o.onChange != nil {
		o.onChange([]Peer{p}, evicted)
	}
	return true
}

// dropLinkLocked moves active[i] to the passive view, forgetting what the
// link was — ring pin, lazy mark, queued ihaves — and returns it.
func (o *Overlay) dropLinkLocked(i int) Peer {
	p := o.active[i]
	o.active = append(o.active[:i], o.active[i+1:]...)
	o.split = nil
	delete(o.pinnedBy, p.Addr)
	delete(o.lazy, p.Addr)
	delete(o.lastFresh, p.Addr)
	delete(o.ihaves, p.Addr)
	o.addPassiveLocked(p)
	o.stats.Demotions++
	return p
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

// evictionVictimLocked picks the active member to demote: the highest
// site name — never a ring link, at either end, or the just-added peer.
func (o *Overlay) evictionVictimLocked(keep netsim.Address) int {
	best := -1
	for i, p := range o.active {
		if p.Addr == o.ring || o.pinnedBy[p.Addr] || p.Addr == keep {
			continue
		}
		if best < 0 || p.Site > o.active[best].Site {
			best = i
		}
	}
	return best
}

// removeActive drops addr from the active view (probe failure, or the
// other end's gossip.disconnect), moving it to the passive view so a
// later heal can promote it back.
func (o *Overlay) removeActive(addr netsim.Address) {
	o.mu.Lock()
	i := indexOf(o.active, addr)
	if i < 0 || o.closed {
		o.mu.Unlock()
		return
	}
	p := o.dropLinkLocked(i)
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
	o.clock.Schedule(d, o.round)
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
			o.fillDeficit(map[netsim.Address]bool{}, failures, func(failures int) {
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
	pinned := have && o.ring == cand.Addr
	if have {
		o.ringSkip = idx
	}
	o.mu.Unlock()
	if pinned {
		done(failures)
		return
	}
	// A ring pin is high-priority: the successor admits it even when
	// full, and records the pin so neither end ever evicts the link. An
	// active peer that becomes the successor is asked too, so that its
	// end learns of the pin.
	o.neighbor(cand, ringSuccessor, func(accepted bool, f int) {
		if accepted {
			o.mu.Lock()
			o.ringSkip = idx
			o.mu.Unlock()
			done(failures)
			return
		}
		o.ringWalk(order, idx+1, failures+f, done)
	})
}

// neighbor asks p for a symmetric active link; on acceptance p joins the
// active view (as the ring successor if ring says so). The request is
// high-priority when it is a ring pin or this member's view is empty; a
// full member refuses any other, which is not a failure.
func (o *Overlay) neighbor(p Peer, ring ringEnd, done func(accepted bool, failures int)) {
	o.mu.Lock()
	req := neighborReq{From: o.self, Ring: ring == ringSuccessor, Lonely: len(o.active) == 0}
	o.mu.Unlock()
	o.ep.GoMsg(p.Addr, MethodNeighbor, req, func(res rpc.Result) {
		var resp neighborResp
		if err := res.Decode(&resp); err != nil {
			o.dropPassive(p.Addr)
			done(false, 1)
			return
		}
		if !resp.Accepted {
			done(false, 0)
			return
		}
		o.mu.Lock()
		o.stats.Promotions++
		o.mu.Unlock()
		// The other end holds the link now: so must this one.
		o.addActive(p, true, ring)
		done(true, 0)
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

// fillDeficit promotes passive candidates (lowest site name first) until
// the active view reaches its target, asking a bounded number per round;
// tried holds the ones this round asked, so a refusal moves on to the
// next candidate.
func (o *Overlay) fillDeficit(tried map[netsim.Address]bool, failures int, done func(failures int)) {
	target := o.activeTarget()
	o.mu.Lock()
	// Best untried candidate: the lowest site name.
	best := -1
	for i, p := range o.passive {
		if tried[p.Addr] {
			continue
		}
		if best < 0 || p.Site < o.passive[best].Site {
			best = i
		}
	}
	if len(o.active) >= target || len(tried) > target || best < 0 || o.closed {
		o.mu.Unlock()
		done(failures)
		return
	}
	cand := o.passive[best]
	tried[cand.Addr] = true
	o.mu.Unlock()
	o.neighbor(cand, notRing, func(_ bool, f int) {
		o.fillDeficit(tried, failures+f, done)
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

// fnv64 is FNV-1a over s; fnvMore folds more bytes into a running hash.
func fnv64(s string) uint64 { return fnvMore(14695981039346656037, s) }

func fnvMore[B string | []byte](h uint64, s B) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
