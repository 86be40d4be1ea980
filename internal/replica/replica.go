// Package replica makes the information model genuinely multi-site: each
// site hosts its own information.Space replica, and Replicators keep the
// replicas convergent with a push-pull anti-entropy protocol run as an
// rpc service.
//
// Digest exchange is a Merkle negotiation, not a full-digest ship: each
// round opens with a root-hash compare over the space's incremental
// digest tree (information.DigestTree) plus per-site high-water marks.
// A converged pair exchanges one tiny message; a divergent pair first
// repairs whatever the high-water marks explain (the single-writer fast
// path), then descends only the mismatched subtrees and exchanges
// id→version-vector digests for the divergent leaves alone — so digest
// bytes are O(1) when converged and O(log n · changed) when not, instead
// of O(n) every round. The negotiation is the only protocol: a peer
// whose endpoint does not serve it is an ordinary peer failure, counted
// and retried like a timeout.
//
// Because every exchange is an rpc interrogation, sync traffic traverses
// the engineering channel stack like all other traffic in the repository:
// it is traced, counted in the fabric's per-channel statistics, and
// fault-injectable through channel interceptors. Nothing about
// replication bypasses the engineering viewpoint.
//
// Rounds are idle-aware so a simulation drains to quiescence: a
// replicator goes dormant once a round moves no data and re-arms on local
// writes (via a Space subscription), on SyncNow (e.g. after a partition
// heals), and while rounds keep failing — up to a failure cap, so an
// unreachable peer cannot keep the event loop spinning forever.
//
// In the viewpoint map (ARCHITECTURE.md) this package belongs to the
// information viewpoint — it defines what replica convergence means —
// while borrowing all of its machinery from the engineering viewpoint.
// It is storage-agnostic: digests and deltas come from whatever
// information.Backend the space runs over, so a site recovered from the
// durable logstore re-enters anti-entropy with correct digests and pulls
// only the writes it missed.
package replica

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/placement"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// RPC method names of the anti-entropy protocol.
const (
	// MethodSync is the final, narrow step of a digest negotiation: the
	// caller sends its digest of the divergent Merkle leaf buckets it
	// names in Scope, the peer answers with the ids of that digest it
	// has not fully seen (the want-list) plus every object in those
	// buckets the caller has not fully seen (the delta pull, folded into
	// the same interrogation). A request without a Scope is refused.
	MethodSync = "replica.sync"
	// MethodPush delivers objects the caller holds that the peer's digest
	// had not seen — the push half that lets one round converge a pair.
	MethodPush = "replica.push"
	// MethodDigest is the Merkle negotiation: the caller offers tree-node
	// frames (root first), the peer answers with the children of every
	// frame that mismatches its own tree — plus, on a mismatched opening
	// frame, its high-water marks and the rows the caller's marks prove
	// missing.
	MethodDigest = "replica.digest"
)

// Tunables.
const (
	// DefaultInterval separates anti-entropy rounds while armed.
	DefaultInterval = time.Second
	// DefaultSyncTimeout bounds each peer exchange so a dead peer degrades
	// the round instead of stalling it; anti-entropy itself is the retry.
	DefaultSyncTimeout = 800 * time.Millisecond
	// DefaultFailureCap is how many consecutive all-failing rounds a
	// replicator attempts before going dormant until re-armed.
	DefaultFailureCap = 8
)

// The protocol's messages. Their wire form is the binary layout in
// codec.go, not a reflection of these structs.

type syncReq struct {
	Site   string
	Digest map[string]vclock.Version
	// Scope restricts the exchange to the named Merkle leaf buckets: the
	// digest covers only rows filed under them and the responder answers
	// with its own scoped digest and deltas. Required: the responder
	// refuses an empty Scope.
	Scope []uint32
}

type syncResp struct {
	// Site names the responding replica, so the caller can filter its
	// push half by the responder's placement interest set.
	Site string
	// Want lists, sorted, the caller's digest ids the responder's scoped
	// digest lacks or does not dominate: the rows the caller pushes.
	Want   []string
	Deltas []*information.Object
}

type pushReq struct {
	Site    string
	Objects []*information.Object
}

// digestReq opens or continues a Merkle digest negotiation. Frames is a
// wire.AppendTreeFrames encoding of the caller's tree nodes at the
// current frontier (the root on the opening call). HW carries the
// caller's per-site high-water marks on the opening call only.
type digestReq struct {
	Site   string
	Frames []byte
	// HW is present (possibly empty, but non-nil) exactly on the opening
	// call, and the wire form keeps nil and empty apart: an empty-replica
	// caller sends an empty map and still needs the responder's marks and
	// fast-path deltas (the bulk late-join repair). A nil HW marks a
	// follow-up step (verify/descent).
	HW map[string]uint64
}

// digestResp answers a negotiation step: Match reports that every
// offered frame agreed; otherwise Children carries, per mismatched
// internal node, its packed path and its MerkleFanout child hashes in
// index order (the children section, see codec.go). When the opening
// call's root mismatched the responder also returns its high-water marks
// and the rows the caller's marks prove it has never seen (the fast-path
// delta, placement-scoped like any other delta).
type digestResp struct {
	Site     string
	Match    bool
	Children []byte
	HW       map[string]uint64
	Deltas   []*information.Object
}

type pushResp struct {
	Applied   int
	Conflicts int
	// Refused lists object ids the receiver did not accept (not placed
	// there, or the apply failed). A migrating pusher must keep its copy
	// of these rows.
	Refused []string
}

// Stats counts a replicator's activity. The digest/delta counters make
// the cost of every round — and the savings of partial replication —
// observable without packet inspection: ScopeFiltered counts the rows
// placement is withholding from peers, RefusedApplies counts objects
// peers offered that this site is not placed for.
type Stats struct {
	Rounds        int64 `metric:"rounds"`         // anti-entropy rounds initiated
	PeerSyncs     int64 `metric:"peer_syncs"`     // successful peer exchanges
	PeerFailures  int64 `metric:"peer_failures"`  // peer exchanges that timed out or errored
	Applied       int64 `metric:"applied"`        // remote objects merged in by rounds we initiated
	Pushed        int64 `metric:"pushed"`         // objects pushed to peers
	Conflicts     int64 `metric:"conflicts"`      // concurrent updates this replica resolved
	ServedDigests int64 `metric:"served_digests"` // replica.sync requests served
	ServedApplied int64 // objects applied on behalf of pushing peers

	DigestEntriesSent int64 // digest entries shipped in sync requests
	DeltasServed      int64 `metric:"deltas_served"` // objects shipped in sync responses
	RefusedApplies    int64 // offered objects this site is not placed for
	Migrated          int64 // rows pushed off this replica by migration
	Evicted           int64 // rows dropped locally after migration

	// Merkle negotiation counters. DigestBytes is the digest payload cost
	// this replicator initiated, both directions: tree frames, high-water
	// maps and scoped id→version-vector entries — data deltas
	// and pushes are not digest bytes. ConvergedRoots counts opening root
	// compares that matched outright (the O(1) converged round).
	MerkleExchanges int64 `metric:"merkle_exchanges"` // peer exchanges that ran the digest negotiation
	ConvergedRoots  int64 `metric:"converged_roots"`  // opening root compares that matched
	DescentCalls    int64 `metric:"descent_calls"`    // subtree-descent negotiation steps sent
	HWFastDeltas    int64 `metric:"hw_fast_deltas"`   // rows repaired straight off the high-water marks
	DigestBytes     int64 `metric:"digest_bytes"`     // digest payload bytes exchanged (sent + received)
	// ScopeFiltered is a gauge, not a counter: the rows placement is
	// currently keeping out of the cached per-peer digest trees (summed
	// over peers), recomputed at each Stats snapshot.
	ScopeFiltered int64
	// ScopedTrees is a gauge: how many per-site scoped digest trees are
	// cached right now — bounded by the peer set plus a little slack.
	ScopedTrees int `metric:"scoped_trees,gauge"`

	// Per-round observability: the last completed round's digest size and
	// data movement (sum over its peer exchanges).
	LastRoundDigestEntries int
	LastRoundDigestBytes   int
	LastRoundDescentDepth  int
	LastRoundDeltas        int
	LastRoundPushed        int
}

// Option configures a Replicator.
type Option func(*Replicator)

// WithFailureCap sets how many consecutive failing rounds run before the
// replicator goes dormant until re-armed.
func WithFailureCap(n int) Option {
	return func(r *Replicator) { r.failureCap = n }
}

// WithPlacement installs the placement policy that scopes this replica's
// sync traffic: deltas and pushes toward a peer are filtered to the
// objects the peer's site is placed for, and applies of objects this
// site is not placed for are refused. A nil policy (the default) means
// full replication.
func WithPlacement(p *placement.Policy) Option {
	return func(r *Replicator) { r.policy = p }
}

// WithTelemetry attaches the deployment telemetry plane: every sync
// round runs under its own root span whose context rides the digest,
// push and descent rpcs, and each delta that changes local state emits
// a sync.apply span under the originating write's trace (looked up by
// object id in the shared tag table) — the hop that lets one trace run
// from a put at site A to the replica apply at site B.
func WithTelemetry(tel *observe.Telemetry) Option {
	return func(r *Replicator) {
		if tel != nil {
			r.tracer = tel.Tracer
			r.objects = tel.Objects
		}
	}
}

// peer is one sync partner: its address plus (when known) its site name,
// which is what placement filters the push half by.
type peer struct {
	addr netsim.Address
	site string
}

// scopedTree caches a placement-scoped digest tree toward one peer site,
// tagged with the full tree's generation and the policy version it was
// current under. Entries are built by one full-store scan in treeFor and
// then kept current incrementally: every commit fans into them through
// maintainScoped, so the generation stamp advances with the full tree
// and the scan never repeats while the entry lives. A policy change
// (policy version) still discards the entry wholesale — placement rules
// can re-scope arbitrary subsets, which only a rescan can recover.
type scopedTree struct {
	tree      *information.DigestTree
	gen       uint64
	policyVer uint64
	excluded  int64 // rows placement is currently keeping out of this tree
}

// Replicator binds one Space replica to the network: it serves the
// anti-entropy protocol for peers and initiates its own sync rounds
// against the configured peer set.
type Replicator struct {
	ep      *rpc.Endpoint
	clock   vclock.Clock
	space   *information.Space
	site    string
	policy  *placement.Policy
	tracer  *observe.Tracer
	objects *observe.ObjectTraces

	onRoundFail func() // membership-layer hook: a sync round saw peer failures

	mu             sync.Mutex
	peers          []peer
	scoped         map[string]scopedTree // per-peer-site placement-scoped trees
	commitEvents   uint64                // row-changing space events seen by maintainScoped
	interval       time.Duration
	failureCap     int
	auto           bool
	subscribed     bool
	armed          bool         // a round is scheduled
	armedNow       bool         // the scheduled round is at the next instant
	timer          vclock.Timer // the scheduled round's timer, while armed
	running        bool         // a round is in flight
	wantSync       bool         // re-arm requested (write or SyncNow) since round start
	wantNow        bool         // the pending request asked for an immediate round
	consecFailures int
	stats          Stats
}

// New binds a replicator to the endpoint, registers the protocol methods,
// and takes the replica's site name from the space.
func New(ep *rpc.Endpoint, clock vclock.Clock, space *information.Space, opts ...Option) *Replicator {
	r := &Replicator{
		ep:         ep,
		clock:      clock,
		space:      space,
		site:       space.Site(),
		interval:   DefaultInterval,
		failureCap: DefaultFailureCap,
		scoped:     make(map[string]scopedTree),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.policy != nil {
		// Keep the per-peer scoped trees current from the commit path:
		// space callbacks run synchronously on the mutating goroutine,
		// after the full tree has absorbed the commit.
		r.space.Subscribe("", r.maintainScoped)
	}
	r.register()
	return r
}

// OnRoundFailure installs a callback fired after any sync round that hit
// peer failures. The gossip overlay hooks it to re-probe its views: a
// partition is invisible to a dormant membership layer, but the sync
// layer trips over it immediately.
func (r *Replicator) OnRoundFailure(fn func()) {
	r.mu.Lock()
	r.onRoundFail = fn
	r.mu.Unlock()
}

// Site returns the replica's site name.
func (r *Replicator) Site() string { return r.site }

// Space returns the replica this replicator keeps in sync.
func (r *Replicator) Space() *information.Space { return r.space }

// Addr returns the network address sync traffic originates from.
func (r *Replicator) Addr() netsim.Address { return r.ep.Addr() }

// Stats returns a snapshot of the counters. ScopeFiltered is computed
// here as a gauge over the cached per-peer trees.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.ScopeFiltered = 0
	for _, c := range r.scoped {
		out.ScopeFiltered += c.excluded
	}
	out.ScopedTrees = len(r.scoped)
	return out
}

// AddPeer adds a peer replicator's address to the sync set with no site
// name: placement cannot scope the push half toward it (everything is
// offered), and its digest requests arrive with its own site name anyway.
// Prefer AddPeerNamed where the site is known.
func (r *Replicator) AddPeer(addr netsim.Address) { r.AddPeerNamed("", addr) }

// AddPeerNamed adds a peer replicator with its site name, enabling
// placement-scoped pushes and targeted migration toward it.
func (r *Replicator) AddPeerNamed(site string, addr netsim.Address) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.peers {
		if p.addr == addr {
			if p.site == "" && site != "" {
				r.peers[i].site = site
			}
			return
		}
	}
	r.peers = append(r.peers, peer{addr: addr, site: site})
}

// RemovePeer drops a peer from the sync set — view churn under the
// gossip overlay, or an operator retiring a site. The peer's cached
// placement-scoped digest tree is released with it (unless another peer
// still shares the site), so the per-peer tree cache is bounded by the
// live peer set instead of growing with every site ever seen. Reports
// whether the address was a peer.
func (r *Replicator) RemovePeer(addr netsim.Address) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, p := range r.peers {
		if p.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	site := r.peers[idx].site
	r.peers = append(r.peers[:idx], r.peers[idx+1:]...)
	if site != "" && !r.peerSiteLocked(site) {
		delete(r.scoped, site)
	}
	return true
}

// tagPeerSite records a site name learned mid-exchange for a peer that
// is still in the sync set. Unlike AddPeerNamed it never inserts: a
// reply that outlives a concurrent RemovePeer must not undo the removal.
func (r *Replicator) tagPeerSite(addr netsim.Address, site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.peers {
		if p.addr == addr {
			if p.site == "" {
				r.peers[i].site = site
			}
			return
		}
	}
}

// peerSiteLocked reports whether any current peer carries the site name.
func (r *Replicator) peerSiteLocked(site string) bool {
	for _, p := range r.peers {
		if p.site == site {
			return true
		}
	}
	return false
}

// Peers returns the peer addresses, sorted.
func (r *Replicator) Peers() []netsim.Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]netsim.Address, len(r.peers))
	for i, p := range r.peers {
		out[i] = p.addr
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// placedAt reports whether placement allows the object at the site. A nil
// policy or an unknown site ("" — an untagged peer) admits everything:
// filtering is an optimisation, never a correctness gate for untagged
// peers, while the receiving side still refuses objects it is not placed
// for.
func (r *Replicator) placedAt(site string, o *information.Object) bool {
	if r.policy == nil || site == "" {
		return true
	}
	return r.policy.PlacedAt(site, placement.Describe(o))
}

// maintainScoped fans one committed row into every cached per-peer
// scoped tree, replacing the full-store rescan treeFor used to pay on
// the round after any commit. The callback runs synchronously on the
// mutating goroutine after the full tree absorbed the commit, so
// stamping entries with the full tree's current generation keeps
// treeFor's cache check passing: once writes quiesce, every commit's
// callback has run and the cached trees match a fresh scoped build
// exactly. A row whose new fields move it out of the peer's placement is
// removed from that peer's tree — placement is re-evaluated per commit,
// not only at build time.
func (r *Replicator) maintainScoped(ev information.Event) {
	switch ev.Kind {
	case "put", "update", "apply", "conflict", "evict":
	default:
		return // "share"/"relate" do not change replicated object rows
	}
	full := r.space.Tree()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitEvents++ // invalidates any treeFor scan in flight
	if len(r.scoped) == 0 {
		return
	}
	gen, pv := full.Generation(), r.policy.Version()
	// A local write's event carries a copy any subscriber can edit, and a
	// tree keeps the vector it is given: one private copy for all of them.
	vv := ev.Object.VV.Clone()
	for site, c := range r.scoped {
		if c.policyVer != pv {
			delete(r.scoped, site) // policy changed under the entry; rescan
			continue
		}
		if ev.Kind == "evict" || !r.placedAt(site, ev.Object) {
			c.tree.Remove(ev.Object.ID)
		} else {
			c.tree.Update(ev.Object.ID, vv)
		}
		c.gen = gen
		c.excluded = int64(full.Count() - c.tree.Count())
		r.scoped[site] = c
	}
}

// AutoSync arms idle-aware anti-entropy: local writes to the space
// schedule a round interval later, rounds repeat while they move data (or
// keep failing, up to the failure cap), and the replicator goes dormant
// when converged. interval <= 0 keeps the current interval.
func (r *Replicator) AutoSync(interval time.Duration) {
	r.mu.Lock()
	r.auto = true
	if interval > 0 {
		r.interval = interval
	}
	subscribe := !r.subscribed
	r.subscribed = true
	r.mu.Unlock()
	if subscribe {
		r.space.Subscribe("", func(ev information.Event) {
			// Only local writes arm a round: "apply"/"conflict" come from
			// a peer whose own round is already spreading the state, and
			// "share"/"relate" do not change replicated object rows.
			if ev.Kind == "put" || ev.Kind == "update" {
				r.SyncSoon()
			}
		})
	}
}

// SyncSoon requests a round one interval from now (the steady-state write
// coalescing path). Already-scheduled or running rounds absorb the
// request.
func (r *Replicator) SyncSoon() { r.schedule(-1) }

// SyncNow requests a round at the next simulation instant — e.g. right
// after a partition heals. It does not wait behind a round SyncSoon armed
// an interval away: it takes that round's place.
func (r *Replicator) SyncNow() { r.schedule(0) }

// schedule arms the round timer; d < 0 means one interval. A request
// arriving while a round is in flight, or armed no later than it asks
// for, is absorbed: roundDone re-arms (immediately, if the request was
// SyncNow). A SyncNow arriving while a round is armed an interval away
// stops that timer and fires at the next instant instead.
func (r *Replicator) schedule(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wantSync = true
	if d == 0 {
		r.wantNow = true
	}
	if r.running || (r.armed && (d != 0 || r.armedNow)) {
		return
	}
	if r.armed && !r.timer.Stop() {
		return // the interval timer is firing: its round starts now
	}
	r.armed, r.armedNow = true, d == 0
	if d < 0 {
		d = r.interval
	}
	r.timer = r.clock.AfterFunc(d, r.fire)
}

// roundState accumulates one round's outcome across its peer exchanges.
type roundState struct {
	moved         bool // any delta applied or pushed
	failures      int  // peers that could not be exchanged with
	digestEntries int  // digest entries shipped across the round's requests
	digestBytes   int  // digest payload bytes exchanged across the round
	descentDepth  int  // deepest subtree descent any peer exchange needed
	applied       int  // deltas merged in across the round
	pushed        int  // objects pushed across the round

	// Round tracing: span is the round's root span (inactive when the
	// tracer is off) and trace its context, stamped on every rpc the
	// round issues. roundState copies share the same recorded span; only
	// roundDone ends it.
	span  observe.ActiveSpan
	trace wire.TraceContext
}

// fire initiates a round. Runs on the clock's event goroutine.
func (r *Replicator) fire() {
	r.mu.Lock()
	r.armed, r.armedNow, r.timer = false, false, nil
	if r.running {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.wantSync = false
	r.wantNow = false
	r.stats.Rounds++
	peers := append([]peer(nil), r.peers...)
	r.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	var st roundState
	if r.tracer.On() {
		st.span = r.tracer.StartRoot("sync.round", r.site)
		st.trace = st.span.Context()
	}
	r.syncPeer(peers, 0, st)
}

// syncPeer exchanges with peers[i] and chains to the next peer; exchanges
// run sequentially in sorted order so rounds are deterministic.
func (r *Replicator) syncPeer(peers []peer, i int, st roundState) {
	if i >= len(peers) {
		r.roundDone(st)
		return
	}
	next := func(st roundState) { r.syncPeer(peers, i+1, st) }
	(&merkleExchange{r: r, p: peers[i], st: st, next: next}).open()
}

// roundDone closes a round and decides whether to re-arm: an explicit
// request (write or SyncNow) arrived mid-round — honoured even without
// AutoSync — or, under AutoSync, data moved or the round failed with
// failure budget remaining (so partitions are retried, but not forever).
func (r *Replicator) roundDone(st roundState) {
	if st.span.Active() {
		st.span.SetAttr("applied", strconv.Itoa(st.applied))
		st.span.SetAttr("pushed", strconv.Itoa(st.pushed))
		if st.failures > 0 {
			st.span.EndStatus("failures")
		} else {
			st.span.End()
		}
	}
	r.mu.Lock()
	r.running = false
	r.stats.LastRoundDigestEntries = st.digestEntries
	r.stats.LastRoundDigestBytes = st.digestBytes
	r.stats.LastRoundDescentDepth = st.descentDepth
	r.stats.LastRoundDeltas = st.applied
	r.stats.LastRoundPushed = st.pushed
	if st.failures > 0 {
		r.consecFailures++
	} else {
		r.consecFailures = 0
	}
	rearm := r.wantSync || (r.auto && (st.moved ||
		(st.failures > 0 && r.consecFailures < r.failureCap)))
	now := r.wantNow
	onFail := r.onRoundFail
	r.mu.Unlock()
	if st.failures > 0 && onFail != nil {
		onFail()
	}
	if !rearm {
		return
	}
	if now {
		r.SyncNow()
	} else {
		r.SyncSoon()
	}
}

func (r *Replicator) bump(fn func(*Stats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// applyRows merges peer-supplied rows into the local replica — the one
// apply path of pulled deltas, pushed rows and rumor fetches alike. Rows
// this site is not placed for are refused. It returns how many rows
// changed local state, how many were concurrent updates it resolved, and
// the ids it did not accept (not placed here, or the apply failed). The
// rows are handed over: a decoder built them for this call, and the ones
// that apply become the stored rows.
func (r *Replicator) applyRows(rows []*information.Object) (applied, conflicts int, refused []string) {
	notPlaced := 0
	for _, obj := range rows {
		// The optimistic-concurrency number is replica-local: whatever the
		// sender stored, it is the vector's sum here, so converged replicas
		// agree on it by construction.
		obj.Version = obj.VV.Sum()
		if !r.placedAt(r.site, obj) {
			// The peer offered an object of a space this site is no
			// longer placed in (e.g. de-placed mid-sync).
			notPlaced++
			refused = append(refused, obj.ID)
			continue
		}
		changed, conflict, err := r.space.Adopt(obj)
		if err != nil {
			refused = append(refused, obj.ID)
			continue
		}
		if changed {
			applied++
			// Anti-entropy delivery closes the causal chain: the apply is
			// a span of the trace that wrote the object, not of the sync
			// round that happened to carry it.
			if r.tracer.On() {
				if parent, ok := r.objects.Lookup(obj.ID); ok {
					r.tracer.Event("sync.apply", r.site, parent, "",
						observe.Attr{Key: "object", Value: obj.ID})
				}
			}
		}
		if conflict {
			conflicts++
		}
	}
	if conflicts > 0 || notPlaced > 0 {
		r.bump(func(s *Stats) {
			s.Conflicts += int64(conflicts)
			s.RefusedApplies += int64(notPlaced)
		})
	}
	return applied, conflicts, refused
}

// --- gossip-overlay surface ------------------------------------------------
//
// These three methods plus SyncSoon are what internal/gossip's Replica
// interface needs: rumor staleness checks and the rows a push or graft
// carries. They keep gossip decoupled from this package — the overlay
// sees an interface, the deployment hands it a *Replicator.

// HasSeen reports whether the local replica already holds the write of id
// whose dot is (site, counter) — a rumor for it carries no news. Entries
// never fall, so reaching counter is dominating that write's vector.
func (r *Replicator) HasSeen(id, site string, counter uint64) bool {
	obj, ok := r.space.Fetch(id)
	return ok && obj.VV.Counter(site) >= counter
}

// FetchWire returns the named rows for a gossip push to, or a graft by,
// forSite, placement-scoped to that site like any other delta.
func (r *Replicator) FetchWire(forSite string, ids []string) []*information.Object {
	var out []*information.Object
	for _, id := range ids {
		if obj, ok := r.space.Fetch(id); ok && r.placedAt(forSite, obj) {
			out = append(out, obj)
		}
	}
	return out
}

// ApplyWire merges pushed or grafted rows through the ordinary delta-apply
// path (placement refusals, conflict resolution, stats), returning how
// many changed local state.
func (r *Replicator) ApplyWire(objs []*information.Object) int {
	applied, _, _ := r.applyRows(objs)
	r.bump(func(s *Stats) { s.Applied += int64(applied) })
	return applied
}

// treeFor returns the digest tree this replicator compares with the
// named peer site: the space's own incremental tree when placement is
// non-selective (or the peer is untagged), otherwise a cached tree
// scoped to the rows placed at that site — the per-peer view that lets
// partially-replicated pairs compare equal once converged. An entry is
// built by one full-store scan and thereafter maintained incrementally
// from the commit path (maintainScoped), so steady writes cost O(1) per
// peer per commit instead of an O(rows) rescan per changed round. The
// scan itself is guarded by the commit-event counter: if a commit lands
// while the scan runs, the result may miss it, so it is returned for
// this round but not cached — the next call rebuilds from a consistent
// view. A policy change (version bump) always forces a rescan.
func (r *Replicator) treeFor(site string) *information.DigestTree {
	full := r.space.Tree()
	if r.policy == nil || site == "" || !r.policy.Selective() {
		return full
	}
	gen, pv := full.Generation(), r.policy.Version()
	r.mu.Lock()
	if c, ok := r.scoped[site]; ok && c.gen == gen && c.policyVer == pv {
		r.mu.Unlock()
		return c.tree
	}
	ev0 := r.commitEvents
	r.mu.Unlock()
	t := information.NewDigestTree()
	excluded := int64(0)
	r.space.Range(func(o *information.Object) bool {
		if r.policy.PlacedAt(site, placement.Describe(o)) {
			t.Update(o.ID, o.VV)
		} else {
			excluded++
		}
		return true
	})
	r.mu.Lock()
	if r.commitEvents == ev0 && r.mayCacheScopedLocked(site) {
		// No commit raced the scan: the entry is complete, and from here
		// maintainScoped keeps it current — this site never rescans
		// again until the placement policy changes.
		r.scoped[site] = scopedTree{tree: t, gen: gen, policyVer: pv, excluded: excluded}
	}
	r.mu.Unlock()
	return t
}

// scopedSlack is how many scoped trees beyond the peer set the cache
// admits — callers serving digests for sites that are not (yet) peers.
const scopedSlack = 4

// mayCacheScopedLocked bounds the scoped-tree cache: peer sites always
// cache (RemovePeer releases them on churn); non-peer callers — arbitrary
// sites whose digest requests we serve — only while the cache stays
// within the peer count plus a little slack. Past that, a stranger's
// request is served from an uncached scan rather than growing the cache
// (and the per-commit maintainScoped fan-in) without bound.
func (r *Replicator) mayCacheScopedLocked(site string) bool {
	if r.peerSiteLocked(site) {
		return true
	}
	return len(r.scoped) < len(r.peers)+scopedSlack
}

// newerThanHW resolves the tree's past-high-water ids to placement-scoped
// rows — what a replica with those marks has certainly never seen.
func (r *Replicator) newerThanHW(tree *information.DigestTree, hw map[string]uint64, peerSite string) []*information.Object {
	var out []*information.Object
	for _, id := range tree.NewerThanHW(hw) {
		obj, ok := r.space.Fetch(id)
		if !ok || !r.placedAt(peerSite, obj) {
			continue
		}
		out = append(out, obj)
	}
	return out
}
