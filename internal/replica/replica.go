// Package replica makes the information model genuinely multi-site: each
// site hosts its own information.Space replica, and Replicators keep the
// replicas convergent with a push-pull anti-entropy protocol run as an
// rpc service.
//
// Digest exchange is a Merkle negotiation, not a full-digest ship: each
// round opens with a root-hash compare over the space's incremental
// digest tree (information.DigestTree) plus per-site high-water marks.
// A converged pair exchanges one tiny message; a divergent pair repairs
// whatever the high-water marks explain, pass after pass while passes move
// rows, and only for a gap the marks cannot name descends the mismatched
// subtrees and exchanges id→version-vector digests for the divergent
// leaves alone — so digest bytes are O(1) when converged and
// O(log n · changed) when not, instead of O(n) every round. The marks
// themselves travel by delta: each side keeps per peer the sections it
// sent and the last two it received, numbered by generation, and sends
// only the sites whose mark rose since the section the peer confirmed
// holding, with a check of the whole; a delta the peer cannot rebuild is
// answered as if no marks came, and the next pass sends them whole (see
// peerMarks). The negotiation is the only protocol: a peer whose endpoint
// does not serve it is an ordinary peer failure, counted and retried like
// a timeout.
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
	"slices"
	"strconv"
	"sync"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
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
	Digest map[string]vclock.Version
	// Scope restricts the exchange to the named Merkle leaf buckets: the
	// digest covers only rows filed under them and the responder answers
	// with its own scoped digest and deltas. Required: the responder
	// refuses an empty Scope.
	Scope []uint32
}

type syncResp struct {
	// Want lists, sorted, the caller's digest ids the responder's scoped
	// digest lacks or does not dominate: the rows the caller pushes.
	Want   []string
	Deltas []*information.Object
}

type pushReq struct {
	Objects []*information.Object
}

// digestReq opens or continues a Merkle digest negotiation. Frames is a
// wire.AppendTreeFrames encoding of the caller's tree nodes at the
// current frontier (the root on a marks pass). Marks carries the caller's
// per-site high-water marks on a marks pass only.
type digestReq struct {
	Frames []byte
	// Marks is the caller's marks, present exactly on a marks pass. A
	// replica with no rows still sends them — a count of zero — and gets
	// the responder's marks and every row back (the bulk late-join
	// repair). Absent marks (a nil Section) mark a root-only verify or a
	// descent step.
	Marks marksMsg
}

// marksMsg is a marks section as a digest body carries it: whole, or as a
// delta from a section of the sender's that the receiver holds. Each side
// numbers the sections it sends a peer with generations, so the two can
// name what each holds of the other's (see peerMarks).
type marksMsg struct {
	Gen   uint64 // the generation this section creates, counted per peer from 1
	Ack   uint64 // the generation of the receiver's marks the sender holds; 0: none
	Base  uint64 // the generation of the sender's section Section is a delta from; 0: Section is whole
	Check uint32 // information.MarksCheck of the whole section, with a Base only
	// Section is the marks section (information.AppendMarks), or with a
	// Base the delta (information.AppendMarksDelta); nil when the body
	// carries no marks. It aliases the body it was read from.
	Section []byte
}

// digestResp answers a negotiation step: Match reports that every
// offered frame agreed. On a mismatched marks pass the responder returns
// its own marks and the rows the caller's marks prove it has never seen;
// otherwise, and on a marks pass whose marks explain nothing, Children
// carries per mismatched internal node its packed path and its
// MerkleFanout child hashes in index order (the children section, see
// codec.go). Full reports that the responder could not rebuild the
// caller's marks — a delta from a base it does not hold, or one whose
// rebuild failed its check — and answered as if they were absent: Match,
// or its own marks alone. The caller's next marks are whole.
type digestResp struct {
	Match    bool
	Full     bool
	Children []byte
	Marks    marksMsg
	Deltas   []*information.Object
}

// pushResp says how many of the pushed rows changed the peer's replica;
// the pusher reads only whether any did.
type pushResp struct {
	Applied uint64
}

// Stats counts a replicator's activity. The digest/delta counters make
// the cost of every round observable without packet inspection.
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
	DeltasServed      int64 `metric:"deltas_served"`  // objects shipped in sync responses
	ApplyFailures     int64 `metric:"apply_failures"` // peer rows the local replica failed to store, and replies whose rows it could not name

	// Merkle negotiation counters. DigestBytes is the digest payload cost
	// of the exchanges this replicator initiated, both directions — data
	// deltas and pushes are not digest bytes — and the sum of the four
	// counters after it, one per section kind. ConvergedRoots counts
	// opening root compares that matched outright (the O(1) converged
	// round).
	MerkleExchanges int64 `metric:"merkle_exchanges"` // peer exchanges that ran the digest negotiation
	ConvergedRoots  int64 `metric:"converged_roots"`  // opening root compares that matched
	DescentCalls    int64 `metric:"descent_calls"`    // subtree-descent negotiation steps sent
	HWFastDeltas    int64 `metric:"hw_fast_deltas"`   // rows repaired straight off the high-water marks
	DigestBytes     int64 `metric:"digest_bytes"`     // digest payload bytes exchanged (sent + received)
	MarksBytes      int64 `metric:"marks_bytes"`      // marks sections, whole or delta, with their generations and checks
	FrameBytes      int64 `metric:"frame_bytes"`      // tree-frame sections offered
	ChildrenBytes   int64 `metric:"children_bytes"`   // children sections answered
	WantBytes       int64 `metric:"want_bytes"`       // scoped leaf digests and the want-lists answering them
	MarksFallbacks  int64 `metric:"marks_fallbacks"`  // whole marks sent because a peer lost or refused the base

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

// Replicator binds one Space replica to the network: it serves the
// anti-entropy protocol for peers and initiates its own sync rounds
// against the configured peer set.
type Replicator struct {
	ep      *rpc.Endpoint
	clock   vclock.Clock
	space   *information.Space
	site    string
	tracer  *observe.Tracer
	objects *observe.ObjectTraces

	onRoundFail func() // membership-layer hook: a sync round saw peer failures

	mu             sync.Mutex
	peers          []netsim.Address
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
	handOff        []*information.Object // local writes HandOff queued this instant
	handOffTo      netsim.Address        // the peer they go to
	stats          Stats

	marksMu sync.Mutex
	marks   map[netsim.Address]*peerMarks // per peer ever synced with, what each side holds of the other's marks
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
	}
	for _, opt := range opts {
		opt(r)
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

// Stats returns a snapshot of the counters.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// AddPeer adds a peer replicator's address to the sync set.
func (r *Replicator) AddPeer(addr netsim.Address) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Contains(r.peers, addr) {
		r.peers = append(r.peers, addr)
	}
}

// RemovePeer drops a peer from the sync set — view churn under the
// gossip overlay, or an operator retiring a site. Reports whether the
// address was a peer. The record of the marks exchanged with it stays,
// trimmed to what a return needs (trimMarks): a replication address names
// a site, not an incarnation, so the records are bounded by the
// deployment's sites, and a peer that comes back resumes with deltas from
// what each side still holds (a restarted one fails the delta's check and
// is sent whole marks, as always).
func (r *Replicator) RemovePeer(addr netsim.Address) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.Index(r.peers, addr)
	if i < 0 {
		return false
	}
	r.peers = slices.Delete(r.peers, i, i+1)
	r.trimMarks(addr)
	return true
}

// Peers returns the peer addresses, sorted.
func (r *Replicator) Peers() []netsim.Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.peers)
	slices.Sort(out)
	return out
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
	peers := slices.Clone(r.peers)
	r.mu.Unlock()
	slices.Sort(peers)
	var st roundState
	if r.tracer.On() {
		st.span = r.tracer.StartRoot("sync.round", r.site)
		st.trace = st.span.Context()
	}
	r.syncPeer(peers, 0, st)
}

// syncPeer exchanges with peers[i] and chains to the next peer; exchanges
// run sequentially in sorted order so rounds are deterministic.
func (r *Replicator) syncPeer(peers []netsim.Address, i int, st roundState) {
	if i >= len(peers) {
		r.roundDone(st)
		return
	}
	next := func(st roundState) { r.syncPeer(peers, i+1, st) }
	(&merkleExchange{r: r, peer: peers[i], st: st, next: next}).open()
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
// apply path of pulled deltas, pushed rows and rumor fetches alike. It
// returns how many rows changed local state. A concurrent update it
// resolved is counted in Conflicts; a row the replica fails to store is
// counted in ApplyFailures and left for a later round. The rows are handed over: a
// decoder built them for this call, and the ones that apply become the
// stored rows.
func (r *Replicator) applyRows(rows []*information.Object) (applied int) {
	conflicts, failures := 0, 0
	for _, obj := range rows {
		// The optimistic-concurrency number is replica-local: whatever the
		// sender stored, it is the vector's sum here, so converged replicas
		// agree on it by construction.
		obj.Version = obj.VV.Sum()
		changed, conflict, err := r.space.Adopt(obj)
		if err != nil {
			failures++
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
	if conflicts > 0 || failures > 0 {
		r.bump(func(s *Stats) {
			s.Conflicts += int64(conflicts)
			s.ApplyFailures += int64(failures)
		})
	}
	return applied
}

// --- gossip-overlay surface ------------------------------------------------
//
// These three methods are what internal/gossip's Replica interface
// needs: the row that holds an announced write, and the rows a push or
// graft carries.
// They keep gossip decoupled from this package — the overlay sees an
// interface, the deployment hands it a *Replicator.

// DotID names the row the local replica holds the write (site, counter)
// in: the row whose vector's site entry is exactly counter, read from the
// digest tree's per-site index. ok is false when the write never arrived,
// or when a later write of the same site has superseded it on its row.
func (r *Replicator) DotID(site string, counter uint64) (id string, ok bool) {
	return r.space.Tree().DotID(site, counter)
}

// FetchWire returns the named rows the local replica holds, for a gossip
// push or graft.
func (r *Replicator) FetchWire(ids []string) []*information.Object {
	var out []*information.Object
	for _, id := range ids {
		if obj, ok := r.space.Fetch(id); ok {
			out = append(out, obj)
		}
	}
	return out
}

// ApplyWire merges pushed or grafted rows through the ordinary delta-apply
// path (conflict resolution, stats), returning how many changed local
// state.
func (r *Replicator) ApplyWire(objs []*information.Object) int {
	applied := r.applyRows(objs)
	r.bump(func(s *Stats) { s.Applied += int64(applied) })
	return applied
}

// HandOff sends a local write to peer outside any round, so the write
// exists at a second site from the instant it commits instead of from the
// next round on. The writes handed off in one instant leave together, in
// one replica.push at that instant to the peer named last: a burst of
// commits costs one call, not one per row. A failed hand-off is dropped:
// anti-entropy repairs whatever it missed.
func (r *Replicator) HandOff(peer netsim.Address, obj *information.Object) {
	r.mu.Lock()
	first := len(r.handOff) == 0
	r.handOff = append(r.handOff, obj)
	r.handOffTo = peer
	r.mu.Unlock()
	if first {
		r.clock.AfterFunc(0, r.flushHandOff)
	}
}

// flushHandOff pushes the writes HandOff queued.
func (r *Replicator) flushHandOff() {
	r.mu.Lock()
	objs, peer := r.handOff, r.handOffTo
	r.handOff = nil
	r.mu.Unlock()
	var trace wire.TraceContext
	if r.tracer.On() {
		trace, _ = r.objects.Lookup(objs[0].ID)
	}
	r.ep.GoMsg(peer, MethodPush, pushReq{Objects: objs}, func(res rpc.Result) {
		if res.Decode(&pushResp{}) == nil {
			r.bump(func(s *Stats) { s.Pushed += int64(len(objs)) })
		}
	}, rpc.CallTimeout(DefaultSyncTimeout), rpc.CallTrace(trace))
}

// newerThanMarks resolves the tree's ids past a marks section to rows —
// what a replica with those marks has certainly never seen.
func (r *Replicator) newerThanMarks(tree *information.DigestTree, marks []byte) []*information.Object {
	var out []*information.Object
	for _, id := range tree.NewerThanMarks(marks) {
		if obj, ok := r.space.Fetch(id); ok {
			out = append(out, obj)
		}
	}
	return out
}
