package placement

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/rpc"
	"mocca/internal/trader"
	"mocca/internal/wire"
)

// Trading vocabulary of the placement subsystem: every site exports one
// offer per space it hosts, and a non-placed site imports the type to
// resolve a holder for a remote read (or to forward a stranded write).
const (
	// ServiceType is the trader service type of placement offers.
	ServiceType = "information-placement"
	// SpaceProp / SiteProp are the offer properties naming the hosted
	// space and the hosting site.
	SpaceProp = "space"
	SiteProp  = "site"
	// MethodRead is the rpc method a holder serves remote reads on.
	MethodRead = "placement.read"
	// MethodWrite is the rpc method a holder accepts forwarded writes on:
	// a Put that landed at a non-placed site routes the row to a placed
	// holder instead of stranding a foreign copy until migration.
	MethodWrite = "placement.write"
	// DefaultReadTimeout bounds each holder attempt so a dead holder
	// degrades the read to the next offer instead of consuming the caller.
	DefaultReadTimeout = 800 * time.Millisecond
	// DefaultFailureCooldown is how many subsequent resolutions skip (try
	// last) a holder after a failed attempt, so one down holder does not
	// tax the front of every read.
	DefaultFailureCooldown = 4
	// DefaultNegativeCacheSize bounds the negative-lookup cache.
	DefaultNegativeCacheSize = 1024
	// DefaultNegativeTTL bounds how stale a cached miss may grow: an id
	// created later at a remote-only site becomes readable again within
	// one TTL even if this site never writes and the policy never moves.
	DefaultNegativeTTL = 30 * time.Second
)

// OfferID builds the deterministic trader offer id for a (site, space)
// hosting claim.
func OfferID(site, space string) string { return "placement/" + site + "/" + space }

// ErrNoHolder reports a remote read that found no reachable replica
// holding the object.
var ErrNoHolder = errors.New("placement: no reachable holder")

type readReq struct {
	Actor    string `json:"actor"`
	ObjectID string `json:"objectId"`
}

type readResp struct {
	Site   string                 `json:"site"`
	Object information.WireObject `json:"object"`
}

type writeReq struct {
	Site   string                 `json:"site"`
	Object information.WireObject `json:"object"`
}

type writeResp struct {
	Site    string `json:"site"`
	Applied bool   `json:"applied"`
}

// ReadServerStats counts remote reads and forwarded writes served by a
// holder.
type ReadServerStats struct {
	Served int64 `metric:"remote_reads_served"` // reads answered with an object
	Missed int64 `metric:"remote_reads_missed"` // reads refused (unknown object or access denied)

	WritesAccepted int64 `metric:"writes_accepted"` // forwarded writes merged into the replica
	WritesRefused  int64 `metric:"writes_refused"`  // forwarded writes refused (not placed here)
}

// ReadServerOption configures a ReadServer.
type ReadServerOption func(*ReadServer)

// WithHolderPolicy lets the server refuse forwarded writes of objects
// this site is not placed for (the policy may have moved while the
// forward was in flight). A nil policy accepts every forward.
func WithHolderPolicy(p *Policy) ReadServerOption {
	return func(s *ReadServer) { s.policy = p }
}

// WithServerTelemetry attaches the deployment telemetry: a forwarded
// write that lands here re-tags the object with the serve-span context,
// so the WAL commit and later anti-entropy hops at this site parent
// under the forward instead of starting orphan traces.
func WithServerTelemetry(tel *observe.Telemetry) ReadServerOption {
	return func(s *ReadServer) {
		if tel != nil {
			s.objects = tel.Objects
		}
	}
}

// ReadServer serves MethodRead and MethodWrite for one site: remote
// readers resolve this site through the trader and read objects out of
// its replica; non-placed writers forward stranded rows in. Access
// control is the space's own — the shared ACL system means a grant made
// anywhere is effective here too.
type ReadServer struct {
	site    string
	space   func() *information.Space
	policy  *Policy
	objects *observe.ObjectTraces

	mu    sync.Mutex
	stats ReadServerStats
}

// NewReadServer registers the read and write handlers on the endpoint.
// space is a provider, not a pointer, because a crash/restart swaps the
// site's replica: reads must always hit the current one.
func NewReadServer(ep *rpc.Endpoint, site string, space func() *information.Space, opts ...ReadServerOption) *ReadServer {
	s := &ReadServer{site: site, space: space}
	for _, opt := range opts {
		opt(s)
	}
	ep.MustRegister(MethodRead, rpc.HandleJSON(func(_ netsim.Address, req readReq) (readResp, error) {
		obj, err := s.space().Get(req.Actor, req.ObjectID)
		if err != nil {
			s.bump(func(st *ReadServerStats) { st.Missed++ })
			return readResp{}, err
		}
		s.bump(func(st *ReadServerStats) { st.Served++ })
		return readResp{Site: s.site, Object: information.ToWire(obj)}, nil
	}))
	ep.MustRegister(MethodWrite, rpc.HandleJSONCtx(func(_ netsim.Address, tc wire.TraceContext, req writeReq) (writeResp, error) {
		obj := information.FromWire(req.Object)
		if s.policy != nil && s.policy.Selective() && !s.policy.PlacedAt(s.site, Describe(obj)) {
			// The space moved again while the forward was in flight: the
			// writer must keep its copy (or re-resolve).
			s.bump(func(st *ReadServerStats) { st.WritesRefused++ })
			return writeResp{}, fmt.Errorf("placement: site %q not placed for %q", s.site, obj.ID)
		}
		// Re-tag before applying: the apply fires write events (WAL
		// append, replicator dirtying) that look the context up by id.
		s.objects.Tag(obj.ID, tc)
		changed, _, err := s.space().Adopt(obj) // the decoder built obj for this call
		if err != nil {
			s.bump(func(st *ReadServerStats) { st.WritesRefused++ })
			return writeResp{}, err
		}
		s.bump(func(st *ReadServerStats) { st.WritesAccepted++ })
		return writeResp{Site: s.site, Applied: changed}, nil
	}))
	return s
}

// Stats returns a snapshot of the counters.
func (s *ReadServer) Stats() ReadServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *ReadServer) bump(fn func(*ReadServerStats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// ReaderStats counts remote resolutions issued by a non-placed site.
type ReaderStats struct {
	Reads    int64 `metric:"reads"`         // read-throughs attempted
	Served   int64 `metric:"reads_served"`  // read-throughs satisfied by some holder
	Attempts int64 `metric:"read_attempts"` // per-holder rpc attempts (retries across offers)
	NoHolder int64 `metric:"no_holder"`     // read-throughs that exhausted every offer

	NegativeHits    int64 `metric:"negative_hits"` // reads short-circuited by the negative cache
	NegativeStores  int64 // definitive misses recorded in the cache
	NegativeExpired int64 // cached misses dropped by the staleness TTL
	SkippedHolders  int64 // recently-failed holders deferred to the scan tail

	Forwards  int64 `metric:"forwards"`  // write forwards attempted
	Forwarded int64 `metric:"forwarded"` // write forwards a holder accepted
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader)

// WithReadTimeout bounds each holder attempt.
func WithReadTimeout(d time.Duration) ReaderOption {
	return func(r *Reader) { r.timeout = d }
}

// WithNegativeCache enables the negative-lookup cache scoped by the
// policy's version: a read that every reachable holder refused with
// "unknown object" (not a timeout, not an access denial) is remembered,
// so repeated reads of a missing id stop walking the trader offers. Any
// policy change, or any local/applied write at THIS site signalled
// through Bump, flushes the cache. Writes at other sites the policy
// keeps away from this replica do not reach Bump — an id that springs
// into existence remotely stays a cached miss until the next local
// write, policy change, or cache eviction; the cache trades that
// staleness window for not walking every offer on every repeated miss.
func WithNegativeCache(p *Policy) ReaderOption {
	return func(r *Reader) { r.policy = p }
}

// WithNegativeTTL bounds the staleness of cached misses: a negative
// entry older than ttl (by the given clock) is dropped and the read
// walks the holders again. This closes the staleness window documented
// on WithNegativeCache — an id that springs into existence at a
// remote-only site becomes readable within one TTL, without waiting for
// a local write, a policy change, or a capacity eviction. ttl <= 0 or a
// nil clock disables expiry (version/generation scoping still applies).
func WithNegativeTTL(ttl time.Duration, now func() time.Time) ReaderOption {
	return func(r *Reader) {
		r.negTTL = ttl
		r.now = now
	}
}

// WithReaderTelemetry attaches the deployment telemetry: Forward opens
// a child span under the originating write's trace (looked up by object
// id) and stamps every holder attempt with it, so the forward hop shows
// up between the local put and the holder-side serve span.
func WithReaderTelemetry(tel *observe.Telemetry) ReaderOption {
	return func(r *Reader) {
		if tel != nil {
			r.tracer = tel.Tracer
			r.objects = tel.Objects
		}
	}
}

// negEntry scopes one cached miss: valid only while both the policy
// version and the local write generation are unchanged, and — when a
// TTL is configured — only within the staleness bound of its store time.
type negEntry struct {
	policyVer uint64
	gen       uint64
	at        time.Time
}

// Reader performs trader-mediated remote resolutions for one site:
// reads of objects the local replica does not hold, and forwards of
// writes the site is not placed for. Holders are tried in deterministic
// offer order, except that recently-failed holders are deferred to the
// tail of the scan — a down first holder stops taxing every read — and
// definitive misses are negative-cached under the policy version.
type Reader struct {
	ep      *rpc.Endpoint
	trading *trader.Trader
	site    string
	timeout time.Duration
	policy  *Policy          // enables the negative cache when set
	negTTL  time.Duration    // bounded staleness of cached misses; 0 = no expiry
	now     func() time.Time // clock the TTL is measured against
	tracer  *observe.Tracer
	objects *observe.ObjectTraces

	mu    sync.Mutex
	stats ReaderStats
	neg   map[string]negEntry
	gen   uint64 // bumped by Bump (local/applied writes at this site)
	fails map[netsim.Address]int
}

// NewReader builds a reader resolving holders through the given trader.
func NewReader(ep *rpc.Endpoint, trading *trader.Trader, site string, opts ...ReaderOption) *Reader {
	r := &Reader{
		ep:      ep,
		trading: trading,
		site:    site,
		timeout: DefaultReadTimeout,
		neg:     make(map[string]negEntry),
		fails:   make(map[netsim.Address]int),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Stats returns a snapshot of the counters.
func (r *Reader) Stats() ReaderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Bump invalidates the negative cache: a write landed on (or was applied
// to, or evicted from) this site's replica, so cached misses may be
// stale. The deployment layer wires this to the site space's events.
func (r *Reader) Bump() {
	r.mu.Lock()
	r.gen++
	r.mu.Unlock()
}

// negHit reports whether a definitive miss for objID is cached and still
// valid under the current policy version and write generation.
func (r *Reader) negHit(objID string) bool {
	if r.policy == nil {
		return false
	}
	pv := r.policy.Version()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.neg[objID]
	if !ok {
		return false
	}
	if e.policyVer != pv || e.gen != r.gen {
		delete(r.neg, objID)
		return false
	}
	if r.negTTL > 0 && r.now != nil && r.now().Sub(e.at) > r.negTTL {
		delete(r.neg, objID)
		r.stats.NegativeExpired++
		return false
	}
	r.stats.NegativeHits++
	return true
}

// negStore records a definitive miss, evicting an arbitrary entry when
// the cache is full (entries are equally cheap to recompute).
func (r *Reader) negStore(objID string) {
	if r.policy == nil {
		return
	}
	pv := r.policy.Version()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.neg) >= DefaultNegativeCacheSize {
		for k := range r.neg {
			delete(r.neg, k)
			break
		}
	}
	e := negEntry{policyVer: pv, gen: r.gen}
	if r.negTTL > 0 && r.now != nil {
		e.at = r.now()
	}
	r.neg[objID] = e
	r.stats.NegativeStores++
}

// holderOrder partitions the candidate providers into fresh holders (in
// the given deterministic order) followed by recently-failed ones — the
// rotation that keeps a down holder off the front of the scan while the
// full scan remains the fallback. Each deferral consumes one unit of the
// holder's cooldown.
func (r *Reader) holderOrder(providers []netsim.Address) []netsim.Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	var fresh, cooled []netsim.Address
	for _, p := range providers {
		if left := r.fails[p]; left > 0 {
			r.fails[p] = left - 1
			if r.fails[p] == 0 {
				delete(r.fails, p)
			}
			cooled = append(cooled, p)
			r.stats.SkippedHolders++
			continue
		}
		fresh = append(fresh, p)
	}
	return append(fresh, cooled...)
}

// noteFailure puts a holder on cooldown; noteSuccess clears it.
func (r *Reader) noteFailure(p netsim.Address) {
	r.mu.Lock()
	r.fails[p] = DefaultFailureCooldown
	r.mu.Unlock()
}

func (r *Reader) noteSuccess(p netsim.Address) {
	r.mu.Lock()
	delete(r.fails, p)
	r.mu.Unlock()
}

// providers imports the placement offers and returns the candidate
// provider addresses in deterministic offer order, excluding this site
// and (when sites is non-nil) any site outside the set, de-duplicated.
func (r *Reader) providers(actor string, sites []string) ([]netsim.Address, error) {
	offers, err := r.trading.Import(trader.ImportRequest{ServiceType: ServiceType, Importer: actor})
	if err != nil {
		return nil, err
	}
	var allowed map[string]bool
	if sites != nil {
		allowed = make(map[string]bool, len(sites))
		for _, s := range sites {
			allowed[s] = true
		}
	}
	// One attempt per provider: several hosted spaces share a read
	// endpoint, and the reader cannot map an unknown id to a space.
	seen := make(map[netsim.Address]bool, len(offers))
	var out []netsim.Address
	for _, o := range offers {
		site := o.Properties.First(SiteProp)
		if site == r.site || seen[o.Provider] {
			continue
		}
		if allowed != nil && !allowed[site] {
			continue
		}
		seen[o.Provider] = true
		out = append(out, o.Provider)
	}
	return out, nil
}

// Read resolves the object through the trader and reads it from the
// first holder that answers, returning the object and the serving site.
// Holders are tried in offer-id order (deterministic), with
// recently-failed holders deferred to the tail; a holder that is down or
// does not have the object degrades the read to the next one. When every
// offer is exhausted the error wraps ErrNoHolder and carries the last
// holder failure — the useful message for "the sole holder is down".
// Misses every holder definitively refused are negative-cached (see
// WithNegativeCache) so the next read of the same id is immediate.
func (r *Reader) Read(actor, objID string) (*information.Object, string, error) {
	r.bump(func(s *ReaderStats) { s.Reads++ })
	if r.negHit(objID) {
		return nil, "", fmt.Errorf("%w for object %q (site %s, cached miss)", ErrNoHolder, objID, r.site)
	}
	candidates, err := r.providers(actor, nil)
	if err != nil {
		return nil, "", fmt.Errorf("placement: resolve %q: %w", objID, err)
	}
	var lastErr error
	attempts, definitive := 0, 0
	for _, provider := range r.holderOrder(candidates) {
		attempts++
		r.bump(func(s *ReaderStats) { s.Attempts++ })
		var resp readResp
		if err := r.ep.CallJSON(provider, MethodRead, readReq{Actor: actor, ObjectID: objID}, &resp,
			rpc.CallTimeout(r.timeout)); err != nil {
			var re *rpc.RemoteError
			if errors.As(err, &re) {
				// The holder answered, so it is healthy. Only an
				// unknown-object refusal is a definitive miss: an
				// access-denied answer is about THIS actor's grants, and
				// caching it would block every other actor's reads of a
				// row the holder does serve.
				if strings.Contains(re.Msg, information.ErrUnknownObject.Error()) {
					definitive++
				}
				r.noteSuccess(provider)
			} else {
				r.noteFailure(provider)
			}
			lastErr = err
			continue
		}
		r.noteSuccess(provider)
		r.bump(func(s *ReaderStats) { s.Served++ })
		return information.FromWire(resp.Object), resp.Site, nil
	}
	r.bump(func(s *ReaderStats) { s.NoHolder++ })
	if attempts > 0 && definitive == attempts {
		// Every holder was reached and none has the object: the miss is a
		// property of the information space, cacheable until something
		// writes or the policy moves.
		r.negStore(objID)
	}
	if lastErr != nil {
		return nil, "", fmt.Errorf("%w for object %q (site %s tried %d holders, last error: %v)",
			ErrNoHolder, objID, r.site, attempts, lastErr)
	}
	return nil, "", fmt.Errorf("%w for object %q (site %s found %d placement offers)",
		ErrNoHolder, objID, r.site, len(candidates))
}

// Forward routes a write that landed at this (non-placed) site to a
// placed holder, trader-resolved like a read-through but asynchronous —
// it is called from write-event callbacks under the simulated clock and
// must not block. Holders placed for the object are tried in the same
// failure-aware order as reads; done receives the accepting site, or an
// error wrapping ErrNoHolder when no placed holder is reachable (the
// caller then keeps its foreign copy — forwarding never destroys the
// only copy).
func (r *Reader) Forward(obj *information.Object, pl Placement, done func(site string, err error)) {
	if done == nil {
		done = func(string, error) {}
	}
	r.bump(func(s *ReaderStats) { s.Forwards++ })

	// Continue the originating write's trace across the async hop: the
	// put at this site tagged the object id with its root context, so
	// the forward span nests under it and every holder attempt carries
	// the forward span's context on the wire.
	forwardCtx, _ := r.objects.Lookup(obj.ID)
	var span observe.ActiveSpan
	if !forwardCtx.IsZero() && r.tracer.On() {
		span = r.tracer.StartChild("placement.forward", r.site, forwardCtx)
		span.SetAttr("object", obj.ID)
		forwardCtx = span.Context()
	}
	finish := func(site string, err error) {
		if err != nil {
			span.EndStatus("error")
		} else {
			span.SetAttr("holder", site)
			span.End()
		}
		done(site, err)
	}

	sites := pl.Sites
	if pl.Everywhere {
		sites = nil // any holder will do
	}
	candidates, err := r.providers(obj.Owner, sites)
	if err != nil {
		finish("", fmt.Errorf("placement: forward %q: %w", obj.ID, err))
		return
	}
	ordered := r.holderOrder(candidates)
	req := writeReq{Site: r.site, Object: information.ToWire(obj)}
	var attempt func(i int, lastErr error)
	attempt = func(i int, lastErr error) {
		if i >= len(ordered) {
			if lastErr != nil {
				finish("", fmt.Errorf("%w for forwarded write %q (site %s tried %d holders, last error: %v)",
					ErrNoHolder, obj.ID, r.site, len(ordered), lastErr))
			} else {
				finish("", fmt.Errorf("%w for forwarded write %q (site %s found no placed holder)",
					ErrNoHolder, obj.ID, r.site))
			}
			return
		}
		provider := ordered[i]
		r.bump(func(s *ReaderStats) { s.Attempts++ })
		r.ep.GoJSON(provider, MethodWrite, req, func(res rpc.Result) {
			var resp writeResp
			if err := res.Decode(&resp); err != nil {
				var re *rpc.RemoteError
				if errors.As(err, &re) {
					r.noteSuccess(provider) // reachable, just refused
				} else {
					r.noteFailure(provider)
				}
				attempt(i+1, err)
				return
			}
			r.noteSuccess(provider)
			r.bump(func(s *ReaderStats) { s.Forwarded++ })
			finish(resp.Site, nil)
		}, rpc.CallTimeout(r.timeout), rpc.CallTrace(forwardCtx))
	}
	attempt(0, nil)
}

func (r *Reader) bump(fn func(*ReaderStats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}
