package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mocca"
	"mocca/internal/access"
	"mocca/internal/core"
	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/rtc"
	"mocca/internal/trader"
	"mocca/internal/vclock"
)

// Infrastructure addresses the harness adds to a deployment. They live
// outside every site's address group, so chaos partitions (which list
// site addresses only) never cut users off from the DSA, the trading
// service, or the MCU — faults hit the replication/mail planes while the
// access plane stays up, which is where visibility lag becomes observable.
const (
	dsaAddr   = "dsa-hub"
	tradeAddr = "trade-hub"
	// tradeServiceType is the offer type the harness exports per site so
	// trader lookups have a non-empty, deterministic answer set.
	tradeServiceType = "cscw.collab"
)

// pendingWrite tracks one information write from local commit until every
// site has applied it (or a causally newer version of the object).
type pendingWrite struct {
	class     string
	origin    string // committing site
	vv        vclock.Version
	issued    time.Time
	remaining map[string]bool
}

// Harness drives one scenario against one deployment. It is single-
// goroutine by construction: every op issues from a simulated-clock
// callback, async rpc replies land on the same event loop, and all
// randomness flows from one seeded rng — which is what makes a run
// byte-reproducible.
type Harness struct {
	spec Spec
	org  *Org
	rng  *rand.Rand
	zipf *rand.Zipf

	dep   *mocca.Deployment
	clock *vclock.Simulated
	sites map[string]*mocca.Site
	uas   map[string]*mhs.UserAgent
	live  map[string]bool

	// arrive issues an op and arms the next arrival: bound once, so an
	// arrival costs its clock event, which the clock recycles.
	arrive func()

	// Each site's directory and trading clients, on its "load-" endpoint.
	duas      map[string]*directory.Client
	importers map[string]*trader.Client

	sessions map[string]*rtc.Session
	joined   map[string]bool
	rtcUsers []string

	// objIDs / objOwner / objActivity are the seeded object pool in
	// synthesis order; zipf indexes into it.
	objIDs      []string
	objActivity []string

	stats       map[string]*ClassStats
	pending     map[string][]*pendingWrite
	pendingMail map[string]time.Time

	faults   []Fault
	faultLog []string

	start  time.Time // traffic-phase start (simulated)
	cursor time.Duration
	seq    int64 // per-run op counter, used to vary payloads deterministically

	setupBytes int64 // every service's bytes out at start (Report.SetupBytes)
}

// Run executes the scenario and returns its report.
func Run(spec Spec) (*Report, error) {
	rep, _, err := run(spec)
	return rep, err
}

// RunTrace executes the scenario with telemetry forced on and also
// returns the deployment's telemetry plane, so callers (moccaload's
// -trace/-metrics flags) can export the span timeline and the metric
// families after the run.
func RunTrace(spec Spec) (*Report, *observe.Telemetry, error) {
	spec.Telemetry = true
	rep, h, err := run(spec)
	if err != nil {
		return nil, nil, err
	}
	return rep, h.dep.Telemetry(), nil
}

func run(spec Spec) (*Report, *Harness, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	h := &Harness{
		spec:        spec,
		sites:       make(map[string]*mocca.Site),
		uas:         make(map[string]*mhs.UserAgent),
		duas:        make(map[string]*directory.Client),
		importers:   make(map[string]*trader.Client),
		live:        make(map[string]bool),
		sessions:    make(map[string]*rtc.Session),
		joined:      make(map[string]bool),
		stats:       make(map[string]*ClassStats),
		pending:     make(map[string][]*pendingWrite),
		pendingMail: make(map[string]time.Time),
	}
	for _, c := range Classes {
		h.stats[c] = &ClassStats{Hist: &Histogram{}}
	}
	if err := h.build(); err != nil {
		return nil, nil, err
	}
	if err := h.seedObjects(); err != nil {
		return nil, nil, err
	}
	// Drain the seeding wave so traffic starts from a converged baseline:
	// visibility latencies then measure the run's own writes, not the
	// initial bulk load.
	if !h.advanceUntilConverged(h.spec.ConvergeTimeout) {
		return nil, nil, errors.New("workload: seed data did not converge before traffic start")
	}

	h.start = h.clock.Now()
	for _, prefix := range servicePrefixes {
		h.setupBytes += h.dep.Fabric().TotalsFor(prefix).BytesOut
	}
	h.scheduleFaults()
	h.armNextArrival()
	h.clock.Advance(h.spec.Duration)

	converged := h.advanceUntilConverged(h.spec.ConvergeTimeout)
	// A fixed post-convergence grace drains in-flight mail retries (a
	// recipient site that restarted late in the window is still being
	// redelivered to). Mail never touches the information space, so the
	// convergence verdict stands.
	h.clock.Advance(mailDrainGrace)
	return h.report(converged), h, nil
}

// mailDrainGrace is simulated, not wall-clock, time: one minute covers
// the MTA's full retry backoff ladder.
const mailDrainGrace = time.Minute

// --- construction --------------------------------------------------------

func (h *Harness) build() error {
	opts := []mocca.Option{
		mocca.WithSeed(h.spec.Seed),
		mocca.WithSyncInterval(h.spec.SyncInterval),
	}
	if h.spec.Topology == "gossip" {
		opts = append(opts, mocca.WithGossip())
	}
	if h.spec.Telemetry {
		opts = append(opts, mocca.WithTelemetry())
	}
	if h.spec.StoreDir != "" {
		opts = append(opts, mocca.WithDurableStore(h.spec.StoreDir))
	}
	h.dep = mocca.NewDeployment(opts...)
	h.clock = h.dep.Clock()
	h.rng = rand.New(rand.NewSource(h.spec.Seed))
	h.org = SynthesizeOrg(h.spec, h.rng)
	h.zipf = rand.NewZipf(h.rng, h.spec.ZipfS, h.spec.ZipfV, uint64(h.spec.Objects-1))

	for i, name := range h.org.Sites {
		site := h.dep.AddSite(name, h.org.Domains[i])
		h.sites[name] = site
		h.live[name] = true
		h.subscribeSite(name)
		site.MTA().Watch(h.onDeliver)
		ep := h.dep.ServiceEndpoint("load-" + name)
		h.duas[name] = directory.NewClient(ep, dsaAddr)
		h.importers[name] = trader.NewClient(ep, tradeAddr)
	}
	acl := h.dep.Env().Access()
	for _, u := range h.org.Users {
		h.uas[u.Name] = h.sites[u.Site].AddUser(u.Name)
		// The interchange space is organization-shared: anyone may read
		// and update. Without the grant the default-deny ACL would turn
		// every cross-user update into a denial.
		acl.GrantPrincipal(u.Name, access.OpRead, "*")
		acl.GrantPrincipal(u.Name, access.OpWrite, "*")
	}
	if err := h.seedDirectory(); err != nil {
		return err
	}
	directory.NewServer(h.dep.ServiceEndpoint(dsaAddr), h.dep.Env().Directory())
	trader.NewServer(h.dep.ServiceEndpoint(tradeAddr), h.dep.Env().Trader())
	for _, name := range h.org.Sites {
		if err := h.dep.RegisterTradingService(tradeServiceType, "wl-"+name, "load-"+name,
			map[string]string{"site": name}); err != nil {
			return err
		}
	}
	// Conference sessions exist up front (creation is local); joins are
	// traffic. A user in several activities confers in the first one.
	seen := make(map[string]bool)
	for _, act := range h.org.Activities {
		cid, err := h.dep.Conferencing().CreateConference(act.ID, rtc.ModeOpen)
		if err != nil {
			return err
		}
		for _, m := range act.Members {
			if seen[m] {
				continue
			}
			seen[m] = true
			sess, err := h.dep.NewConferenceSession(cid, m)
			if err != nil {
				return err
			}
			h.sessions[m] = sess
			h.rtcUsers = append(h.rtcUsers, m)
		}
	}
	sort.Strings(h.rtcUsers)
	return nil
}

func (h *Harness) seedDirectory() error {
	dit := h.dep.Env().Directory()
	add := func(dn string, attrs directory.Attributes) error {
		parsed, err := directory.ParseDN(dn)
		if err != nil {
			return err
		}
		if err := dit.Add(parsed, attrs); err != nil && !errors.Is(err, directory.ErrEntryExists) {
			return err
		}
		return nil
	}
	if err := add("o=mocca", directory.Attributes{"o": {"mocca"}}); err != nil {
		return err
	}
	for _, unit := range h.org.Units {
		if err := add("ou="+unit+",o=mocca", directory.Attributes{"ou": {unit}}); err != nil {
			return err
		}
	}
	for _, u := range h.org.Users {
		attrs := directory.Attributes{
			"cn":   {u.Name},
			"site": {u.Site},
			"mail": {u.Name + "@" + u.Site + ".example"},
		}
		if err := add(h.org.DN(u), attrs); err != nil {
			return err
		}
	}
	return nil
}

func (h *Harness) seedObjects() error {
	for _, o := range h.org.Objects {
		site := h.org.SiteOf(o.Owner)
		obj, err := h.sites[site].Space().Put(o.Owner, core.SharedSchemaName, map[string]string{
			"title":   "seed " + o.ID,
			"body":    "shared working material for " + o.Activity,
			"author":  o.Owner,
			"context": o.Activity,
		})
		if err != nil {
			return fmt.Errorf("workload: seed %s at %s: %w", o.ID, site, err)
		}
		h.objIDs = append(h.objIDs, obj.ID)
		h.objActivity = append(h.objActivity, o.Activity)
	}
	return nil
}

// subscribeSite (re)wires the write-visibility probe onto a site's current
// Space. Site.Restart swaps the Space object, so the chaos executor calls
// this again after every restart.
func (h *Harness) subscribeSite(name string) {
	h.sites[name].Space().Subscribe("", func(ev information.Event) {
		h.onSpaceEvent(name, ev)
	})
}

// --- traffic -------------------------------------------------------------

// meanOpsPerSec is the diurnal-average arrival rate across all users.
func (h *Harness) meanOpsPerSec() float64 {
	return float64(h.spec.Users) * h.spec.OpsPerUserHour / 3600
}

func (h *Harness) rateAt(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(h.spec.DiurnalPeriod)
	return h.meanOpsPerSec() * (1 + h.spec.DiurnalAmplitude*math.Sin(phase))
}

// armNextArrival schedules the next op via Lewis thinning: draw candidate
// arrivals at the diurnal peak rate, accept each with probability
// rate(t)/peak. Open loop: arrivals never wait for completions.
func (h *Harness) armNextArrival() {
	peak := h.meanOpsPerSec() * (1 + h.spec.DiurnalAmplitude)
	for {
		h.cursor += time.Duration(h.rng.ExpFloat64() / peak * float64(time.Second))
		if h.cursor >= h.spec.Duration {
			return
		}
		if h.rng.Float64() > h.rateAt(h.cursor)/peak {
			continue
		}
		at := h.start.Add(h.cursor)
		if h.arrive == nil {
			h.arrive = func() {
				h.issueOp()
				h.armNextArrival()
			}
		}
		h.clock.Schedule(at.Sub(h.clock.Now()), h.arrive)
		return
	}
}

func (h *Harness) issueOp() {
	h.seq++
	w := h.spec.Mix.weights()
	var total float64
	for _, x := range w {
		total += x
	}
	pick := h.rng.Float64() * total
	idx := 0
	for i, x := range w {
		if pick < x || i == len(w)-1 {
			idx = i
			break
		}
		pick -= x
	}
	user := h.org.Users[h.rng.Intn(len(h.org.Users))]
	switch Classes[idx] {
	case ClassWrite:
		h.opWrite(user)
	case ClassUpdate:
		h.opUpdate(user)
	case ClassMail:
		h.opMail(user)
	case ClassDir:
		h.opDirLookup(user)
	case ClassTrade:
		h.opTradeLookup(user)
	case ClassJoin:
		h.opJoin()
	case ClassSet:
		h.opSet()
	}
}

// trackWrite registers a committed write for visibility tracking across
// every other site. The writer's own "put"/"update" event fired
// synchronously inside the commit, before registration — hence the
// exclusion. A single-site deployment is visible immediately.
func (h *Harness) trackWrite(class string, obj *information.Object, committedAt string) {
	st := h.stats[class]
	remaining := make(map[string]bool, len(h.org.Sites)-1)
	for _, s := range h.org.Sites {
		if s != committedAt {
			remaining[s] = true
		}
	}
	if len(remaining) == 0 {
		st.Completed++
		st.Hist.Observe(0)
		return
	}
	h.pending[obj.ID] = append(h.pending[obj.ID], &pendingWrite{
		class:     class,
		origin:    committedAt,
		vv:        obj.VV.Clone(),
		issued:    h.clock.Now(),
		remaining: remaining,
	})
}

// dropLostWrites retires pending writes that a lossy crash destroyed: the
// committing site went down without a durable store (or with its WAL tail
// torn) before any peer applied the write, so no replica can ever
// propagate it. They count as failed, not slow — an honest open-loop
// harness reports durability loss instead of waiting for it forever.
func (h *Harness) dropLostWrites(site string) {
	ids := make([]string, 0, len(h.pending))
	for id := range h.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		list := h.pending[id]
		keep := list[:0]
		for _, p := range list {
			if p.origin == site && len(p.remaining) == len(h.org.Sites)-1 {
				h.stats[p.class].Failed++
				continue
			}
			keep = append(keep, p)
		}
		if len(keep) == 0 {
			delete(h.pending, id)
		} else {
			h.pending[id] = keep
		}
	}
}

func (h *Harness) opWrite(u User) {
	st := h.stats[ClassWrite]
	st.Issued++
	if !h.live[u.Site] {
		st.Skipped++
		return
	}
	act := h.org.Activities[h.rng.Intn(len(h.org.Activities))]
	obj, err := h.sites[u.Site].Space().Put(u.Name, core.SharedSchemaName, map[string]string{
		"title":   fmt.Sprintf("note %d", h.seq),
		"body":    fmt.Sprintf("drafted by %s for %s", u.Name, act.ID),
		"author":  u.Name,
		"context": act.ID,
	})
	if err != nil {
		st.Failed++
		return
	}
	h.trackWrite(ClassWrite, obj, u.Site)
}

func (h *Harness) opUpdate(u User) {
	st := h.stats[ClassUpdate]
	st.Issued++
	if !h.live[u.Site] {
		st.Skipped++
		return
	}
	i := int(h.zipf.Uint64())
	sp := h.sites[u.Site].Space()
	cur, err := sp.Get(u.Name, h.objIDs[i])
	if err != nil {
		st.Failed++
		return
	}
	obj, err := sp.Update(u.Name, cur.ID, cur.Version, map[string]string{
		"body":   fmt.Sprintf("rev %d by %s", h.seq, u.Name),
		"author": u.Name,
	})
	if err != nil {
		st.Failed++
		return
	}
	h.trackWrite(ClassUpdate, obj, u.Site)
}

func (h *Harness) opMail(u User) {
	st := h.stats[ClassMail]
	st.Issued++
	if !h.live[u.Site] {
		st.Skipped++
		return
	}
	rcpt := h.org.Users[h.rng.Intn(len(h.org.Users))]
	id, err := h.uas[u.Name].Send([]mhs.ORName{h.uas[rcpt.Name].Name},
		fmt.Sprintf("update %d", h.seq), "status report")
	if err != nil {
		st.Failed++
		return
	}
	h.pendingMail[id] = h.clock.Now()
}

// onDeliver completes a tracked mail on its arrival in the recipient
// mailbox. Unknown messages (probes, duplicate redeliveries) are ignored.
func (h *Harness) onDeliver(_ mhs.ORName, msg *mhs.StoredMessage) {
	t0, ok := h.pendingMail[msg.Envelope.MessageID]
	if !ok {
		return
	}
	delete(h.pendingMail, msg.Envelope.MessageID)
	st := h.stats[ClassMail]
	st.Completed++
	st.Hist.Observe(h.clock.Now().Sub(t0))
}

func (h *Harness) opDirLookup(u User) {
	st := h.stats[ClassDir]
	st.Issued++
	target := h.org.Users[h.rng.Intn(len(h.org.Users))]
	t0 := h.clock.Now()
	h.duas[u.Site].GoSearch("ou="+target.Unit+",o=mocca", directory.ScopeSubtree, "(cn="+target.Name+")", 8,
		func(entries []*directory.Entry, err error) {
			if err != nil || len(entries) == 0 {
				st.Failed++
				return
			}
			st.Completed++
			st.Hist.Observe(h.clock.Now().Sub(t0))
		})
}

func (h *Harness) opTradeLookup(u User) {
	st := h.stats[ClassTrade]
	st.Issued++
	t0 := h.clock.Now()
	h.importers[u.Site].GoImport(trader.ImportRequest{ServiceType: tradeServiceType, MaxOffers: 3},
		func(offers []trader.Offer, err error) {
			if err != nil || len(offers) == 0 {
				st.Failed++
				return
			}
			st.Completed++
			st.Hist.Observe(h.clock.Now().Sub(t0))
		})
}

func (h *Harness) opJoin() {
	st := h.stats[ClassJoin]
	st.Issued++
	m := h.rtcUsers[h.rng.Intn(len(h.rtcUsers))]
	if h.joined[m] {
		st.Skipped++
		return
	}
	t0 := h.clock.Now()
	h.sessions[m].GoJoin(func(err error) {
		if err != nil {
			st.Failed++
			return
		}
		h.joined[m] = true
		st.Completed++
		st.Hist.Observe(h.clock.Now().Sub(t0))
	})
}

func (h *Harness) opSet() {
	st := h.stats[ClassSet]
	st.Issued++
	m := h.rtcUsers[h.rng.Intn(len(h.rtcUsers))]
	if !h.joined[m] {
		st.Skipped++
		return
	}
	t0 := h.clock.Now()
	h.sessions[m].GoSet(fmt.Sprintf("cursor-%s", m), fmt.Sprintf("pos %d", h.seq), func(err error) {
		if err != nil {
			st.Failed++
			return
		}
		st.Completed++
		st.Hist.Observe(h.clock.Now().Sub(t0))
	})
}

// onSpaceEvent resolves pending writes as their versions surface at each
// site. A causally newer version counts: an update superseded under LWW
// still became visible — merged — everywhere.
func (h *Harness) onSpaceEvent(site string, ev information.Event) {
	if ev.Object == nil {
		return
	}
	list, ok := h.pending[ev.Object.ID]
	if !ok {
		return
	}
	keep := list[:0]
	for _, p := range list {
		if p.remaining[site] {
			if ord := ev.Object.VV.Compare(p.vv); ord == vclock.Equal || ord == vclock.After {
				delete(p.remaining, site)
			}
		}
		if len(p.remaining) == 0 {
			st := h.stats[p.class]
			st.Completed++
			st.Hist.Observe(h.clock.Now().Sub(p.issued))
			continue
		}
		keep = append(keep, p)
	}
	if len(keep) == 0 {
		delete(h.pending, ev.Object.ID)
	} else {
		h.pending[ev.Object.ID] = keep
	}
}

// --- chaos ---------------------------------------------------------------

func (h *Harness) scheduleFaults() {
	h.faults = h.spec.Faults
	if h.faults == nil && h.spec.Chaos != nil {
		h.faults = generateFaults(h.spec, h.org, h.rng)
	}
	sort.SliceStable(h.faults, func(i, j int) bool { return h.faults[i].At < h.faults[j].At })
	for _, f := range h.faults {
		f := f
		h.faultLog = append(h.faultLog, f.String())
		h.clock.Schedule(f.At, func() { h.applyFault(f) })
	}
}

func (h *Harness) applyFault(f Fault) {
	switch f.Kind {
	case "crash", "tornwal":
		site, ok := h.sites[f.Site]
		if !ok || !h.live[f.Site] {
			return
		}
		site.Crash()
		h.live[f.Site] = false
		if f.Kind == "tornwal" {
			h.tearWAL(f.Site, f.TornBytes)
		}
		if h.spec.StoreDir == "" || f.Kind == "tornwal" {
			// No WAL to recover from (or a torn one): writes nobody else
			// has applied yet died with the site.
			h.dropLostWrites(f.Site)
		}
		h.clock.Schedule(f.Duration, func() {
			if err := site.Restart(); err != nil {
				h.faultLog = append(h.faultLog, "restart "+f.Site+" failed: "+err.Error())
				return
			}
			h.live[f.Site] = true
			h.subscribeSite(f.Site)
		})
	case "partition":
		inA := make(map[string]bool, len(f.Sites))
		for _, s := range f.Sites {
			inA[s] = true
		}
		var a, b []netsim.Address
		for _, s := range h.org.Sites {
			if inA[s] {
				a = append(a, h.sites[s].Addrs()...)
			} else {
				b = append(b, h.sites[s].Addrs()...)
			}
		}
		h.dep.Network().Partition(a, b)
		h.clock.Schedule(f.Duration, func() { h.dep.Network().Heal() })
	case "slowlink":
		slow := netsim.LinkProfile{Latency: 400 * time.Millisecond, Loss: 0.2}
		normal := netsim.LinkProfile{Latency: 20 * time.Millisecond}
		a := netsim.Address("repl-" + f.Site)
		b := netsim.Address("repl-" + f.Peer)
		h.dep.Network().SetLink(a, b, slow)
		h.dep.Network().SetLink(b, a, slow)
		h.clock.Schedule(f.Duration, func() {
			h.dep.Network().SetLink(a, b, normal)
			h.dep.Network().SetLink(b, a, normal)
		})
	}
}

// tearWAL truncates the tail of a crashed site's write-ahead log,
// modelling a torn final write that the crash interrupted. Recovery must
// drop the torn suffix and anti-entropy must re-fetch whatever was lost.
func (h *Harness) tearWAL(site string, tornBytes int) {
	path := filepath.Join(h.spec.StoreDir, site, "wal.log")
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	size := info.Size() - int64(tornBytes)
	if size < 0 {
		size = 0
	}
	_ = os.Truncate(path, size)
}

// generateFaults derives a fault timeline from the run seed. Everything
// lands inside [10%, 70%] of the traffic window and heals by 90%, so a
// chaotic run always gets a fault-free tail before convergence is judged.
func generateFaults(spec Spec, org *Org, rng *rand.Rand) []Fault {
	c := spec.Chaos
	var out []Fault
	window := func() (at, dur time.Duration) {
		lo, hi := spec.Duration/10, spec.Duration*7/10
		if hi <= lo {
			hi = lo + 1
		}
		at = lo + time.Duration(rng.Int63n(int64(hi-lo)))
		dur = c.OutageMin + time.Duration(rng.Int63n(int64(c.OutageMax-c.OutageMin)+1))
		if at+dur > spec.Duration*9/10 {
			dur = spec.Duration*9/10 - at
		}
		return at, dur
	}
	crashes := c.Crashes
	if crashes > len(org.Sites)-1 {
		crashes = len(org.Sites) - 1 // never crash the whole organization
	}
	perm := rng.Perm(len(org.Sites))
	for i := 0; i < crashes; i++ {
		at, dur := window()
		f := Fault{At: at, Kind: "crash", Site: org.Sites[perm[i]], Duration: dur}
		if i < c.TornTails {
			f.Kind = "tornwal"
			f.TornBytes = 1 + rng.Intn(64)
		}
		out = append(out, f)
	}
	for i := 0; i < c.Partitions; i++ {
		at, dur := window()
		p := rng.Perm(len(org.Sites))
		half := len(org.Sites) / 2
		group := make([]string, 0, half)
		for _, j := range p[:half] {
			group = append(group, org.Sites[j])
		}
		sort.Strings(group)
		out = append(out, Fault{At: at, Kind: "partition", Sites: group, Duration: dur})
	}
	for i := 0; i < c.SlowLinks; i++ {
		at, dur := window()
		p := rng.Perm(len(org.Sites))
		out = append(out, Fault{At: at, Kind: "slowlink",
			Site: org.Sites[p[0]], Peer: org.Sites[p[1]], Duration: dur})
	}
	return out
}

// --- convergence ---------------------------------------------------------

// advanceUntilConverged advances simulated time event-by-event until every
// site is live with identical Merkle roots and object counts, or until
// budget elapses (or the event queue drains) first.
func (h *Harness) advanceUntilConverged(budget time.Duration) bool {
	deadline := h.clock.Now().Add(budget)
	for !h.rootsConverged() {
		d, ok := h.clock.NextDeadline()
		if !ok || d.After(deadline) {
			return h.rootsConverged()
		}
		h.clock.AdvanceTo(d)
	}
	return true
}

func (h *Harness) rootsConverged() bool {
	var root uint64
	var count, first = 0, true
	for _, name := range h.org.Sites {
		if !h.live[name] {
			return false
		}
		sp := h.sites[name].Space()
		if first {
			root, count, first = sp.Tree().Root(), sp.Len(), false
			continue
		}
		if sp.Tree().Root() != root || sp.Len() != count {
			return false
		}
	}
	return true
}
