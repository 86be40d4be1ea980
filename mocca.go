// Package mocca is the public API of the Open CSCW environment — a Go
// reproduction of the system envisioned in "Open CSCW Systems: Will ODP
// help?" (Navarro, Prinz, Rodden; ICDCS 1992).
//
// The package assembles a complete simulated deployment: an ODP-style
// substrate (simulated network, rpc, X.500-style directory, ODP trader,
// X.400-style message handling, synchronous conferencing) with the MOCCA
// CSCW environment on top (organisational, inter-activity, information,
// communication, and user-expertise models; role-based access control;
// user-selectable transparency; an ECA tailorability engine).
//
// Quickstart:
//
//	dep := mocca.NewDeployment(mocca.WithSeed(1))
//	site := dep.AddSite("gmd", "gmd.de")
//	ua := site.AddUser("prinz")
//	...
//	dep.Run() // drain the simulated network to quiescence
//
// See examples/ for complete programs.
package mocca

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mocca/internal/channel"
	"mocca/internal/comm"
	"mocca/internal/core"
	"mocca/internal/directory"
	"mocca/internal/engineering"
	"mocca/internal/gossip"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/placement"
	"mocca/internal/replica"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
	"mocca/internal/trader"
	"mocca/internal/vclock"
)

// Re-exported core types, so applications program against the root package.
type (
	// Environment is the CSCW environment (figure 3/4 of the paper).
	Environment = core.Environment
	// Application describes a registering CSCW application.
	Application = core.Application
	// Message is the communication-model exchange unit.
	Message = comm.Message
	// ORName is an X.400-style originator/recipient name.
	ORName = mhs.ORName
	// UserAgent is an MHS submission/retrieval agent.
	UserAgent = mhs.UserAgent
	// ConferenceSession is a synchronous conferencing client.
	ConferenceSession = rtc.Session
)

// SharedSchemaName is the environment's interchange schema.
const SharedSchemaName = core.SharedSchemaName

// Conference modes.
const (
	// ConferenceOpen lets any member update shared state.
	ConferenceOpen = rtc.ModeOpen
	// ConferenceModerated requires holding the floor to update.
	ConferenceModerated = rtc.ModeFloor
)

// Option configures a Deployment.
type Option func(*Deployment)

// WithSeed fixes the simulation seed (default 1992).
func WithSeed(seed int64) Option {
	return func(d *Deployment) { d.seed = seed }
}

// WithDefaultLink sets network characteristics between sites.
func WithDefaultLink(latency time.Duration, loss float64) Option {
	return func(d *Deployment) {
		d.link = netsim.LinkProfile{Latency: latency, Loss: loss}
	}
}

// WithSyncInterval sets the anti-entropy interval for the per-site
// information replicas (default one second of simulated time).
func WithSyncInterval(interval time.Duration) Option {
	return func(d *Deployment) { d.syncEvery = interval }
}

// WithPlacement seeds the deployment's placement policy with rules, so
// partial replication is in force from the first site: each site only
// replicates the information spaces placed at it, resolves everything
// else through trader-mediated remote reads, and the policy can be
// re-tailored at runtime via Deployment.SetPlacementRules. Without this
// option the policy is the deterministic replicate-everywhere default —
// existing deployments are unchanged.
func WithPlacement(rules ...placement.Rule) Option {
	return func(d *Deployment) { d.placeRules = rules }
}

// WithGossip replaces the full-mesh site peering with the epidemic
// overlay (internal/gossip): each site maintains a partial active view
// of ~⌈log₂ n⌉+c peers discovered through trader membership offers, runs
// anti-entropy only against that view, and races fresh writes ahead of
// the sync rounds as rumors. The replicator's peer set follows the view
// (churn adds, removes and re-arms peers), so per-site channel counts
// and sync bytes scale with log n instead of n — the configuration for
// deployments past a few dozen sites. Without this option the full mesh
// remains the default and nothing changes. opts pass through to every
// site's overlay.
func WithGossip(opts ...gossip.Option) Option {
	return func(d *Deployment) {
		d.gossip = true
		d.gossipOpts = opts
	}
}

// WithSiteBackend supplies per-site information storage: the factory is
// called when a site's replica is materialised (AddSite) and again on
// Site.Restart, so a durable backend re-opened by the factory recovers
// the replica from disk. AddSite panics if the factory fails — a
// deployment whose storage cannot open has nothing sensible to simulate.
func WithSiteBackend(fn func(site string) (information.Backend, error)) Option {
	return func(d *Deployment) { d.backendFor = fn }
}

// WithDurableStore keeps every site's information replica in a tiered
// log-structured store under dir/<site> (write-ahead log + sorted
// segment files + manifest, see internal/information/logstore). A site
// killed with Site.Crash and brought back with Site.Restart recovers
// its replica from disk and re-enters anti-entropy with correct
// digests, so peers send it only what it missed. Store tuning knobs —
// logstore.WithFsync, WithGroupCommit, WithCompactEvery,
// WithMergeFanout, WithBackgroundMerge — pass through to every site's
// store, first boot and restart alike.
func WithDurableStore(dir string, opts ...logstore.Option) Option {
	return WithSiteBackend(func(site string) (information.Backend, error) {
		return logstore.Open(filepath.Join(dir, site), opts...)
	})
}

// Deployment is a full simulated multi-site installation.
type Deployment struct {
	seed       int64
	link       netsim.LinkProfile
	syncEvery  time.Duration
	backendFor func(site string) (information.Backend, error)
	placeRules []placement.Rule
	gossip     bool
	gossipOpts []gossip.Option
	telemetry  bool
	telOpts    []observe.Option
	tel        *observe.Telemetry

	clock  *vclock.Simulated
	net    *netsim.Network
	env    *core.Environment
	ids    *id.Generator
	fabric *engineering.Fabric

	mcu          *rtc.Server
	sites        map[string]*Site
	backends     map[string]information.Backend
	userEPs      map[netsim.Address]*rpc.Endpoint
	userSessions map[netsim.Address]*rtc.Session
	userSites    map[string]string // personal name -> site, for activity placement
	placedOffers []string          // trader offer ids exported for placement
}

// Site is one organisation's installation: an MTA, local users, and the
// site's replica of the information space kept convergent by channel-borne
// anti-entropy sync.
type Site struct {
	Name   string
	Domain string

	dep        *Deployment
	mta        *mhs.MTA
	env        *core.SiteEnv
	repl       *replica.Replicator
	replEP     *rpc.Endpoint // the replicator's endpoint; closed on Crash
	readEP     *rpc.Endpoint // the placement read endpoint; closed on Crash
	reader     *placement.Reader
	readServer *placement.ReadServer
	gossipEP   *rpc.Endpoint   // the overlay's endpoint; closed on Crash (gossip mode)
	overlay    *gossip.Overlay // nil unless the deployment runs WithGossip
	crashed    bool
}

// NewDeployment builds the simulated substrate and environment.
func NewDeployment(opts ...Option) *Deployment {
	d := &Deployment{
		seed:         1992,
		link:         netsim.LinkProfile{Latency: 20 * time.Millisecond},
		syncEvery:    replica.DefaultInterval,
		sites:        make(map[string]*Site),
		backends:     make(map[string]information.Backend),
		userEPs:      make(map[netsim.Address]*rpc.Endpoint),
		userSessions: make(map[netsim.Address]*rtc.Session),
		userSites:    make(map[string]string),
	}
	for _, opt := range opts {
		opt(d)
	}
	d.clock = vclock.NewSimulated(netsim.DefaultEpoch)
	if d.telemetry {
		d.tel = observe.New(d.seed, d.clock.Now, d.telOpts...)
	}
	d.net = netsim.New(
		netsim.WithClock(d.clock),
		netsim.WithSeed(d.seed),
		netsim.WithDefaultLink(d.link),
	)
	d.ids = id.NewSeeded(d.seed)
	if d.tel != nil {
		d.registerCollectors()
	}
	envOpts := []core.Option{core.WithIDs(d.ids)}
	if d.backendFor != nil {
		envOpts = append(envOpts, core.WithSiteBackend(d.openBackend))
	}
	d.env = core.New(d.clock, envOpts...)
	d.fabric = engineering.NewFabric()

	// Placement: seed the policy before subscribing, so construction does
	// not fire a (pointless) migration pass; later rule changes re-export
	// trader offers, migrate rows off de-placed sites and kick sync.
	if len(d.placeRules) > 0 {
		d.env.Placement().Use(d.placeRules...)
	}
	d.env.Placement().Subscribe(d.onPlacementChange)
	d.env.SetReadThrough(func(fromSite, actor, objID string) (*information.Object, string, error) {
		site, ok := d.sites[fromSite]
		if !ok {
			return nil, "", fmt.Errorf("mocca: read-through from unknown site %q", fromSite)
		}
		return site.reader.Read(actor, objID)
	})

	d.mcu = rtc.NewServer(d.newEndpoint("mcu"), d.clock, rtc.WithIDs(d.ids))

	// A healed partition or a recovered node is the moment diverged
	// replicas can reconcile: kick an immediate sync round on every site
	// (replicators that went dormant on the failure cap wake up; converged
	// ones run one cheap no-op round).
	d.net.OnHeal(func() {
		if d.gossip {
			// Re-knit the overlay first: demoted cross-partition peers
			// rejoin active views, so the sync rounds kicked next reach
			// across the healed cut.
			d.mendGossip()
		}
		d.SyncInformation()
	})
	d.net.OnRecover(func(addr netsim.Address) {
		// Only a replication node coming back can have reconciliation
		// work; restarts of MTAs, the MCU or user nodes don't warrant a
		// full-mesh digest exchange.
		if strings.HasPrefix(string(addr), "repl-") {
			d.SyncInformation()
		}
	})
	return d
}

// newEndpoint creates a node and its rpc endpoint with the deployment's
// engineering fabric observing the channel stack, so every channel the
// deployment opens shows up in the engineering bookkeeping.
func (d *Deployment) newEndpoint(addr netsim.Address) *rpc.Endpoint {
	return d.endpointOver(d.net.MustAddNode(addr))
}

// endpointAt is newEndpoint for an address whose node may already exist:
// restarts keep the node (the address is the site's stable network
// identity) and hand its inbound traffic to a fresh channel stack, which
// is what a rebooted engineering capsule looks like on the wire.
func (d *Deployment) endpointAt(addr netsim.Address) *rpc.Endpoint {
	if node, ok := d.net.Node(addr); ok {
		return d.endpointOver(node)
	}
	return d.newEndpoint(addr)
}

// endpointOver is the one place deployment endpoints are wired, so every
// endpoint — first boot or restart — gets identical options.
func (d *Deployment) endpointOver(node *netsim.Node) *rpc.Endpoint {
	chOpts := []channel.Option{channel.WithObserver(d.fabric)}
	opts := []rpc.Option{rpc.WithIDs(d.ids)}
	if d.tel != nil {
		opts = append(opts, rpc.WithTelemetry(d.tel))
		chOpts = append(chOpts,
			channel.WithTelemetry(d.tel),
			channel.WithNamedInterceptor("trace", channel.TracingInterceptor(d.tel.Tracer)))
	}
	opts = append(opts, rpc.WithChannel(chOpts...))
	return rpc.NewEndpoint(node, d.clock, opts...)
}

// openBackend runs the configured backend factory for a site, tracking
// the result so Crash can close it. It panics on factory failure — see
// WithSiteBackend.
func (d *Deployment) openBackend(site string) information.Backend {
	b, err := d.backendFor(site)
	if err != nil {
		panic(fmt.Sprintf("mocca: open information backend for site %q: %v", site, err))
	}
	if st, ok := b.(interface {
		SetTelemetry(*observe.Telemetry, string)
	}); ok && d.tel != nil {
		st.SetTelemetry(d.tel, site)
	}
	d.backends[site] = b
	return b
}

// Env returns the CSCW environment.
func (d *Deployment) Env() *core.Environment { return d.env }

// Conferencing returns the synchronous conference server.
func (d *Deployment) Conferencing() *rtc.Server { return d.mcu }

// Network returns the simulated network (for partitions, stats).
func (d *Deployment) Network() *netsim.Network { return d.net }

// Fabric returns the engineering-viewpoint bookkeeping of the live
// channels: nodes, per-channel epochs and counters.
func (d *Deployment) Fabric() *engineering.Fabric { return d.fabric }

// ChannelStats lists every live channel with its traffic counters, sorted
// by (local, remote) — the per-channel view figure 4 promises the
// infrastructure can provide for all interactions.
func (d *Deployment) ChannelStats() []engineering.ChannelInfo {
	return d.fabric.Channels()
}

// ReconcileChannels verifies that the engineering bookkeeping agrees with
// the network's own counters, i.e. that no traffic bypassed the channel
// stack. Returns nil when they agree.
func (d *Deployment) ReconcileChannels() error {
	s := d.net.Stats()
	return d.fabric.Reconcile(s.Sent, s.Delivered, s.Bytes)
}

// Clock returns the simulated clock.
func (d *Deployment) Clock() *vclock.Simulated { return d.clock }

// AddSite creates a site: one MTA serving the given domain, routed to all
// existing sites (full mesh), plus the site's information-space replica
// with its anti-entropy replicator peered the same way — scoped by the
// deployment's placement policy — and a placement read endpoint serving
// trader-mediated remote reads of the spaces hosted here.
func (d *Deployment) AddSite(name, domain string) *Site {
	addr := netsim.Address("mta-" + name)
	mta := mhs.NewMTA(string(addr), domain, d.newEndpoint(addr), d.clock, mhs.WithIDs(d.ids))
	senv := d.env.SiteEnv(name)
	replEP := d.newEndpoint(netsim.Address("repl-" + name))
	repl := replica.New(replEP, d.clock, senv.Space(), d.replicaOptions()...)
	site := &Site{Name: name, Domain: domain, dep: d, mta: mta, env: senv, repl: repl, replEP: replEP}
	site.readEP = d.newEndpoint(site.readAddr())
	site.reader = placement.NewReader(site.readEP, d.env.Trader(), name,
		placement.WithNegativeCache(d.env.Placement()),
		placement.WithNegativeTTL(placement.DefaultNegativeTTL, d.clock.Now),
		placement.WithReaderTelemetry(d.tel))
	site.readServer = placement.NewReadServer(site.readEP, name,
		func() *information.Space { return site.env.Space() },
		placement.WithHolderPolicy(d.env.Placement()),
		placement.WithServerTelemetry(d.tel))
	d.wireSiteSpace(site)
	for _, other := range d.sites {
		mta.AddRoute(other.Domain, other.mta.Addr())
		other.mta.AddRoute(domain, mta.Addr())
		if !d.gossip {
			repl.AddPeerNamed(other.Name, other.repl.Addr())
			other.repl.AddPeerNamed(name, repl.Addr())
		}
	}
	repl.AutoSync(d.syncEvery)
	if d.gossip {
		// Overlay mode: the replicator's peer set follows the active view;
		// joining the overlay (below) adds the first peers, and the
		// OnChange hook runs the immediate first sync that pulls existing
		// state from them.
		d.wireSiteGossip(site)
	} else if len(d.sites) > 0 {
		// A site joining an established deployment pulls the existing
		// information state with an immediate first round — otherwise its
		// replica stays empty until something else wakes the dormant mesh.
		repl.SyncNow()
	}
	d.sites[name] = site
	d.refreshPlacementOffers()
	return site
}

// wireSiteGossip creates the site's overlay agent on its own gossip
// endpoint, advertises it as a trader membership offer, couples the
// replicator's peer set to active-view churn, and joins the overlay.
func (d *Deployment) wireSiteGossip(s *Site) {
	opts := []gossip.Option{
		gossip.WithSeed(d.seed),
		gossip.WithTelemetry(d.tel),
		gossip.WithContacts(d.gossipContacts),
		gossip.WithBias(d.gossipBias(s.Name)),
		gossip.WithOnChange(func(added, removed []gossip.Peer) {
			for _, p := range removed {
				s.repl.RemovePeer(p.Repl)
			}
			for _, p := range added {
				s.repl.AddPeerNamed(p.Site, p.Repl)
			}
			if len(added) > 0 && !s.crashed {
				// View churn re-arms anti-entropy: a fresh peer may hold
				// state this site has never seen (late join, post-heal).
				s.repl.SyncNow()
			}
		}),
	}
	opts = append(opts, d.gossipOpts...)
	s.gossipEP = d.endpointAt(s.gossipAddr())
	s.overlay = gossip.New(s.gossipEP, d.clock, s.Name, s.replAddr(), s.repl, opts...)
	// A failing sync round is the overlay's partition detector: the
	// membership layer may be dormant when a cut lands, but anti-entropy
	// trips over it immediately and Suspect re-probes the views.
	s.repl.OnRoundFailure(s.overlay.Suspect)
	d.exportGossipOffer(s)
	s.overlay.Join()
}

// gossipContacts resolves the advertised overlay membership from the
// trader: one peer per live site's membership offer.
func (d *Deployment) gossipContacts() []gossip.Peer {
	tr := d.env.Trader()
	if !tr.HasType(gossip.ServiceType) {
		return nil
	}
	offers, err := tr.Import(trader.ImportRequest{ServiceType: gossip.ServiceType})
	if err != nil {
		return nil
	}
	out := make([]gossip.Peer, 0, len(offers))
	for _, of := range offers {
		out = append(out, gossip.Peer{
			Site: of.Properties.First(gossip.SiteProp),
			Addr: of.Provider,
			Repl: netsim.Address(of.Properties.First(gossip.ReplProp)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// gossipBias ranks a peer site by how many placement assignments it
// shares with self — the interest-set bias that makes sites gossip hot
// spaces with placed peers first. Non-selective policies rank everyone
// equally.
func (d *Deployment) gossipBias(self string) func(site string) int {
	pol := d.env.Placement()
	hosts := func(a placement.Assignment, site string) bool {
		if len(a.Sites) == 0 {
			return true
		}
		for _, s := range a.Sites {
			if s == site {
				return true
			}
		}
		return false
	}
	return func(site string) int {
		if !pol.Selective() {
			return 0
		}
		shared := 0
		for _, a := range pol.Assignments() {
			if hosts(a, self) && hosts(a, site) {
				shared++
			}
		}
		return shared
	}
}

// exportGossipOffer (re-)advertises the site's overlay membership in the
// trader. Crash withdraws the offer, so the advertised membership tracks
// live sites and the overlay ring heals around the dead.
func (d *Deployment) exportGossipOffer(s *Site) {
	tr := d.env.Trader()
	if !tr.HasType(gossip.ServiceType) {
		if err := tr.RegisterType(gossip.ServiceType); err != nil {
			panic(fmt.Sprintf("mocca: register gossip service type: %v", err))
		}
	}
	_ = tr.Withdraw(gossip.OfferID(s.Name)) // restart re-exports; unknown ids are fine
	offer := trader.Offer{
		ID:          gossip.OfferID(s.Name),
		ServiceType: gossip.ServiceType,
		Provider:    s.gossipAddr(),
		Properties: directory.NewAttributes(
			gossip.SiteProp, s.Name,
			gossip.ReplProp, string(s.replAddr()),
		),
	}
	if err := tr.Export(offer); err != nil {
		panic(fmt.Sprintf("mocca: export gossip offer %q: %v", offer.ID, err))
	}
}

// mendGossip re-knits every live site's overlay after a partition heals:
// demoted cross-partition peers are re-probed and promoted back, and
// overlays dormant on their failure cap re-arm.
func (d *Deployment) mendGossip() {
	for _, name := range d.SiteNames() {
		if s := d.sites[name]; s.overlay != nil && !s.crashed {
			s.overlay.Mend()
		}
	}
}

// replicaOptions builds the option set every site replicator is wired
// with, first boot or restart.
func (d *Deployment) replicaOptions() []replica.Option {
	opts := []replica.Option{replica.WithPlacement(d.env.Placement())}
	if d.tel != nil {
		opts = append(opts, replica.WithTelemetry(d.tel))
	}
	return opts
}

// wireSiteSpace subscribes the deployment's placement plumbing to the
// site's (current) information replica: every local or applied write
// invalidates the reader's negative-lookup cache, and a Put or Update
// that lands at a site not placed for the object's space is forwarded to
// a placed holder — trader-resolved like a read-through — with the local
// foreign copy dropped only once a holder accepted it (DropCovered, so a
// racing newer write survives). When no holder is reachable the copy
// stays until the next MigrateForeign sweep: forwarding never destroys
// the only copy. Called again after Restart, against the recovered
// replica.
func (d *Deployment) wireSiteSpace(s *Site) {
	sp := s.env.Space()
	pol := d.env.Placement()
	sp.Subscribe("", func(ev information.Event) {
		switch ev.Kind {
		case "put", "update", "apply", "conflict", "evict":
			s.reader.Bump()
		}
		if ev.Kind != "put" && ev.Kind != "update" || ev.Object == nil {
			return
		}
		if d.tel.On() {
			// Each local write roots a trace and tags the object id, so
			// every downstream hop — rumor publish, placement forward,
			// WAL commit, anti-entropy apply elsewhere — parents under it.
			root := d.tel.Tracer.StartRoot("write:"+ev.Kind, s.Name)
			root.SetAttr("object", ev.Object.ID)
			d.tel.Objects.Tag(ev.Object.ID, root.Context())
			root.End()
		}
		if s.overlay != nil && !s.crashed {
			// Gossip mode: race the fresh write ahead of anti-entropy as a
			// rumor, placed peers first.
			obj := ev.Object
			desc := placement.Describe(obj)
			s.overlay.Publish(obj.ID, obj.VV, func(peerSite string) int {
				if pol.PlacedAt(peerSite, desc) {
					return 1
				}
				return 0
			})
		}
		if !pol.Selective() {
			return
		}
		obj := ev.Object
		pl := pol.SitesFor(placement.Describe(obj))
		if pl.At(s.Name) {
			return
		}
		s.reader.Forward(obj, pl, func(_ string, err error) {
			if err != nil {
				return // keep the foreign copy; migration sweeps later
			}
			_, _ = sp.DropCovered(obj.ID, obj.VV)
		})
	})
}

// Placement returns the deployment's placement policy.
func (d *Deployment) Placement() *placement.Policy { return d.env.Placement() }

// SetPlacementRules replaces the placement rule set at runtime: trader
// offers are re-exported, every site migrates rows of spaces it is no
// longer placed in to a placed peer, and sync rounds kick everywhere.
// Drain with Run afterwards to let migration and re-replication finish.
func (d *Deployment) SetPlacementRules(rules ...placement.Rule) {
	d.env.Placement().Use(rules...) // fires onPlacementChange
}

// onPlacementChange reacts to a policy change (Policy.Use/Add): offers
// follow the new hosting map, de-placed rows migrate off, and a sync
// round spreads whatever moved.
func (d *Deployment) onPlacementChange() {
	d.refreshPlacementOffers()
	for _, name := range d.SiteNames() {
		if s := d.sites[name]; !s.crashed {
			s.repl.MigrateForeign(nil)
		}
	}
	d.SyncInformation()
}

// refreshPlacementOffers re-exports one trader offer per (site, hosted
// space): the assignments of every installed rule plus the implicit
// everywhere-space. These offers are what a non-placed site's reader
// imports to resolve a holder.
func (d *Deployment) refreshPlacementOffers() {
	tr := d.env.Trader()
	if !tr.HasType(placement.ServiceType) {
		if err := tr.RegisterType(placement.ServiceType); err != nil {
			panic(fmt.Sprintf("mocca: register placement service type: %v", err))
		}
	}
	for _, id := range d.placedOffers {
		_ = tr.Withdraw(id) // stale hosting claims go away; unknown ids are fine
	}
	d.placedOffers = d.placedOffers[:0]
	assignments := d.env.Placement().Assignments()
	for _, name := range d.SiteNames() {
		site := d.sites[name]
		spaces := []string{placement.DefaultSpace}
		for _, a := range assignments {
			hosted := len(a.Sites) == 0
			for _, s := range a.Sites {
				if s == name {
					hosted = true
					break
				}
			}
			if hosted {
				spaces = append(spaces, a.Space)
			}
		}
		for _, space := range spaces {
			offer := trader.Offer{
				ID:          placement.OfferID(name, space),
				ServiceType: placement.ServiceType,
				Provider:    site.readAddr(),
				Properties: directory.NewAttributes(
					placement.SpaceProp, space,
					placement.SiteProp, name,
				),
			}
			if err := tr.Export(offer); err != nil {
				panic(fmt.Sprintf("mocca: export placement offer %q: %v", offer.ID, err))
			}
			d.placedOffers = append(d.placedOffers, offer.ID)
		}
	}
}

// SitePlacementStats is one site's view of partial replication: what it
// holds, what placement kept away from it, and how often it had to (or
// got to) serve reads across sites.
type SitePlacementStats struct {
	Site    string
	Objects int // rows currently on the site's replica

	ScopeFiltered  int64 // rows placement keeps out of the per-peer digest trees
	RefusedApplies int64 // offered objects the site is not placed for
	Migrated       int64 // rows pushed off by migration
	Evicted        int64 // rows dropped locally after migration

	RemoteReadsIssued int64 // read-throughs this site asked for
	RemoteReadsServed int64 // remote reads this site answered for others

	WritesForwarded int64 // non-placed writes this site routed to a holder
	WritesAccepted  int64 // forwarded writes this site accepted for others
	NegativeHits    int64 // reads short-circuited by the negative-lookup cache
}

// PlacementStats reports per-site placement statistics, sorted by site —
// the observable face of partial replication (the engineering byte counts
// live in Fabric.TotalsFor("repl-")).
func (d *Deployment) PlacementStats() []SitePlacementStats {
	out := make([]SitePlacementStats, 0, len(d.sites))
	for _, name := range d.SiteNames() {
		site := d.sites[name]
		rs := site.repl.Stats()
		out = append(out, SitePlacementStats{
			Site:              name,
			Objects:           site.Space().Len(),
			ScopeFiltered:     rs.ScopeFiltered,
			RefusedApplies:    rs.RefusedApplies,
			Migrated:          rs.Migrated,
			Evicted:           rs.Evicted,
			RemoteReadsIssued: site.reader.Stats().Reads,
			RemoteReadsServed: site.readServer.Stats().Served,
			WritesForwarded:   site.reader.Stats().Forwarded,
			WritesAccepted:    site.readServer.Stats().WritesAccepted,
			NegativeHits:      site.reader.Stats().NegativeHits,
		})
	}
	return out
}

// SiteSyncStats is one site's anti-entropy counters, named.
type SiteSyncStats struct {
	Site string
	replica.Stats
}

// SyncStats reports per-site replication statistics, sorted by site —
// the observable face of the digest negotiation: converged-root compares,
// descent depth and digest bytes per round.
func (d *Deployment) SyncStats() []SiteSyncStats {
	out := make([]SiteSyncStats, 0, len(d.sites))
	for _, name := range d.SiteNames() {
		out = append(out, SiteSyncStats{Site: name, Stats: d.sites[name].repl.Stats()})
	}
	return out
}

// Site returns a site by name.
func (d *Deployment) Site(name string) (*Site, bool) {
	s, ok := d.sites[name]
	return s, ok
}

// SiteNames lists the deployment's sites, sorted.
func (d *Deployment) SiteNames() []string {
	out := make([]string, 0, len(d.sites))
	for name := range d.sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SyncInformation kicks an immediate anti-entropy round on every site;
// drain with Run (or Advance) afterwards to let the rounds complete.
func (d *Deployment) SyncInformation() {
	for _, name := range d.SiteNames() {
		d.sites[name].repl.SyncNow()
	}
}

// AddUser provisions a user at the site: an MHS mailbox plus registration
// with the communication hub. The user's home site is recorded so
// activity-scoped placement can map activity members to the sites whose
// replicas must host the activity's space.
func (s *Site) AddUser(personal string) *mhs.UserAgent {
	ua := mhs.NewUserAgent(normalizeOR(personal, s.Domain), s.mta)
	s.dep.env.Hub().Register(personal, ua)
	s.dep.userSites[personal] = s.Name
	return ua
}

// UserSite reports which site a user was provisioned at.
func (d *Deployment) UserSite(personal string) (string, bool) {
	site, ok := d.userSites[personal]
	return site, ok
}

// ActivityMemberSites resolves an activity id to the home sites of its
// current members — the lookup an activity-scoped placement rule needs.
// Use it with placement.ByActivity:
//
//	dep.SetPlacementRules(placement.ByActivity(act.ID, "context", dep.ActivityMemberSites))
//
// Membership is consulted per placement decision, so joins and leaves
// move the activity's space without touching the rule set (kick
// Deployment.SetPlacementRules or Policy.Use to migrate existing rows).
func (d *Deployment) ActivityMemberSites(activityID string) []string {
	act, err := d.env.Activities().Get(activityID)
	if err != nil {
		return nil
	}
	set := make(map[string]bool)
	for member := range act.Members {
		if site, ok := d.userSites[member]; ok {
			set[site] = true
		}
	}
	out := make([]string, 0, len(set))
	for site := range set {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// normalizeOR builds an O/R name within a routing domain of the form
// "org" or "org.country".
func normalizeOR(personal, domain string) mhs.ORName {
	or := mhs.ORName{Personal: personal, Org: domain}
	if i := lastDot(domain); i > 0 {
		or.Org = domain[:i]
		or.Country = domain[i+1:]
	}
	return or
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// MTA exposes the site's message transfer agent.
func (s *Site) MTA() *mhs.MTA { return s.mta }

// Env returns the site's face of the CSCW environment: shared schemas,
// ACL and policies, site-local information replica.
func (s *Site) Env() *core.SiteEnv { return s.env }

// Space returns the site's information-space replica. Writes land here
// and propagate to the other sites' replicas asynchronously via
// anti-entropy sync over the channel stack.
func (s *Site) Space() *information.Space { return s.env.Space() }

// Replicator exposes the site's anti-entropy replicator (peers, stats).
func (s *Site) Replicator() *replica.Replicator { return s.repl }

// SyncNow kicks an immediate anti-entropy round for this site.
func (s *Site) SyncNow() { s.repl.SyncNow() }

// Crash kills the site mid-run: its network nodes go down (in-flight
// frames to them are lost, peers' sync rounds start failing) and its
// information backend is released. The in-memory replica state is gone
// the moment Restart swaps it out — what survives is whatever the
// backend put on disk, which for the durable logstore is every completed
// write.
func (s *Site) Crash() {
	if s.crashed {
		return
	}
	d := s.dep
	if node, ok := d.net.Node(s.replAddr()); ok {
		node.SetDown(true)
	}
	if node, ok := d.net.Node(s.readAddr()); ok {
		node.SetDown(true)
	}
	if node, ok := d.net.Node(s.mta.Addr()); ok {
		node.SetDown(true)
	}
	if s.overlay != nil {
		// The dead site leaves the advertised membership: peers' probes
		// demote it from their views and the ring heals around it.
		_ = d.env.Trader().Withdraw(gossip.OfferID(s.Name))
		s.overlay.Close()
		if node, ok := d.net.Node(s.gossipAddr()); ok {
			node.SetDown(true)
		}
		s.gossipEP.Close()
	}
	// Close the replication and read endpoints: pending calls cancel now
	// and any stale auto-sync round the dead replicator still fires
	// completes immediately instead of dribbling timeouts after the
	// restart.
	s.replEP.Close()
	s.readEP.Close()
	if b, ok := d.backends[s.Name]; ok {
		// Closing drops the file handle; every append already reached the
		// OS before its write returned, so this models a kill at the last
		// completed mutation, not a graceful flush.
		if c, ok := b.(io.Closer); ok {
			_ = c.Close()
		}
		delete(d.backends, s.Name)
	}
	s.crashed = true
}

// Restart brings a crashed site back: the information replica is rebuilt
// over a freshly opened backend (for a durable store that means WAL +
// snapshot recovery), a new replicator takes over the site's replication
// address, and the nodes come back up — which kicks an immediate
// anti-entropy round, so the recovered replica pulls exactly the writes
// it missed while down instead of re-replicating from scratch.
func (s *Site) Restart() error {
	if !s.crashed {
		// Restarting a live site would open a second backend over the same
		// directory while the first still holds it.
		return fmt.Errorf("mocca: restart of running site %q (call Crash first)", s.Name)
	}
	d := s.dep
	var backend information.Backend
	if d.backendFor != nil {
		b, err := d.backendFor(s.Name)
		if err != nil {
			return fmt.Errorf("mocca: restart site %q: %w", s.Name, err)
		}
		backend = b
		d.backends[s.Name] = b
	}
	s.env = d.env.ResetSiteSpace(s.Name, backend)
	// Fresh endpoints, replicator and read server over the same
	// addresses; the old replicator's endpoint was closed by Crash, so
	// any round it still fires fails instantly and it goes dormant under
	// its failure cap.
	s.replEP = d.endpointAt(s.replAddr())
	s.repl = replica.New(s.replEP, d.clock, s.env.Space(), d.replicaOptions()...)
	s.readEP = d.endpointAt(s.readAddr())
	s.reader = placement.NewReader(s.readEP, d.env.Trader(), s.Name,
		placement.WithNegativeCache(d.env.Placement()),
		placement.WithNegativeTTL(placement.DefaultNegativeTTL, d.clock.Now))
	s.readServer = placement.NewReadServer(s.readEP, s.Name,
		func() *information.Space { return s.env.Space() },
		placement.WithHolderPolicy(d.env.Placement()))
	d.wireSiteSpace(s)
	if !d.gossip {
		for _, other := range d.sites {
			if other == s {
				continue
			}
			s.repl.AddPeerNamed(other.Name, other.repl.Addr())
			other.repl.AddPeerNamed(s.Name, s.repl.Addr())
		}
	}
	s.repl.AutoSync(d.syncEvery)
	if node, ok := d.net.Node(s.mta.Addr()); ok {
		node.SetDown(false)
	}
	if node, ok := d.net.Node(s.readAddr()); ok {
		node.SetDown(false)
	}
	s.crashed = false
	if d.gossip {
		// A fresh overlay agent rejoins the advertised membership; its
		// view changes re-peer the recovered replicator.
		if node, ok := d.net.Node(s.gossipAddr()); ok {
			node.SetDown(false)
		}
		d.wireSiteGossip(s)
	}
	if node, ok := d.net.Node(s.replAddr()); ok {
		// Recovery of a repl-* node fires the deployment's OnRecover hook,
		// which kicks a sync round everywhere.
		node.SetDown(false)
	}
	return nil
}

// replAddr is the site's replication endpoint address.
func (s *Site) replAddr() netsim.Address { return netsim.Address("repl-" + s.Name) }

// readAddr is the site's placement read endpoint address — separate from
// replAddr so Fabric.TotalsFor("repl-") measures pure anti-entropy
// traffic and TotalsFor("place-") measures remote reads.
func (s *Site) readAddr() netsim.Address { return netsim.Address("place-" + s.Name) }

// gossipAddr is the site's overlay endpoint address; TotalsFor("gossip-")
// measures pure membership/rumor traffic.
func (s *Site) gossipAddr() netsim.Address { return netsim.Address("gossip-" + s.Name) }

// Overlay exposes the site's gossip agent (views, stats); nil unless the
// deployment runs WithGossip.
func (s *Site) Overlay() *gossip.Overlay { return s.overlay }

// JoinConference creates a session for a member at their own node and
// joins it, driving the simulated clock until the join completes.
func (d *Deployment) JoinConference(conferenceID, member string, opts ...rtc.SessionOption) (*rtc.Session, error) {
	sess, err := d.NewConferenceSession(conferenceID, member, opts...)
	if err != nil {
		return nil, err
	}
	if err := d.drive(sess.Join); err != nil {
		return nil, err
	}
	return sess, nil
}

// NewConferenceSession prepares (but does not join) a session for a member
// at their own node. Callers that run on the simulated-clock goroutine —
// the workload driver — join via Session.GoJoin; interactive callers use
// JoinConference, which drives the blocking Join to completion.
func (d *Deployment) NewConferenceSession(conferenceID, member string, opts ...rtc.SessionOption) (*rtc.Session, error) {
	nodeAddr := netsim.Address("user-" + member)
	var ep *rpc.Endpoint
	if _, exists := d.net.Node(nodeAddr); exists {
		// Node (and endpoint) remain from a previous session of the same
		// user; a fresh endpoint would steal the node's channel stack.
		cached, ok := d.userEPs[nodeAddr]
		if !ok {
			return nil, fmt.Errorf("mocca: node %q exists without an endpoint", nodeAddr)
		}
		ep = cached
	} else {
		ep = d.newEndpoint(nodeAddr)
		d.userEPs[nodeAddr] = ep
	}
	// A new session supersedes the user's previous one: detach it so it
	// stops receiving (and its callbacks stop firing on) future events.
	if prev, ok := d.userSessions[nodeAddr]; ok {
		prev.Detach()
	}
	sess := rtc.NewSession(ep, d.clock, "mcu", conferenceID, member, opts...)
	d.userSessions[nodeAddr] = sess
	return sess, nil
}

// ServiceEndpoint returns (creating it on first use) an rpc endpoint at
// addr on the simulated network, wired through the deployment's channel
// stack and fabric observer like every site endpoint. Harness-level
// infrastructure — the workload generator's DSA and trader nodes, per-site
// load clients — lives on such endpoints so its traffic shows up in
// Fabric totals under its own address prefix.
func (d *Deployment) ServiceEndpoint(addr string) *rpc.Endpoint {
	a := netsim.Address(addr)
	if ep, ok := d.userEPs[a]; ok {
		return ep
	}
	ep := d.endpointAt(a)
	d.userEPs[a] = ep
	return ep
}

// Do runs a blocking operation against the deployment, advancing simulated
// time until it completes. Use it for Session and Client calls from
// example programs.
func (d *Deployment) Do(op func() error) error { return d.drive(op) }

// Run drains the simulated network to quiescence.
func (d *Deployment) Run() { d.clock.RunUntilIdle() }

// Advance moves simulated time forward, delivering due events.
func (d *Deployment) Advance(dur time.Duration) { d.clock.Advance(dur) }

// driveTimeout bounds drive in wall-clock time. Simulated work completes
// in microseconds of real time; an operation still pending after this
// long is stuck on something no amount of simulated time will fix.
const driveTimeout = 10 * time.Second

// drive executes op on a helper goroutine while this goroutine advances
// the simulated clock, idle-aware: time jumps straight to the next
// scheduled event instead of polling in fixed steps, and when the clock
// has nothing scheduled it briefly yields so the operation goroutine can
// either finish or schedule its next event.
func (d *Deployment) drive(op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	//lint:allow determinism wall-clock watchdog bounding a stuck simulated run; it only decides when to give up, never what the run computes
	start := time.Now()
	for {
		select {
		case err := <-done:
			return err
		default:
		}
		if deadline, ok := d.clock.NextDeadline(); ok {
			d.clock.AdvanceTo(deadline)
		} else {
			// Simulated clock idle: the operation is between steps on its
			// own goroutine. Yield until it finishes or schedules.
			select {
			case err := <-done:
				return err
			//lint:allow determinism wall-clock yield while the simulated clock is idle; it paces the host loop, never the simulated run
			case <-time.After(50 * time.Microsecond):
			}
		}
		//lint:allow determinism wall-clock watchdog bounding a stuck simulated run; it only decides when to give up, never what the run computes
		if time.Since(start) > driveTimeout {
			return fmt.Errorf("mocca: operation did not complete within %v (%d simulated events still pending)",
				driveTimeout, d.clock.Pending())
		}
	}
}

// RegisterTradingService exports a service offer into the environment's
// trader under a service type (registering the type on first use).
func (d *Deployment) RegisterTradingService(serviceType, offerID string, provider string, props map[string]string) error {
	tr := d.env.Trader()
	if !tr.HasType(serviceType) {
		if err := tr.RegisterType(serviceType); err != nil {
			return err
		}
	}
	offer := trader.Offer{ID: offerID, ServiceType: serviceType, Provider: netsim.Address(provider)}
	if len(props) > 0 {
		attrs := make(directory.Attributes, len(props))
		for k, v := range props {
			attrs.Add(k, v)
		}
		offer.Properties = attrs
	}
	return tr.Export(offer)
}
