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
	"sort"
	"strings"
	"time"

	"mocca/internal/channel"
	"mocca/internal/comm"
	"mocca/internal/core"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/placement"
	"mocca/internal/replica"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
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

// Deployment is a full simulated multi-site installation.
type Deployment struct {
	seed       int64
	link       netsim.LinkProfile
	syncEvery  time.Duration
	backendFor func(site string) (information.Backend, error)
	placeRules []placement.Rule
	gossip     bool
	telemetry  bool
	telOpts    []observe.Option
	tel        *observe.Telemetry

	clock  *vclock.Simulated
	net    *netsim.Network
	env    *core.Environment
	ids    *id.Generator
	fabric *channel.Fabric
	topo   topology

	mcu          *rtc.Server
	sites        map[string]*Site
	backends     map[string]information.Backend
	userEPs      map[netsim.Address]*rpc.Endpoint
	userSessions map[netsim.Address]*rtc.Session
	userSites    map[string]string // personal name -> site, for activity placement
	placedOffers []string          // trader offer ids exported for placement
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
	d.env = core.New(d.clock, core.WithIDs(d.ids))
	d.fabric = channel.NewFabric()
	d.topo = meshTopology{d}
	if d.gossip {
		d.topo = overlayTopology{d}
	}

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
		d.topo.healed()
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

// newEndpoint creates a node and its rpc endpoint with the channel stack
// enrolled in the deployment's fabric, so every channel the deployment
// opens shows up in the engineering bookkeeping.
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
	chOpts := []channel.Option{channel.WithFabric(d.fabric)}
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

// Env returns the CSCW environment.
func (d *Deployment) Env() *core.Environment { return d.env }

// Conferencing returns the synchronous conference server.
func (d *Deployment) Conferencing() *rtc.Server { return d.mcu }

// Network returns the simulated network (for partitions, stats).
func (d *Deployment) Network() *netsim.Network { return d.net }

// Fabric returns the engineering-viewpoint bookkeeping of the live
// channels: nodes, per-channel epochs and counters.
func (d *Deployment) Fabric() *channel.Fabric { return d.fabric }

// ChannelStats lists every live channel with its traffic counters, sorted
// by (local, remote) — the per-channel view figure 4 promises the
// infrastructure can provide for all interactions.
func (d *Deployment) ChannelStats() []channel.ChannelInfo {
	return d.fabric.Channels()
}

// ReconcileChannels verifies that the engineering bookkeeping agrees with
// the network's own counters, i.e. that no traffic bypassed the channel
// stack. Returns nil when they agree.
func (d *Deployment) ReconcileChannels() error {
	return d.fabric.Reconcile(d.net.Stats())
}

// Clock returns the simulated clock.
func (d *Deployment) Clock() *vclock.Simulated { return d.clock }

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
