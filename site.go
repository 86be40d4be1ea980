package mocca

import (
	"fmt"
	"io"
	"strings"

	"mocca/internal/core"
	"mocca/internal/gossip"
	"mocca/internal/information"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/replica"
	"mocca/internal/rpc"
)

// Site is one organisation's installation: an MTA, local users, and the
// site's replica of the information space kept convergent by channel-borne
// anti-entropy sync.
type Site struct {
	Name   string
	Domain string

	dep      *Deployment
	mta      *mhs.MTA
	env      *core.SiteEnv
	repl     *replica.Replicator
	replEP   *rpc.Endpoint   // the replicator's endpoint; closed on Crash
	gossipEP *rpc.Endpoint   // the overlay's endpoint; closed on Crash (gossip mode)
	overlay  *gossip.Overlay // nil unless the deployment runs WithGossip
	crashed  bool
	// past sums, by metric name, the counters of the incarnations a
	// restart replaced: each boot builds a new replicator, endpoint and
	// overlay whose counters start from zero, and the collector adds
	// these back (see incarnation).
	past map[string]int64
}

// AddSite creates a site: one MTA serving the given domain, routed to all
// existing sites (full mesh), plus the site's replica of the whole
// information space with its anti-entropy replicator peered through the
// deployment's topology.
func (d *Deployment) AddSite(name, domain string) *Site {
	s := &Site{Name: name, Domain: domain, dep: d}
	s.mta = mhs.NewMTA(string(s.mtaAddr()), domain, d.newEndpoint(s.mtaAddr()), d.clock, mhs.WithIDs(d.ids))
	for _, other := range d.sites {
		s.mta.AddRoute(other.Domain, other.mta.Addr())
		other.mta.AddRoute(domain, s.mta.Addr())
	}
	if err := d.boot(s, true); err != nil {
		panic(err) // storage that cannot open: see WithSiteBackend
	}
	d.sites[name] = s
	return s
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
	return s.dep.boot(s, false)
}

// boot instantiates everything of a site that dies with a crash — the
// replica over a freshly opened backend, the replication endpoint with
// its replicator, the write-path subscription, peering — identically on
// first boot and on restart (reactivation is the same instantiation over
// a recovered checkpoint). What differs is stated here: a first boot has
// AddSite create what outlives crashes (the MTA and its routes, before;
// the d.sites entry, after) and finds its nodes freshly created and up; a
// restart finds them down and raises them around the join — the
// topology's own plane before it, so the join can send, and repl-* last,
// because its recovery is what kicks the site's first sync round.
func (d *Deployment) boot(s *Site, first bool) error {
	backend, err := d.openBackend(s.Name)
	if err != nil {
		return err
	}
	if !first {
		s.retire()
	}
	s.env = d.env.ResetSiteSpace(s.Name, backend)
	// On a restart the old replicator's endpoint was closed by Crash, so
	// any round it still fires fails instantly and it goes dormant under
	// its failure cap.
	s.replEP = d.endpointAt(s.replAddr())
	s.repl = replica.New(s.replEP, d.clock, s.env.Space(), replica.WithTelemetry(d.tel))
	d.wireSiteSpace(s)
	s.repl.AutoSync(d.syncEvery)
	if !first {
		for _, addr := range s.Addrs() {
			if addr != s.replAddr() {
				d.setDown(addr, false)
			}
		}
		s.crashed = false
	}
	d.topo.joined(s, first)
	if !first {
		d.setDown(s.replAddr(), false)
	}
	return nil
}

// incarnation projects the Stats of what a crash kills and a restart
// builds anew — the replicator, the overlay agent and the replication
// endpoint — as they stand in this incarnation.
func (s *Site) incarnation(emit func(observe.Point), labels []observe.Label) {
	observe.Project(emit, "mocca.sync", labels, s.repl.Stats())
	if s.overlay != nil {
		observe.Project(emit, "mocca.gossip", labels, s.overlay.Stats())
	}
	observe.Project(emit, "mocca.rpc", labels, s.replEP.Stats())
}

// retire folds the counters of the incarnation a restart is about to
// replace into s.past; gauges describe the present and are not kept.
func (s *Site) retire() {
	if s.past == nil {
		s.past = make(map[string]int64)
	}
	s.incarnation(func(p observe.Point) {
		if p.Kind == observe.KindCounter {
			s.past[p.Name] += p.Value
		}
	}, nil)
}

// wireSiteSpace subscribes the deployment's write path to the site's
// (current) replica: every local put or update roots a trace tagged with
// the object id, and the topology sees the write. Every boot calls it,
// against that boot's replica.
func (d *Deployment) wireSiteSpace(s *Site) {
	s.env.Space().Subscribe("", func(ev information.Event) {
		if ev.Kind != "put" && ev.Kind != "update" || ev.Object == nil {
			return
		}
		if d.tel.On() {
			// Each local write roots a trace and tags the object id, so
			// every downstream hop — rumor publish, WAL commit,
			// anti-entropy apply elsewhere — parents under it.
			root := d.tel.Tracer.StartRoot("write:"+ev.Kind, s.Name)
			root.SetAttr("object", ev.Object.ID)
			d.tel.Objects.Tag(ev.Object.ID, root.Context())
			root.End()
		}
		d.topo.committed(s, ev.Object)
	})
}

// openBackend runs the configured backend factory for a site, tracking
// the result so Crash can close it; without a factory the replica lives
// in memory (a nil backend).
func (d *Deployment) openBackend(site string) (information.Backend, error) {
	if d.backendFor == nil {
		return nil, nil
	}
	b, err := d.backendFor(site)
	if err != nil {
		return nil, fmt.Errorf("mocca: open information backend for site %q: %w", site, err)
	}
	if st, ok := b.(interface {
		SetTelemetry(*observe.Telemetry, string)
	}); ok && d.tel != nil {
		st.SetTelemetry(d.tel, site)
	}
	d.backends[site] = b
	return b, nil
}

// setDown crashes or recovers the node at addr, if there is one.
func (d *Deployment) setDown(addr netsim.Address, down bool) {
	if node, ok := d.net.Node(addr); ok {
		node.SetDown(down)
	}
}

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
	for _, addr := range s.Addrs() {
		d.setDown(addr, true)
	}
	d.topo.left(s)
	// Close the replication endpoint: pending calls cancel now and any
	// stale auto-sync round the dead replicator still fires completes
	// immediately instead of dribbling timeouts after the restart.
	s.replEP.Close()
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

// Addrs lists the site's network addresses — its MTA and replication
// endpoints plus whatever plane the deployment's topology adds — in a
// fixed order. They are what a crash takes down and what a partition
// moves as a group.
func (s *Site) Addrs() []netsim.Address {
	return append([]netsim.Address{s.mtaAddr(), s.replAddr()}, s.dep.topo.addrs(s)...)
}

// mtaAddr is the site's message transfer agent address.
func (s *Site) mtaAddr() netsim.Address { return netsim.Address("mta-" + s.Name) }

// replAddr is the site's replication endpoint address.
func (s *Site) replAddr() netsim.Address { return netsim.Address("repl-" + s.Name) }

// gossipAddr is the site's overlay endpoint address; TotalsFor("gossip-")
// measures pure membership/rumor traffic.
func (s *Site) gossipAddr() netsim.Address { return netsim.Address("gossip-" + s.Name) }

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

// Overlay exposes the site's gossip agent (views, stats); nil unless the
// deployment runs WithGossip.
func (s *Site) Overlay() *gossip.Overlay { return s.overlay }

// AddUser provisions a user at the site: an MHS mailbox plus registration
// with the communication hub.
func (s *Site) AddUser(personal string) *mhs.UserAgent {
	ua := mhs.NewUserAgent(normalizeOR(personal, s.Domain), s.mta)
	s.dep.env.Hub().Register(personal, ua)
	return ua
}

// normalizeOR builds an O/R name within a routing domain of the form
// "org" or "org.country".
func normalizeOR(personal, domain string) mhs.ORName {
	or := mhs.ORName{Personal: personal, Org: domain}
	if i := strings.LastIndexByte(domain, '.'); i > 0 {
		or.Org = domain[:i]
		or.Country = domain[i+1:]
	}
	return or
}
