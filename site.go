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
	"mocca/internal/placement"
	"mocca/internal/replica"
	"mocca/internal/rpc"
)

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

// AddSite creates a site: one MTA serving the given domain, routed to all
// existing sites (full mesh), plus the site's information-space replica
// with its anti-entropy replicator peered through the deployment's
// topology — scoped by the deployment's placement policy — and a
// placement read endpoint serving trader-mediated remote reads of the
// spaces hosted here.
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
	d.refreshPlacementOffers()
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
// replica over a freshly opened backend, the replication and placement
// endpoints with replicator, reader and read server, the write-path
// subscription, peering — identically on first boot and on restart
// (reactivation is the same instantiation over a recovered checkpoint).
// What differs is stated here: a first boot has AddSite create what
// outlives crashes (the MTA and its routes, before; the d.sites entry and
// placement offers, after) and finds its nodes freshly created and up; a
// restart finds them down and raises them around the join — the
// topology's own plane before it, so the join can send, and repl-* last,
// because its recovery is what kicks a sync round on every site.
func (d *Deployment) boot(s *Site, first bool) error {
	backend, err := d.openBackend(s.Name)
	if err != nil {
		return err
	}
	s.env = d.env.ResetSiteSpace(s.Name, backend)
	// On a restart the old replicator's endpoint was closed by Crash, so
	// any round it still fires fails instantly and it goes dormant under
	// its failure cap.
	s.replEP = d.endpointAt(s.replAddr())
	s.repl = replica.New(s.replEP, d.clock, s.env.Space(),
		replica.WithPlacement(d.env.Placement()),
		replica.WithTelemetry(d.tel))
	s.readEP = d.endpointAt(s.readAddr())
	s.reader = placement.NewReader(s.readEP, d.env.Trader(), s.Name,
		placement.WithNegativeCache(d.env.Placement()),
		placement.WithNegativeTTL(placement.DefaultNegativeTTL, d.clock.Now),
		placement.WithReaderTelemetry(d.tel))
	s.readServer = placement.NewReadServer(s.readEP, s.Name,
		func() *information.Space { return s.env.Space() },
		placement.WithHolderPolicy(d.env.Placement()),
		placement.WithServerTelemetry(d.tel))
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

// Addrs lists the site's network addresses — its MTA, replication and
// placement-read endpoints plus whatever plane the deployment's topology
// adds — in a fixed order. They are what a crash takes down and what a
// partition moves as a group.
func (s *Site) Addrs() []netsim.Address {
	return append([]netsim.Address{s.mtaAddr(), s.replAddr(), s.readAddr()}, s.dep.topo.addrs(s)...)
}

// mtaAddr is the site's message transfer agent address.
func (s *Site) mtaAddr() netsim.Address { return netsim.Address("mta-" + s.Name) }

// replAddr is the site's replication endpoint address.
func (s *Site) replAddr() netsim.Address { return netsim.Address("repl-" + s.Name) }

// readAddr is the site's placement read endpoint address — separate from
// replAddr so Fabric.TotalsFor("repl-") measures pure anti-entropy
// traffic and TotalsFor("place-") measures remote reads.
func (s *Site) readAddr() netsim.Address { return netsim.Address("place-" + s.Name) }

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
// with the communication hub. The user's home site is recorded so
// activity-scoped placement can map activity members to the sites whose
// replicas must host the activity's space.
func (s *Site) AddUser(personal string) *mhs.UserAgent {
	ua := mhs.NewUserAgent(normalizeOR(personal, s.Domain), s.mta)
	s.dep.env.Hub().Register(personal, ua)
	s.dep.userSites[personal] = s.Name
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
