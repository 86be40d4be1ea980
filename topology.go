package mocca

import (
	"fmt"
	"sort"

	"mocca/internal/directory"
	"mocca/internal/gossip"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/placement"
	"mocca/internal/trader"
)

// topology is how the sites' replicators find their anti-entropy peers.
// NewDeployment picks one; the site lifecycle and the write path call
// these hooks and never ask which one it is.
type topology interface {
	// addrs lists the per-site addresses the topology owns beyond the
	// mta-, repl- and place- every site has.
	addrs(s *Site) []netsim.Address
	// joined peers a booted site's replicator. first is a first boot:
	// the site is not in d.sites yet and nothing else will kick its
	// first round; on a restart the repl-* recovery does.
	joined(s *Site, first bool)
	// left takes a crashing site out of the peering; the site's nodes are
	// already down.
	left(s *Site)
	// committed sees every local put or update.
	committed(s *Site, obj *information.Object)
	// healed runs when a partition heals, before the sync rounds the heal
	// kicks on every site.
	healed()
}

// meshTopology peers every site with every other site and owns no plane
// of its own: anti-entropy rounds are the only propagation path.
type meshTopology struct{ d *Deployment }

func (meshTopology) addrs(*Site) []netsim.Address         { return nil }
func (meshTopology) left(*Site)                           {}
func (meshTopology) committed(*Site, *information.Object) {}
func (meshTopology) healed()                              {}

func (m meshTopology) joined(s *Site, first bool) {
	for _, other := range m.d.sites {
		if other == s {
			continue
		}
		s.repl.AddPeerNamed(other.Name, other.repl.Addr())
		other.repl.AddPeerNamed(s.Name, s.repl.Addr())
	}
	if first && len(m.d.sites) > 0 {
		// A site joining an established deployment pulls the existing
		// information state with an immediate first round — otherwise its
		// replica stays empty until something else wakes the dormant mesh.
		s.repl.SyncNow()
	}
}

// overlayTopology runs one gossip agent per site on the gossip- plane:
// the replicator's peer set follows the agent's active view, and fresh
// writes race ahead of the sync rounds as rumors.
type overlayTopology struct{ d *Deployment }

func (overlayTopology) addrs(s *Site) []netsim.Address {
	return []netsim.Address{s.gossipAddr()}
}

// left: the dead site leaves the advertised membership — peers' probes
// demote it from their views and the ring heals around it.
func (o overlayTopology) left(s *Site) {
	_ = o.d.env.Trader().Withdraw(gossip.OfferID(s.Name))
	s.overlay.Close()
	s.gossipEP.Close()
}

// committed races the fresh write ahead of anti-entropy as a rumor,
// placed peers first.
func (o overlayTopology) committed(s *Site, obj *information.Object) {
	if s.crashed {
		return
	}
	pol := o.d.env.Placement()
	desc := placement.Describe(obj)
	s.overlay.Publish(obj.ID, obj.VV, func(peerSite string) int {
		if pol.PlacedAt(peerSite, desc) {
			return 1
		}
		return 0
	})
}

// joined creates the site's overlay agent on its own gossip endpoint,
// advertises it as a trader membership offer, couples the replicator's
// peer set to active-view churn, and joins the overlay: the join adds the
// first peers, and the OnChange hook runs the immediate first sync that
// pulls existing state from them — first boot and restart alike.
func (o overlayTopology) joined(s *Site, _ bool) {
	d := o.d
	s.gossipEP = d.endpointAt(s.gossipAddr())
	s.overlay = gossip.New(s.gossipEP, d.clock, s.Name, s.replAddr(), s.repl,
		gossip.WithSeed(d.seed),
		gossip.WithTelemetry(d.tel),
		gossip.WithContacts(o.gossipContacts),
		gossip.WithBias(o.gossipBias(s.Name)),
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
		}))
	// A failing sync round is the overlay's partition detector: the
	// membership layer may be dormant when a cut lands, but anti-entropy
	// trips over it immediately and Suspect re-probes the views.
	s.repl.OnRoundFailure(s.overlay.Suspect)
	o.exportGossipOffer(s)
	s.overlay.Join()
}

// gossipContacts resolves the advertised overlay membership from the
// trader: one peer per live site's membership offer.
func (o overlayTopology) gossipContacts() []gossip.Peer {
	tr := o.d.env.Trader()
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
func (o overlayTopology) gossipBias(self string) func(site string) int {
	pol := o.d.env.Placement()
	return func(site string) int {
		if !pol.Selective() {
			return 0
		}
		shared := 0
		for _, a := range pol.Assignments() {
			if a.At(self) && a.At(site) {
				shared++
			}
		}
		return shared
	}
}

// exportGossipOffer (re-)advertises the site's overlay membership in the
// trader. Crash withdraws the offer, so the advertised membership tracks
// live sites and the overlay ring heals around the dead.
func (o overlayTopology) exportGossipOffer(s *Site) {
	tr := o.d.env.Trader()
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

// healed re-knits every live site's overlay: demoted cross-partition
// peers are re-probed and promoted back into active views and overlays
// dormant on their failure cap re-arm, so the sync rounds kicked next
// reach across the healed cut.
func (o overlayTopology) healed() {
	for _, name := range o.d.SiteNames() {
		if s := o.d.sites[name]; !s.crashed {
			s.overlay.Mend()
		}
	}
}
