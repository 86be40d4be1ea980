package mocca

import (
	"fmt"
	"sort"

	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/placement"
	"mocca/internal/trader"
)

// wireSiteSpace subscribes the deployment's placement plumbing to the
// site's (current) information replica: every local or applied write
// invalidates the reader's negative-lookup cache, and a Put or Update
// that lands at a site not placed for the object's space is forwarded to
// a placed holder — trader-resolved like a read-through — with the local
// foreign copy dropped only once a holder accepted it (DropCovered, so a
// racing newer write survives). When no holder is reachable the copy
// stays until the next MigrateForeign sweep: forwarding never destroys
// the only copy. Every boot calls it, against that boot's replica.
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
		d.topo.committed(s, ev.Object)
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
			if a.At(name) {
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
