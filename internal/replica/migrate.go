package replica

import (
	"sort"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/placement"
	"mocca/internal/rpc"
)

// MigrationReport summarises one MigrateForeign run.
type MigrationReport struct {
	Foreign  int // rows found that this site is not placed for
	Moved    int // rows pushed to a placed peer
	Dropped  int // rows evicted locally after a successful push
	Kept     int // rows retained (no reachable placed peer — never drop data)
	Failures int // push exchanges that failed
}

// MigrateForeign moves rows of spaces this site is no longer placed in
// off this replica: each foreign row is pushed (MethodPush) to the first
// placed site among the named peers together with the relationship edges
// touching it, and only rows the target ACCEPTED (absent from the
// response's Refused list) are dropped locally. Rows whose placement
// names no reachable peer, whose push fails, that the target refuses
// (e.g. the policy moved again mid-flight), or that a local write
// touched after the migration snapshot (the push did not cover the new
// state) are kept — migration never destroys the only copy. Edges whose other endpoint the target does not
// hold cannot be recorded there (cross-site edges are an open item) and
// are lost with the local drop. done (optional) receives the report when
// every push has completed; under a simulated clock, drain the clock to
// let the pushes run.
func (r *Replicator) MigrateForeign(done func(MigrationReport)) {
	if done == nil {
		done = func(MigrationReport) {}
	}
	policy := r.policy
	if policy == nil {
		done(MigrationReport{})
		return
	}
	r.mu.Lock()
	siteAddr := make(map[string]netsim.Address, len(r.peers))
	for _, p := range r.peers {
		if p.site != "" {
			siteAddr[p.site] = p.addr
		}
	}
	r.mu.Unlock()

	// Copy out the foreign rows only, then order them by id: Range's order
	// is the backend's own, and the batches must not depend on it.
	type foreignRow struct {
		obj   *information.Object
		sites []string // where placement wants it, sorted
	}
	var foreign []foreignRow
	r.space.Range(func(o *information.Object) bool {
		if pl := policy.SitesFor(placement.Describe(o)); !pl.At(r.site) {
			foreign = append(foreign, foreignRow{o.Clone(), pl.Sites})
		}
		return true
	})
	sort.Slice(foreign, func(i, j int) bool { return foreign[i].obj.ID < foreign[j].obj.ID })

	rep := MigrationReport{Foreign: len(foreign)}
	groups := make(map[netsim.Address][]*information.Object)
	for _, row := range foreign {
		var target netsim.Address
		found := false
		for _, site := range row.sites { // sorted: deterministic target
			if addr, ok := siteAddr[site]; ok {
				target, found = addr, true
				break
			}
		}
		if !found {
			rep.Kept++
			continue
		}
		groups[target] = append(groups[target], row.obj)
	}
	targets := make([]netsim.Address, 0, len(groups))
	for addr := range groups {
		targets = append(targets, addr)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	var step func(int)
	step = func(i int) {
		if i >= len(targets) {
			r.bump(func(s *Stats) {
				s.Migrated += int64(rep.Moved)
				s.Evicted += int64(rep.Dropped)
			})
			done(rep)
			return
		}
		batch := groups[targets[i]]
		ids := make([]string, len(batch))
		for j, obj := range batch {
			ids[j] = obj.ID
		}
		req := pushReq{Site: r.site, Objects: batch, Relations: r.edgesTouching(ids)}
		r.ep.GoMsg(targets[i], MethodPush, req, func(res rpc.Result) {
			var pr pushResp
			if err := res.Decode(&pr); err != nil {
				// Unreachable target: the rows stay here until the next
				// migration attempt.
				rep.Failures++
				rep.Kept += len(batch)
			} else {
				refused := make(map[string]bool, len(pr.Refused))
				for _, id := range pr.Refused {
					refused[id] = true
				}
				for _, obj := range batch {
					if refused[obj.ID] {
						// The target would not take it (the policy may have
						// moved again mid-flight): this copy stays.
						rep.Kept++
						continue
					}
					rep.Moved++
					// Evict only what the push covered: a local write that
					// landed after the migration snapshot keeps the row for
					// the next pass instead of being destroyed.
					removed, derr := r.space.DropCovered(obj.ID, obj.VV)
					if derr == nil && removed != nil {
						rep.Dropped++
					} else if derr == nil {
						rep.Kept++
					}
				}
			}
			step(i + 1)
		}, rpc.CallTimeout(DefaultSyncTimeout))
	}
	step(0)
}

// edgesTouching collects every relationship edge with an endpoint among
// ids, deduplicated — the graph share that must travel with migrating
// rows.
func (r *Replicator) edgesTouching(ids []string) []wireRelation {
	kinds := []information.RelKind{
		information.RelComposedOf, information.RelDependsOn, information.RelDerivedFrom,
	}
	seen := make(map[wireRelation]bool)
	var out []wireRelation
	for _, id := range ids {
		for _, k := range kinds {
			for _, to := range r.space.Related(id, k) {
				e := wireRelation{From: id, Kind: string(k), To: to}
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
			for _, from := range r.space.Dependents(id, k) {
				e := wireRelation{From: from, Kind: string(k), To: id}
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
		}
	}
	return out
}
