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
	Kept     int // rows retained, Foreign - Dropped (never drop data a peer has not taken)
	Failures int // push exchanges that failed
}

// MigrateForeign moves rows of spaces this site is no longer placed in
// off this replica: each foreign row is pushed (MethodPush) to the first
// placed site among the named peers, and only rows the target ACCEPTED
// (absent from the response's Refused list) are dropped locally. Rows
// whose placement names no reachable peer, whose push fails, that the
// target refuses (e.g. the policy moved again mid-flight), that a local
// write touched after the migration snapshot (the push did not cover the
// new state), or whose local drop fails are kept — migration never
// destroys the only copy. Every foreign row is reported either Dropped or
// Kept. done (optional) receives the report when every push has
// completed; under a simulated clock, drain the clock to let the pushes
// run.
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
		r.ep.GoMsg(targets[i], MethodPush, pushReq{Site: r.site, Objects: batch}, func(res rpc.Result) {
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
					// the next pass instead of being destroyed, and so does
					// a drop the backend fails.
					if removed, derr := r.space.DropCovered(obj.ID, obj.VV); derr == nil && removed != nil {
						rep.Dropped++
					} else {
						rep.Kept++
					}
				}
			}
			step(i + 1)
		}, rpc.CallTimeout(DefaultSyncTimeout))
	}
	step(0)
}
