package replica

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/placement"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// newPlacedFixture is newFixture with a shared placement policy and
// site-tagged peers, so pushes are placement-scoped and migration can
// target placed peers.
func newPlacedFixture(t *testing.T, n int, pol *placement.Policy) *fixture {
	t.Helper()
	return newPlacedFixtureOn(t, n, pol, func(string) information.Backend { return information.NewStore() })
}

// newPlacedFixtureOn is newPlacedFixture over the backend the callback
// opens for each site.
func newPlacedFixtureOn(t *testing.T, n int, pol *placement.Policy, backend func(site string) information.Backend) *fixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := id.New()
	f := &fixture{clk: clk, net: net}
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("s%d", i)
		sp := information.NewSpace(registry, nil, clk,
			information.WithSite(site), information.WithIDs(ids), information.WithBackend(backend(site)))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids))
		f.spaces = append(f.spaces, sp)
		f.reps = append(f.reps, New(ep, clk, sp, WithPlacement(pol)))
	}
	for i, r := range f.reps {
		for j, o := range f.reps {
			if i != j {
				r.AddPeerNamed(o.Site(), o.Addr())
			}
		}
		r.AutoSync(time.Second)
	}
	return f
}

// TestPlacementScopedSync: with a rule scoping body=scoped objects to
// {s0, s1}, site s2 converges on everything else but never receives a
// scoped row — and the filtering is visible in the replicator stats.
func TestPlacementScopedSync(t *testing.T) {
	pol := placement.NewPolicy()
	pol.Use(placement.ByField("body", "scoped", "s0", "s1"))
	f := newPlacedFixture(t, 3, pol)

	scoped, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "secret", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	open, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "memo"})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()

	// The open object reached every site; the scoped one only s0 and s1.
	for i, sp := range f.spaces {
		if _, err := sp.Get("anyone", open.ID); err != nil {
			t.Fatalf("site %d missing open object: %v", i, err)
		}
	}
	if got, err := f.spaces[1].Get("anyone", scoped.ID); err != nil || got.Fields["title"] != "secret" {
		t.Fatalf("s1 scoped read: %v %v", got, err)
	}
	if _, err := f.spaces[2].Get("anyone", scoped.ID); err == nil {
		t.Fatal("scoped object leaked to non-placed site s2")
	}
	if n := f.spaces[2].Len(); n != 1 {
		t.Fatalf("s2 holds %d rows, want 1", n)
	}

	// The savings are observable without packet inspection: the placement
	// cut is structural — rows stay out of the per-peer digest trees
	// (ScopeFiltered).
	var filtered int64
	for _, r := range f.reps {
		filtered += r.Stats().ScopeFiltered
	}
	if filtered == 0 {
		t.Fatal("no filtering recorded in stats")
	}
	if s := f.reps[0].Stats(); s.MerkleExchanges == 0 || s.DigestBytes == 0 || s.LastRoundDigestBytes == 0 {
		t.Fatalf("digest stats missing: %+v", s)
	}
}

// TestDeplacementMigratesRowsOff: a site loses its placement for a space
// at runtime; MigrateForeign pushes its rows to a placed peer and drops
// them locally, after which sync does not bring them back. Run over both
// backends: the migrating site finds its foreign rows by Backend.Range,
// whose order is the backend's own, and must push them sorted by id
// whichever store they come out of.
func TestDeplacementMigratesRowsOff(t *testing.T) {
	backends := map[string]func(t *testing.T) information.Backend{
		"memory": func(*testing.T) information.Backend { return information.NewStore() },
		"logstore": func(t *testing.T) information.Backend {
			// A small flush threshold leaves rows in segments and memtable both.
			st, err := logstore.Open(t.TempDir(), logstore.WithFlushBytes(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = st.Close() })
			return st
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			pol := placement.NewPolicy() // no rules: everywhere
			f := newPlacedFixtureOn(t, 3, pol, func(site string) information.Backend {
				if site == "s2" {
					return open(t)
				}
				return information.NewStore()
			})
			obj, err := f.spaces[2].Put("prinz", "doc", map[string]string{"title": "draft", "body": "scoped"})
			if err != nil {
				t.Fatal(err)
			}
			f.clk.RunUntilIdle()
			f.assertConverged(t, obj.ID)

			// More rows that only s2 holds when the migration starts: a
			// batch whose arrival order the target can observe, and rows
			// of another space that must stay where they are.
			const fresh = 24
			for i := 0; i < fresh; i++ {
				if _, err := f.spaces[2].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("late %d", i), "body": "scoped"}); err != nil {
					t.Fatal(err)
				}
				if _, err := f.spaces[2].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("memo %d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			var arrived []string
			f.spaces[0].Subscribe("", func(ev information.Event) {
				if ev.Kind == "apply" && ev.Object.Fields["body"] == "scoped" {
					arrived = append(arrived, ev.Object.ID)
				}
			})

			// De-place s2: the space now lives at {s0, s1} only.
			pol.Use(placement.ByField("body", "scoped", "s0", "s1"))
			var rep MigrationReport
			gotReport := false
			f.reps[2].MigrateForeign(func(r MigrationReport) { rep = r; gotReport = true })
			f.clk.RunUntilIdle()

			if !gotReport {
				t.Fatal("migration never completed")
			}
			if want := fresh + 1; rep.Foreign != want || rep.Moved != want || rep.Dropped != want || rep.Kept != 0 {
				t.Fatalf("report = %+v", rep)
			}
			if len(arrived) != fresh || !sort.StringsAreSorted(arrived) {
				t.Fatalf("s0 applied %d pushed rows, want %d in id order: %v", len(arrived), fresh, arrived)
			}
			if _, err := f.spaces[2].Get("anyone", obj.ID); err == nil {
				t.Fatal("row still on de-placed site")
			}
			if n := f.spaces[2].Len(); n != fresh {
				t.Fatalf("s2 holds %d rows, want the %d of the space it is still placed in", n, fresh)
			}
			if s := f.reps[2].Stats(); s.Migrated != fresh+1 || s.Evicted != fresh+1 {
				t.Fatalf("migration stats = %+v", s)
			}

			// Later rounds must not re-deliver the row to s2.
			f.reps[2].SyncNow()
			f.clk.RunUntilIdle()
			if _, err := f.spaces[2].Get("anyone", obj.ID); err == nil {
				t.Fatal("sync re-delivered a de-placed row")
			}
			// The placed sites keep the full history.
			if got, err := f.spaces[0].Get("anyone", obj.ID); err != nil || got.Fields["title"] != "draft" {
				t.Fatalf("s0 lost the migrated row: %v %v", got, err)
			}
		})
	}
}

// TestMigrationNeverDropsSoleCopy: when placement names no reachable
// peer, the row is kept — migration must not destroy the only copy.
func TestMigrationNeverDropsSoleCopy(t *testing.T) {
	pol := placement.NewPolicy()
	f := newPlacedFixture(t, 2, pol)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "orphan", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	// Scope the space to a site that does not exist in the mesh.
	pol.Use(placement.ByField("body", "scoped", "s9"))
	var rep MigrationReport
	f.reps[0].MigrateForeign(func(r MigrationReport) { rep = r })
	f.clk.RunUntilIdle()
	if rep.Foreign != 1 || rep.Kept != 1 || rep.Dropped != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := f.spaces[0].Get("anyone", obj.ID); err != nil {
		t.Fatalf("sole copy destroyed: %v", err)
	}
}

// TestMigrationKeepsRowsWhenTargetUnreachable: the placed peer exists but
// is down — the push fails and the rows stay, reported as kept.
func TestMigrationKeepsRowsWhenTargetUnreachable(t *testing.T) {
	pol := placement.NewPolicy()
	f := newPlacedFixture(t, 2, pol)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "stuck", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	pol.Use(placement.ByField("body", "scoped", "s1"))
	if node, ok := f.net.Node("repl-s1"); ok {
		node.SetDown(true)
	} else {
		t.Fatal("repl-s1 missing")
	}
	var rep MigrationReport
	f.reps[0].MigrateForeign(func(r MigrationReport) { rep = r })
	f.clk.RunUntilIdle()
	if rep.Failures != 1 || rep.Kept != 1 || rep.Dropped != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := f.spaces[0].Get("anyone", obj.ID); err != nil {
		t.Fatalf("row dropped despite failed push: %v", err)
	}
}

// TestMigrationKeepsRowWhenTargetRefuses: the policy moves again while a
// migration push is in flight, so the chosen target is no longer placed
// and refuses the row — the migrating site must keep its copy instead of
// destroying the last one.
func TestMigrationKeepsRowWhenTargetRefuses(t *testing.T) {
	sites := []string{"s1"}
	pol := placement.NewPolicy()
	f := newPlacedFixture(t, 2, pol)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "volatile", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	pol.Use(placement.NewRule("flip", "flip", func(d placement.Descriptor) bool {
		return d.Fields["body"] == "scoped"
	}, func() []string { return sites }))

	var rep MigrationReport
	f.reps[0].MigrateForeign(func(r MigrationReport) { rep = r })
	// The push toward s1 is now in flight; the space moves again before it
	// lands, so s1's handler refuses the row.
	sites = []string{"s9"}
	f.clk.RunUntilIdle()

	if rep.Foreign != 1 || rep.Kept != 1 || rep.Moved != 0 || rep.Dropped != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := f.spaces[0].Get("anyone", obj.ID); err != nil {
		t.Fatalf("sole copy destroyed by refused migration: %v", err)
	}
	if _, err := f.spaces[1].Get("anyone", obj.ID); err == nil {
		t.Fatal("refused row materialised at the target anyway")
	}
}

// TestMigrationCarriesRelations: edges between migrating rows travel
// with them, so the target holds the graph the de-placed site drops.
func TestMigrationCarriesRelations(t *testing.T) {
	pol := placement.NewPolicy()
	f := newPlacedFixture(t, 2, pol)
	parent, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "design", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	part, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "appendix", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.spaces[0].Relate(parent.ID, information.RelComposedOf, part.ID); err != nil {
		t.Fatal(err)
	}
	pol.Use(placement.ByField("body", "scoped", "s1"))
	var rep MigrationReport
	f.reps[0].MigrateForeign(func(r MigrationReport) { rep = r })
	f.clk.RunUntilIdle()

	if rep.Moved != 2 || rep.Dropped != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if f.spaces[0].Len() != 0 {
		t.Fatalf("rows left on de-placed site: %d", f.spaces[0].Len())
	}
	if got := f.spaces[1].Related(parent.ID, information.RelComposedOf); len(got) != 1 || got[0] != part.ID {
		t.Fatalf("edge did not migrate: %v", got)
	}
}

// TestMigrationKeepsLocallyUpdatedRow: a write lands on a foreign row
// after the migration snapshot but before the push is acknowledged — the
// eviction must not destroy the newer state.
func TestMigrationKeepsLocallyUpdatedRow(t *testing.T) {
	pol := placement.NewPolicy()
	f := newPlacedFixture(t, 2, pol)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "v1", "body": "scoped"})
	if err != nil {
		t.Fatal(err)
	}
	pol.Use(placement.ByField("body", "scoped", "s1"))
	var rep MigrationReport
	f.reps[0].MigrateForeign(func(r MigrationReport) { rep = r })
	// The push (carrying v1) is in flight; v2 lands locally before the
	// acknowledgement comes back.
	if _, err := f.spaces[0].Update("prinz", obj.ID, obj.Version, map[string]string{"title": "v2"}); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()

	if rep.Dropped != 0 || rep.Kept != 1 {
		t.Fatalf("report = %+v", rep)
	}
	got, err := f.spaces[0].Get("anyone", obj.ID)
	if err != nil {
		t.Fatalf("newer state destroyed by migration: %v", err)
	}
	if got.Fields["title"] != "v2" {
		t.Fatalf("kept state = %v", got.Fields)
	}
}
