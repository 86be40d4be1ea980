package mocca

import (
	"fmt"
	"testing"
	"time"

	"mocca/internal/information"
)

// seedLargeDeployment builds a 2-site deployment holding n converged
// objects. Seeding bypasses the wire (the second replica applies each
// row directly), so tests and benchmarks measure steady-state round
// cost, not initial replication.
func seedLargeDeployment(tb testing.TB, n int) (*Deployment, []*Site, []string) {
	tb.Helper()
	dep := NewDeployment(WithSeed(1))
	sites := []*Site{
		dep.AddSite("s00", "s00.net"),
		dep.AddSite("s01", "s01.net"),
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		obj, err := sites[0].Space().Put("ada", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		if _, _, err := sites[1].Space().ApplyRemote(obj); err != nil {
			tb.Fatal(err)
		}
		ids[i] = obj.ID
	}
	dep.Run() // drain the armed rounds; replicas are already converged
	for _, s := range sites {
		if s.Space().Len() != n {
			tb.Fatalf("site %s holds %d rows, want %d", s.Name, s.Space().Len(), n)
		}
	}
	return dep, sites, ids
}

// statsFor returns one site's replicator stats out of SyncStats.
func statsFor(tb testing.TB, dep *Deployment, site string) SiteSyncStats {
	tb.Helper()
	for _, st := range dep.SyncStats() {
		if st.Site == site {
			return st
		}
	}
	tb.Fatalf("no sync stats for site %q", site)
	return SiteSyncStats{}
}

// TestMerkleDigestScaleAcceptance is the issue's acceptance criterion at
// 10⁴ objects: a converged anti-entropy round exchanges O(1) digest
// bytes (one root compare), and a round repairing k changed objects
// exchanges O(log n · k) digest bytes via subtree descent — both read
// off replicator Stats, and both orders of magnitude below the 897 804 B
// a whole-space digest of these rows cost per round on the full-digest
// exchange the negotiation replaced (last measured at PR 12).
func TestMerkleDigestScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-object deployment")
	}
	const n = 10_000
	dep, sites, ids := seedLargeDeployment(t, n)

	// Converged round: root compare only, cost independent of n.
	before := statsFor(t, dep, "s00")
	dep.SyncInformation()
	dep.Run()
	after := statsFor(t, dep, "s00")
	if after.ConvergedRoots <= before.ConvergedRoots {
		t.Fatalf("converged round did not match roots: %+v", after.Stats)
	}
	if got := after.LastRoundDigestBytes; got == 0 || got > 256 {
		t.Fatalf("converged round digest bytes = %d, want (0, 256] at %d objects", got, n)
	}
	if after.DigestEntriesSent != before.DigestEntriesSent {
		t.Fatal("converged round shipped digest entries")
	}

	// k changed objects, each hidden from the marks by a genuine gap: s00
	// makes them while s01 is cut off, so neither the hand-off at commit
	// nor a round reaches s01, and a later s00 write reaches s01 first
	// (applied directly, as a relay by a third site would carry it). s01's
	// mark for s00 then covers the k earlier ones — forcing the descent
	// machinery the criterion is about. The heal kicks a round at both
	// sites, so the repair's cost is read off both.
	const k = 3
	update := func(id, title string) *information.Object {
		cur, err := sites[0].Space().Get("ada", id)
		if err != nil {
			t.Fatal(err)
		}
		upd, err := sites[0].Space().Update("ada", id, cur.Version, map[string]string{"title": title})
		if err != nil {
			t.Fatal(err)
		}
		return upd
	}
	both := func() (descents, digestBytes int64) {
		for _, s := range sites {
			st := statsFor(t, dep, s.Name)
			descents += st.DescentCalls
			digestBytes += st.DigestBytes
		}
		return descents, digestBytes
	}
	descentsBefore, bytesBefore := both()
	dep.Network().Partition(sites[1].Addrs())
	for i := 0; i < k; i++ {
		update(ids[100+i*777], fmt.Sprintf("cold v2 #%d", i))
	}
	relayed := update(ids[0], "relayed")
	dep.Advance(time.Millisecond) // the hand-offs leave, into the cut
	dep.Network().Heal()
	if _, _, err := sites[1].Space().ApplyRemote(relayed); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	descentsAfter, bytesAfter := both()

	for i := 0; i < k; i++ {
		got, err := sites[1].Space().Get("ada", ids[100+i*777])
		if err != nil || got.Fields["title"] != fmt.Sprintf("cold v2 #%d", i) {
			t.Fatalf("cold update %d did not converge: %v %v", i, got, err)
		}
	}
	if descentsAfter <= descentsBefore {
		t.Fatalf("repair ran without descent: %+v", statsFor(t, dep, "s00").Stats)
	}
	divergentBytes := bytesAfter - bytesBefore
	if divergentBytes == 0 || divergentBytes > 20_000 {
		t.Fatalf("divergent repair cost %d digest bytes, want O(log n · k) ≪ O(n)", divergentBytes)
	}
	t.Logf("digest bytes at %d objects: converged round=%d, %d-object repair=%d",
		n, after.LastRoundDigestBytes, k, divergentBytes)
}

// TestSeedingRepairsWithoutDescent: sixteen sites each write rows at the
// same instant, the burst a workload's seeding makes. Every gap the rounds
// meet is one the high-water marks name — a site's writes it has not seen
// yet — so repeated marks passes repair all of them, and no site descends
// the tree.
func TestSeedingRepairsWithoutDescent(t *testing.T) {
	dep := NewDeployment(WithSeed(1992))
	var sites []*Site
	for i := range 16 {
		sites = append(sites, dep.AddSite(fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d.org", i)))
	}
	dep.Run()
	const rows = 8
	for _, s := range sites {
		for i := range rows {
			if _, err := s.Space().Put("ada", SharedSchemaName,
				map[string]string{"title": fmt.Sprintf("%s doc %d", s.Name, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dep.Run()
	for _, s := range sites {
		if got := s.Space().Len(); got != len(sites)*rows {
			t.Fatalf("site %s holds %d rows, want %d", s.Name, got, len(sites)*rows)
		}
		if st := statsFor(t, dep, s.Name); st.DescentCalls != 0 {
			t.Fatalf("site %s descended %d times: %+v", s.Name, st.DescentCalls, st.Stats)
		}
	}
}
