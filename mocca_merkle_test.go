package mocca

import (
	"fmt"
	"testing"
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

	// Raise s00's high-water mark so ordinary updates become invisible to
	// the fast path — forcing the descent machinery the criterion is
	// about.
	hot, version := ids[0], uint64(1)
	for i := 0; i < 6; i++ {
		upd, err := sites[0].Space().Update("ada", hot, version,
			map[string]string{"title": fmt.Sprintf("hot v%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		version = upd.Version
	}
	dep.Run()

	// k changed objects, each a high-water blind spot.
	const k = 3
	before = statsFor(t, dep, "s00")
	for i := 0; i < k; i++ {
		if _, err := sites[0].Space().Update("ada", ids[100+i*777], 1,
			map[string]string{"title": fmt.Sprintf("cold v2 #%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()
	after = statsFor(t, dep, "s00")

	for i := 0; i < k; i++ {
		got, err := sites[1].Space().Get("ada", ids[100+i*777])
		if err != nil || got.Fields["title"] != fmt.Sprintf("cold v2 #%d", i) {
			t.Fatalf("cold update %d did not converge: %v %v", i, got, err)
		}
	}
	if after.DescentCalls <= before.DescentCalls {
		t.Fatalf("repair ran without descent: %+v", after.Stats)
	}
	divergentBytes := after.DigestBytes - before.DigestBytes
	if divergentBytes == 0 || divergentBytes > 20_000 {
		t.Fatalf("divergent repair cost %d digest bytes, want O(log n · k) ≪ O(n)", divergentBytes)
	}
	t.Logf("digest bytes at %d objects: converged round=%d, %d-object repair=%d",
		n, after.LastRoundDigestBytes, k, divergentBytes)
}
