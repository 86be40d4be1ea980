package mocca

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mocca/internal/information/logstore"
)

// digestBytes renders a space's digest as canonical per-object bytes so
// version vectors can be compared byte-for-byte across a crash.
func digestBytes(s *Site) map[string][]byte {
	out := make(map[string][]byte)
	for id, vv := range s.Space().Digest() {
		out[id] = vv.AppendBinary(nil)
	}
	return out
}

// TestDurableSiteCrashRestartReconverges is the crash-durability scenario:
// a site killed mid-run and restarted from its WAL+snapshot recovers its
// replica from disk, re-enters anti-entropy with correct digests, and
// pulls only the writes it missed — no full re-replication.
func TestDurableSiteCrashRestartReconverges(t *testing.T) {
	dep := NewDeployment(WithSeed(7), WithDurableStore(t.TempDir()))
	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")

	const before = 20 // objects replicated before the crash
	const during = 5  // objects written while upc is down
	for i := 0; i < before; i++ {
		if _, err := gmd.Space().Put("prinz", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("pre %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()
	if upc.Space().Len() != before {
		t.Fatalf("upc replica has %d objects before crash, want %d", upc.Space().Len(), before)
	}
	preCrash := digestBytes(upc)

	// Kill upc mid-run; the survivor keeps writing.
	upc.Crash()
	for i := 0; i < during; i++ {
		if _, err := gmd.Space().Put("prinz", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("while-down %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run() // gmd's rounds fail against the dead site, then go dormant

	// Restart from disk: the replica is recovered BEFORE any sync round
	// runs, byte-for-byte identical to its pre-crash state.
	if err := upc.Restart(); err != nil {
		t.Fatal(err)
	}
	recovered := digestBytes(upc)
	if len(recovered) != len(preCrash) {
		t.Fatalf("recovered %d objects from disk, want %d", len(recovered), len(preCrash))
	}
	for id, want := range preCrash {
		if !bytes.Equal(recovered[id], want) {
			t.Fatalf("object %s: version vector changed across crash recovery", id)
		}
	}

	// Reconverge. The restarted replicator must apply exactly the writes
	// it missed — not the whole store.
	dep.Run()
	if got := upc.Space().Len(); got != before+during {
		t.Fatalf("upc replica has %d objects after restart, want %d", got, before+during)
	}
	gd, ud := digestBytes(gmd), digestBytes(upc)
	for id, want := range gd {
		if !bytes.Equal(ud[id], want) {
			t.Fatalf("object %s: replicas diverged after restart", id)
		}
	}
	st := upc.Replicator().Stats()
	if applied := st.Applied + st.ServedApplied; applied != during {
		t.Fatalf("restarted site applied %d objects, want exactly the %d it missed (full re-replication would be %d)",
			applied, during, before+during)
	}

	// The recovered site is a first-class replica again: its writes
	// propagate, durably.
	obj, err := upc.Space().Put("navarro", SharedSchemaName, map[string]string{"title": "post-restart"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if got, err := gmd.Space().Get("navarro", obj.ID); err != nil || got.Fields["title"] != "post-restart" {
		t.Fatalf("post-restart write did not replicate: %v %v", got, err)
	}
}

// assertReplicasIdentical checks that every site agrees byte-for-byte:
// canonical digest encodings match per object, and the Merkle roots —
// the negotiation's convergence witness — are equal.
func assertReplicasIdentical(t *testing.T, sites []*Site) {
	t.Helper()
	ref := digestBytes(sites[0])
	refRoot := sites[0].Space().Tree().Root()
	for _, s := range sites[1:] {
		d := digestBytes(s)
		if len(d) != len(ref) {
			t.Fatalf("%s holds %d objects, %s holds %d", s.Name, len(d), sites[0].Name, len(ref))
		}
		for id, want := range ref {
			if !bytes.Equal(d[id], want) {
				t.Fatalf("object %s: digests diverge between %s and %s", id, sites[0].Name, s.Name)
			}
		}
		if root := s.Space().Tree().Root(); root != refRoot {
			t.Fatalf("Merkle roots diverge: %s=%x %s=%x", sites[0].Name, refRoot, s.Name, root)
		}
	}
}

// TestDurableCrashRestartCyclesWithTornTails is the extended
// crash-durability scenario: sites take turns crashing — each crash
// tearing a partial frame onto the victim's WAL — while the survivors
// keep writing across sites (including updates racing into conflicts).
// After every restart the recovered replica re-enters the Merkle
// negotiation and all digests AND tree roots converge byte-identically.
func TestDurableCrashRestartCyclesWithTornTails(t *testing.T) {
	dir := t.TempDir()
	dep := NewDeployment(WithSeed(53), WithDurableStore(dir))
	sites := []*Site{
		dep.AddSite("gmd", "gmd.de"),
		dep.AddSite("upc", "upc.es"),
		dep.AddSite("nott", "nott.uk"),
	}
	shared, err := sites[0].Space().Put("prinz", SharedSchemaName, map[string]string{"title": "shared v0"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	assertReplicasIdentical(t, sites)

	version := shared.Version
	for cycle := 0; cycle < 4; cycle++ {
		victim := sites[cycle%len(sites)]
		victim.Crash()
		// A crash mid-append: a torn partial frame sits at the end of the
		// victim's log. Recovery must truncate it and carry on.
		wal := filepath.Join(dir, victim.Name, "wal.log")
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, byte(cycle)}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		// Cross-site writes while the victim is down: new rows at every
		// survivor plus an update of the shared object.
		for _, s := range sites {
			if s == victim {
				continue
			}
			if _, err := s.Space().Put("prinz", SharedSchemaName,
				map[string]string{"title": fmt.Sprintf("cycle %d @%s", cycle, s.Name)}); err != nil {
				t.Fatal(err)
			}
		}
		writer := sites[(cycle+1)%len(sites)]
		if writer == victim {
			writer = sites[(cycle+2)%len(sites)]
		}
		if upd, err := writer.Space().Update("prinz", shared.ID, version,
			map[string]string{"title": fmt.Sprintf("shared v%d", cycle+1)}); err == nil {
			version = upd.Version
		} else {
			t.Fatal(err)
		}
		dep.Run()

		if err := victim.Restart(); err != nil {
			t.Fatalf("cycle %d: restart %s: %v", cycle, victim.Name, err)
		}
		dep.Run()
		assertReplicasIdentical(t, sites)
	}

	// The mesh is fully live after the cycles: a write anywhere reaches
	// everywhere, durably.
	final, err := sites[2].Space().Put("navarro", SharedSchemaName, map[string]string{"title": "post-cycles"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	for _, s := range sites {
		if got, err := s.Space().Get("navarro", final.ID); err != nil || got.Fields["title"] != "post-cycles" {
			t.Fatalf("%s missed the post-cycle write: %v %v", s.Name, got, err)
		}
	}
	assertReplicasIdentical(t, sites)
}

// TestSimultaneousCrashAllSitesReconverge: every site in a three-site
// mesh crashes at once, mid-sync — writes have landed at each site and
// the anti-entropy rounds they armed are still exchanging digests and
// deltas when the power goes. Each restart recovers the site's own
// durable state (tiered store: segments + manifest + WAL tail, small
// flush threshold so compaction is in play), and the resumed rounds
// reconverge every digest and Merkle root byte-identically.
func TestSimultaneousCrashAllSitesReconverge(t *testing.T) {
	dir := t.TempDir()
	dep := NewDeployment(WithSeed(71),
		WithDurableStore(dir, logstore.WithCompactEvery(8), logstore.WithMergeFanout(2)))
	sites := []*Site{
		dep.AddSite("gmd", "gmd.de"),
		dep.AddSite("upc", "upc.es"),
		dep.AddSite("nott", "nott.uk"),
	}
	// A replicated baseline, then fresh writes at EVERY site.
	if _, err := sites[0].Space().Put("prinz", SharedSchemaName, map[string]string{"title": "base"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	assertReplicasIdentical(t, sites)

	const perSite = 12 // past the flush threshold: rows reach segment files pre-crash
	for _, s := range sites {
		for i := 0; i < perSite; i++ {
			if _, err := s.Space().Put("prinz", SharedSchemaName,
				map[string]string{"title": fmt.Sprintf("burst %d @%s", i, s.Name)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the armed rounds fire and start exchanging, but do not run the
	// mesh to quiescence: the crash lands mid-sync, with deltas applied
	// at some sites and still in flight toward others.
	dep.Clock().Advance(dep.syncEvery + 50*time.Millisecond)

	preCrash := make(map[string]map[string][]byte, len(sites))
	for _, s := range sites {
		preCrash[s.Name] = digestBytes(s)
		s.Crash()
	}
	dep.Run() // drain whatever the dead mesh still had queued

	for _, s := range sites {
		if err := s.Restart(); err != nil {
			t.Fatalf("restart %s: %v", s.Name, err)
		}
		// Recovery is local: each site comes back with exactly the rows
		// it held at the kill point, byte-for-byte.
		got := digestBytes(s)
		want := preCrash[s.Name]
		if len(got) != len(want) {
			t.Fatalf("%s recovered %d objects, held %d at crash", s.Name, len(got), len(want))
		}
		for id, vv := range want {
			if !bytes.Equal(got[id], vv) {
				t.Fatalf("%s object %s: version vector changed across crash recovery", s.Name, id)
			}
		}
	}

	// The recovered replicators re-enter anti-entropy and reconcile the
	// partially-propagated bursts from every direction.
	for _, s := range sites {
		s.Replicator().SyncNow()
	}
	dep.Run()
	assertReplicasIdentical(t, sites)
	if want := 1 + len(sites)*perSite; sites[0].Space().Len() != want {
		t.Fatalf("converged replicas hold %d objects, want %d", sites[0].Space().Len(), want)
	}
	// Close the stores (background compaction included) before TempDir
	// cleanup walks the directory.
	for _, s := range sites {
		s.Crash()
	}
}

// TestInMemorySiteRestartRereplicates pins the contrast: without a durable
// backend a restarted site comes back empty and must pull everything.
func TestInMemorySiteRestartRereplicates(t *testing.T) {
	dep := NewDeployment(WithSeed(7))
	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := gmd.Space().Put("prinz", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("doc %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()

	upc.Crash()
	dep.Run()
	if err := upc.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := upc.Space().Len(); got != 0 {
		t.Fatalf("in-memory replica has %d objects right after restart, want 0", got)
	}
	dep.Run()
	if got := upc.Space().Len(); got != n {
		t.Fatalf("upc replica has %d objects after re-replication, want %d", got, n)
	}
	st := upc.Replicator().Stats()
	if applied := st.Applied + st.ServedApplied; applied != n {
		t.Fatalf("cold replica applied %d, want %d (everything)", applied, n)
	}
}

// TestRecoveredSitePullsItsOwnState: a restarted site reconciles by its own
// round, which visits every peer. Its peers run no round of their own at
// the recovery, so none pushes the cold replica a row it is already
// pulling.
func TestRecoveredSitePullsItsOwnState(t *testing.T) {
	dep := NewDeployment(WithSeed(7))
	sites := []*Site{dep.AddSite("s0", "s0.org"), dep.AddSite("s1", "s1.org"),
		dep.AddSite("s2", "s2.org"), dep.AddSite("s3", "s3.org")}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := sites[1+i%3].Space().Put("prinz", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("doc %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()

	// The first site in address order: every peer's round would open
	// with it.
	cold := sites[0]
	cold.Crash()
	dep.Run()
	pushed := func() (sum int64) {
		for _, s := range sites[1:] {
			sum += statsFor(t, dep, s.Name).Pushed
		}
		return sum
	}
	before := pushed()
	if err := cold.Restart(); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if got := cold.Space().Len(); got != n {
		t.Fatalf("restarted replica holds %d rows, want %d", got, n)
	}
	if st := cold.Replicator().Stats(); st.Rounds == 0 || st.Applied != n {
		t.Fatalf("the restarted site's own rounds pulled %d rows in %d rounds, want %d", st.Applied, st.Rounds, n)
	}
	if got := pushed() - before; got != 0 {
		t.Fatalf("peers pushed %d rows at the recovery, want 0", got)
	}
}

// Restart on a running site must refuse: it would open a second durable
// backend over a directory the live one still holds.
func TestRestartRequiresCrash(t *testing.T) {
	dep := NewDeployment(WithSeed(7), WithDurableStore(t.TempDir()))
	gmd := dep.AddSite("gmd", "gmd.de")
	if err := gmd.Restart(); err == nil {
		t.Fatal("Restart of a running site succeeded")
	}
	gmd.Crash()
	gmd.Crash() // idempotent
	if err := gmd.Restart(); err != nil {
		t.Fatalf("Restart after Crash: %v", err)
	}
}
