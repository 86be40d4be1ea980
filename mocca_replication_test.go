package mocca

import (
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

// replicationOutcome fingerprints the end state of a partition scenario so
// two seeded runs can be compared for reproducibility.
type replicationOutcome struct {
	title, site, vv string
	version         uint64
	conflictsAtGMD  int
}

// runPartitionScenario drives the partition-during-sync scenario from the
// issue: three sites replicate one object, the network partitions gmd away
// from {upc, nott}, gmd and upc update the object concurrently, the
// partition heals, and anti-entropy reconciles everything.
func runPartitionScenario(t *testing.T, advanceBetweenWrites time.Duration) replicationOutcome {
	t.Helper()
	dep := NewDeployment(WithSeed(1992))
	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")
	nott := dep.AddSite("nott", "nott.uk")
	sites := []*Site{gmd, upc, nott}

	var conflictsAtGMD int
	gmd.Space().Subscribe("", func(ev information.Event) {
		if ev.Kind == "conflict" {
			conflictsAtGMD++
			if ev.Conflict == nil {
				t.Error("conflict event without detail")
			}
		}
	})

	// A shared object born at gmd, writable by upc's editor too.
	obj, err := gmd.Space().Put("prinz", SharedSchemaName, map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	if err := gmd.Space().Share("prinz", obj.ID, "navarro", true); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	for _, s := range sites {
		if got, err := s.Space().Get("prinz", obj.ID); err != nil || got.Fields["title"] != "draft" {
			t.Fatalf("site %s missing replicated object: %v %v", s.Name, got, err)
		}
	}

	// Partition gmd away from the other two and write on both sides.
	dep.Network().Partition(
		[]netsim.Address{"mta-gmd", "repl-gmd"},
		[]netsim.Address{"mta-upc", "repl-upc", "mta-nott", "repl-nott"},
	)
	if _, err := upc.Space().Update("navarro", obj.ID, 1, map[string]string{"title": "upc-edit"}); err != nil {
		t.Fatal(err)
	}
	dep.Advance(advanceBetweenWrites)
	if _, err := gmd.Space().Update("prinz", obj.ID, 1, map[string]string{"title": "gmd-edit"}); err != nil {
		t.Fatal(err)
	}
	// Draining under the partition must terminate (sync failure cap) and
	// must not leak writes across the cut.
	dep.Run()
	if got, _ := upc.Space().Get("prinz", obj.ID); got.Fields["title"] == "gmd-edit" {
		t.Fatal("update crossed the partition")
	}
	if got, _ := gmd.Space().Get("prinz", obj.ID); got.Fields["title"] != "gmd-edit" {
		t.Fatalf("local write lost: %v", got.Fields)
	}
	// upc's write did reach nott (same side of the partition).
	if got, _ := nott.Space().Get("prinz", obj.ID); got.Fields["title"] != "upc-edit" {
		t.Fatalf("intra-partition sync failed: %v", got.Fields)
	}

	// Heal: the deployment's heal hook kicks sync rounds everywhere.
	dep.Network().Heal()
	dep.Run()

	ref, err := gmd.Space().Get("prinz", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites[1:] {
		got, err := s.Space().Get("prinz", obj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.VV.Compare(ref.VV) != vclock.Equal || got.Version != ref.Version ||
			got.Site != ref.Site || got.Fields["title"] != ref.Fields["title"] {
			t.Fatalf("site %s diverged after heal: %+v vs %+v", s.Name, got, ref)
		}
	}
	if ref.VV.Counter("gmd") != 2 || ref.VV.Counter("upc") != 1 || ref.Version != 3 {
		t.Fatalf("merged history wrong: %+v", ref)
	}
	if conflictsAtGMD == 0 {
		t.Fatal("gmd never surfaced the concurrent update as a conflict event")
	}

	// Sync traffic is engineering-visible: repl-* channels carry frames...
	var syncFrames int64
	for _, c := range dep.ChannelStats() {
		if len(c.Local) > 5 && c.Local[:5] == "repl-" {
			syncFrames += c.FramesOut
		}
	}
	if syncFrames == 0 {
		t.Fatal("no sync traffic in ChannelStats")
	}
	if repl := dep.Fabric().TotalsFor("repl-"); repl.FramesOut != syncFrames || repl.BytesOut == 0 {
		t.Fatalf("fabric repl slice inconsistent: %+v vs %d frames", repl, syncFrames)
	}
	// ...and nothing bypassed the channel stack.
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
	return replicationOutcome{
		title:          ref.Fields["title"],
		site:           ref.Site,
		vv:             ref.VV.String(),
		version:        ref.Version,
		conflictsAtGMD: conflictsAtGMD,
	}
}

// TestReplicationPartitionConvergence is the issue's acceptance scenario:
// concurrent updates during a partition converge deterministically on all
// sites after Heal, surfacing a conflict event, with sync traffic visible
// in the engineering bookkeeping. Both writes land at the same simulated
// instant, so the site-ordered tie-break decides ("upc" > "gmd").
func TestReplicationPartitionConvergence(t *testing.T) {
	out := runPartitionScenario(t, 0)
	if out.title != "upc-edit" || out.site != "upc" {
		t.Fatalf("winner = %+v, want upc-edit by site order", out)
	}
	// Seeded and reproducible: a second run ends in the identical state.
	if again := runPartitionScenario(t, 0); again != out {
		t.Fatalf("scenario not reproducible: %+v vs %+v", again, out)
	}
}

// TestReplicationPartitionLastWriterWins advances the clock between the
// two partitioned writes: gmd writes later and wins on timestamp despite
// the lower site name.
func TestReplicationPartitionLastWriterWins(t *testing.T) {
	out := runPartitionScenario(t, time.Second)
	if out.title != "gmd-edit" || out.site != "gmd" {
		t.Fatalf("winner = %+v, want gmd-edit by timestamp", out)
	}
}

// TestReplicationCrashRecovery: a site's replica node crashes, misses
// writes (the survivors' replicators hit the failure cap and go dormant),
// then recovers — the recovery hook must restart reconciliation so the
// deployment converges without any partition or manual kick.
func TestReplicationCrashRecovery(t *testing.T) {
	dep := NewDeployment(WithSeed(8))
	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")

	obj, err := gmd.Space().Put("prinz", SharedSchemaName, map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()

	node, ok := dep.Network().Node(netsim.Address("repl-upc"))
	if !ok {
		t.Fatal("repl-upc node missing")
	}
	node.SetDown(true)
	if _, err := gmd.Space().Update("prinz", obj.ID, 1, map[string]string{"title": "while-down"}); err != nil {
		t.Fatal(err)
	}
	dep.Run() // gmd's rounds fail toward the crashed node, then go dormant
	if got, _ := upc.Space().Get("prinz", obj.ID); got.Fields["title"] == "while-down" {
		t.Fatal("crashed replica received the write")
	}

	node.SetDown(false) // recovery hook kicks sync everywhere
	dep.Run()
	got, err := upc.Space().Get("prinz", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["title"] != "while-down" || got.VV.Counter("gmd") != 2 {
		t.Fatalf("recovered replica did not catch up: %+v", got)
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriberCannotCorruptCallerCopy: a subscriber mutating ev.Object
// must not alter the object returned to the writer.
func TestSubscriberCannotCorruptCallerCopy(t *testing.T) {
	dep := NewDeployment(WithSeed(2))
	site := dep.AddSite("gmd", "gmd.de")
	site.Space().Subscribe("", func(ev information.Event) {
		if ev.Object != nil {
			ev.Object.Fields["title"] = "mutated"
		}
	})
	obj, err := site.Space().Put("prinz", SharedSchemaName, map[string]string{"title": "clean"})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Fields["title"] != "clean" {
		t.Fatalf("subscriber corrupted Put result: %v", obj.Fields)
	}
	upd, err := site.Space().Update("prinz", obj.ID, 1, map[string]string{"title": "clean-2"})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Fields["title"] != "clean-2" {
		t.Fatalf("subscriber corrupted Update result: %v", upd.Fields)
	}
}

// TestLateJoiningSiteCatchesUp: a site added after the deployment has
// replicated state pulls the existing objects with its first sync round,
// without waiting for an unrelated write, heal, or recovery.
func TestLateJoiningSiteCatchesUp(t *testing.T) {
	dep := NewDeployment(WithSeed(6))
	gmd := dep.AddSite("gmd", "gmd.de")
	dep.AddSite("upc", "upc.es")
	obj, err := gmd.Space().Put("prinz", SharedSchemaName, map[string]string{"title": "pre-join"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run() // converged, replicators dormant

	nott := dep.AddSite("nott", "nott.uk")
	dep.Run()
	got, err := nott.Space().Get("prinz", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["title"] != "pre-join" || got.VV.Counter("gmd") != 1 {
		t.Fatalf("late joiner state = %+v", got)
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}
