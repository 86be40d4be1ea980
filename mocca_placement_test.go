package mocca

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/odp"
	"mocca/internal/placement"
	"mocca/internal/transparency"
)

// fanoutOutcome fingerprints a fanout scenario run for reproducibility
// and cross-mode comparison.
type fanoutOutcome struct {
	syncBytes    int64
	remoteTitle  string
	remoteHolder string
	stateVV      string
}

// runActivityFanout drives the acceptance scenario: 8 sites, one activity
// whose two members live at s00 and s01, six objects written into the
// activity's space at s00. With scoped placement the space lives at
// {s00, s01} only; without, it replicates everywhere.
func runActivityFanout(t *testing.T, scoped bool) fanoutOutcome {
	t.Helper()
	const nSites, nObjs = 8, 6
	dep := NewDeployment(WithSeed(1992))
	sites := make([]*Site, nSites)
	for i := range sites {
		sites[i] = dep.AddSite(fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d.net", i))
	}
	sites[0].AddUser("ada")
	sites[1].AddUser("ben")
	act, err := dep.Env().Activities().Create("ada", "design-review", "review the design")
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"ada", "ben"} {
		if err := dep.Env().Activities().Join(act.ID, member, "participant"); err != nil {
			t.Fatal(err)
		}
	}
	if scoped {
		dep.SetPlacementRules(placement.ByActivity(act.ID, "context", dep.ActivityMemberSites))
		dep.Run()
	}

	var objIDs []string
	for i := 0; i < nObjs; i++ {
		obj, err := sites[0].Space().Put("ada", SharedSchemaName, map[string]string{
			"title":   fmt.Sprintf("design rev %d", i),
			"context": act.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		objIDs = append(objIDs, obj.ID)
	}
	dep.Run()

	// Participants hold the space; with scoping, nobody else stores a row.
	for i, s := range sites {
		n := s.Space().Len()
		switch {
		case i < 2:
			if n != nObjs {
				t.Fatalf("participant %s holds %d rows, want %d", s.Name, n, nObjs)
			}
		case scoped:
			if n != 0 {
				t.Fatalf("non-participant %s stores %d rows, want 0", s.Name, n)
			}
		default:
			if n != nObjs {
				t.Fatalf("full replication: %s holds %d rows, want %d", s.Name, n, nObjs)
			}
		}
	}

	// A non-participating site still reads the space — via trader-resolved
	// remote read-through over the rpc/channel stack.
	reader := sites[nSites-1]
	var got *information.Object
	if err := dep.Do(func() error {
		o, err := reader.Env().Get("ada", objIDs[0])
		got = o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got.Fields["title"] != "design rev 0" {
		t.Fatalf("remote read = %+v", got.Fields)
	}

	// Deselect location transparency: the same read is annotated with the
	// holder that actually served it.
	dep.Env().Transparency().Disable("ada", odp.Location)
	var annotated *information.Object
	if err := dep.Do(func() error {
		o, err := reader.Env().Get("ada", objIDs[0])
		annotated = o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	holder := annotated.Fields[transparency.LocationHolderField]
	if scoped {
		if holder != "s00" && holder != "s01" {
			t.Fatalf("holder annotation = %q, want a participant site", holder)
		}
		if annotated.Fields[transparency.LocationReaderField] != reader.Name ||
			annotated.Fields[transparency.LocationViaField] != "trader" {
			t.Fatalf("location annotations = %v", annotated.Fields)
		}
		// Per-site stats surface the remote read and the filtering.
		stats := dep.PlacementStats()
		byName := map[string]SitePlacementStats{}
		var filtered int64
		for _, st := range stats {
			byName[st.Site] = st
			filtered += st.ScopeFiltered
		}
		if byName[reader.Name].RemoteReadsIssued < 2 {
			t.Fatalf("reader stats = %+v", byName[reader.Name])
		}
		if byName["s00"].RemoteReadsServed+byName["s01"].RemoteReadsServed < 2 {
			t.Fatalf("no participant served the remote reads: %+v", stats)
		}
		if filtered == 0 {
			t.Fatal("placement filtered nothing")
		}
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
	ref, err := sites[0].Space().Get("ada", objIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	return fanoutOutcome{
		syncBytes:    dep.Fabric().TotalsFor("repl-").BytesOut,
		remoteTitle:  got.Fields["title"],
		remoteHolder: holder,
		stateVV:      ref.VV.String(),
	}
}

// TestPlacementActivityScopedFanout is the issue's acceptance scenario:
// with activity-scoped placement at 8 sites a non-participating site
// stores zero rows of the activity's space, anti-entropy bytes drop
// against full replication in the same scenario, and SiteEnv.Get from a
// non-placed site still returns the rows via trader-mediated read-through.
// Both modes are seeded; the scoped run is reproducible.
func TestPlacementActivityScopedFanout(t *testing.T) {
	scoped := runActivityFanout(t, true)
	full := runActivityFanout(t, false)
	if scoped.syncBytes >= full.syncBytes {
		t.Fatalf("partial replication saved nothing: scoped=%d full=%d bytes",
			scoped.syncBytes, full.syncBytes)
	}
	t.Logf("repl- sync bytes: scoped=%d full=%d (saved %.0f%%)",
		scoped.syncBytes, full.syncBytes,
		100*(1-float64(scoped.syncBytes)/float64(full.syncBytes)))

	// Seeded convergence under partial placement: a second scoped run ends
	// byte-identical.
	if again := runActivityFanout(t, true); again != scoped {
		t.Fatalf("scoped run not reproducible: %+v vs %+v", again, scoped)
	}
}

// TestPlacementRuntimeDeplacement: a space is scoped at runtime after it
// already replicated everywhere — the de-placed sites migrate their rows
// to the placed ones and end with zero rows, even when the policy change
// lands while the de-placed site is partitioned away mid-sync.
func TestPlacementRuntimeDeplacement(t *testing.T) {
	dep := NewDeployment(WithSeed(41))
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	s2 := dep.AddSite("s2", "s2.net")

	obj, err := s2.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "workspace doc", "context": "ws-eng",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	for _, s := range []*Site{s0, s1, s2} {
		if s.Space().Len() != 1 {
			t.Fatalf("%s did not replicate pre-scoping", s.Name)
		}
	}

	// Partition s2 away and write an update it will miss; scope the space
	// to {s0, s1} while s2 is cut off — the de-placement lands mid-sync.
	dep.Network().Partition(
		[]netsim.Address{"mta-s2", "repl-s2", "place-s2"},
		[]netsim.Address{"mta-s0", "repl-s0", "place-s0", "mta-s1", "repl-s1", "place-s1"},
	)
	if _, err := s0.Space().Update("ada", obj.ID, 1, map[string]string{"title": "v2"}); err != nil {
		t.Fatal(err)
	}
	dep.SetPlacementRules(placement.ByField("context", "ws-eng", "s0", "s1"))
	dep.Run()

	// Heal: s2 must migrate its stale row off and must not receive v2.
	dep.Network().Heal()
	dep.Run()
	dep.SetPlacementRules(placement.ByField("context", "ws-eng", "s0", "s1")) // re-kick migration post-heal
	dep.Run()

	if n := s2.Space().Len(); n != 0 {
		t.Fatalf("de-placed site still stores %d rows", n)
	}
	for _, s := range []*Site{s0, s1} {
		got, err := s.Space().Get("ada", obj.ID)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got.Fields["title"] != "v2" {
			t.Fatalf("%s state = %v", s.Name, got.Fields)
		}
	}
	stats := dep.PlacementStats()
	var migrated int64
	for _, st := range stats {
		migrated += st.Migrated
	}
	if migrated == 0 {
		t.Fatalf("no migration recorded: %+v", stats)
	}
	// The de-placed site still reads the space remotely.
	var got *information.Object
	if err := dep.Do(func() error {
		o, err := s2.Env().Get("ada", obj.ID)
		got = o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got.Fields["title"] != "v2" {
		t.Fatalf("remote read after de-placement = %v", got.Fields)
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementDisjointInterestSetsPartitionHeal: two spaces scoped to
// disjoint site pairs, a partition separating the pairs, writes on both
// sides. After the heal each space converges within its pair and never
// crosses into the other — disjoint interest sets stay disjoint.
func TestPlacementDisjointInterestSetsPartitionHeal(t *testing.T) {
	dep := NewDeployment(WithSeed(17), WithPlacement(
		placement.ByField("context", "ws-hw", "s0", "s1"),
		placement.ByField("context", "ws-sw", "s2", "s3"),
	))
	sites := []*Site{
		dep.AddSite("s0", "s0.net"), dep.AddSite("s1", "s1.net"),
		dep.AddSite("s2", "s2.net"), dep.AddSite("s3", "s3.net"),
	}
	dep.Network().Partition(
		[]netsim.Address{"mta-s0", "repl-s0", "place-s0", "mta-s1", "repl-s1", "place-s1"},
		[]netsim.Address{"mta-s2", "repl-s2", "place-s2", "mta-s3", "repl-s3", "place-s3"},
	)
	hw, err := sites[0].Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "board", "context": "ws-hw",
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sites[2].Space().Put("ben", SharedSchemaName, map[string]string{
		"title": "kernel", "context": "ws-sw",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	dep.Network().Heal()
	dep.Run()

	for i, s := range sites {
		wantHW, wantSW := i < 2, i >= 2
		if _, err := s.Space().Get("ada", hw.ID); (err == nil) != wantHW {
			t.Fatalf("%s hw presence wrong (err=%v)", s.Name, err)
		}
		if _, err := s.Space().Get("ben", sw.ID); (err == nil) != wantSW {
			t.Fatalf("%s sw presence wrong (err=%v)", s.Name, err)
		}
		want := 1
		if n := s.Space().Len(); n != want {
			t.Fatalf("%s holds %d rows, want %d", s.Name, n, want)
		}
	}
	// Cross-space reads work through the trader in both directions.
	if err := dep.Do(func() error {
		o, err := sites[3].Env().Get("ada", hw.ID)
		if err != nil {
			return err
		}
		if o.Fields["title"] != "board" {
			return fmt.Errorf("bad remote read: %v", o.Fields)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementWriteForwarding: a Put at a site not placed for the
// object's space is routed to a placed holder instead of stranding a
// foreign row until the next migration sweep — the local copy is dropped
// once the holder accepted, and the writer site still reads the object
// back through the trader.
func TestPlacementWriteForwarding(t *testing.T) {
	dep := NewDeployment(WithSeed(29), WithPlacement(
		placement.ByField("context", "vault", "s0"),
	))
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")

	obj, err := s1.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "routed secret", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()

	if n := s1.Space().Len(); n != 0 {
		t.Fatalf("writer site still holds %d foreign rows", n)
	}
	got, err := s0.Space().Get("ada", obj.ID)
	if err != nil || got.Fields["title"] != "routed secret" {
		t.Fatalf("holder state = %v, %v", got, err)
	}
	stats := dep.PlacementStats()
	byName := map[string]SitePlacementStats{}
	for _, st := range stats {
		byName[st.Site] = st
	}
	if byName["s1"].WritesForwarded == 0 {
		t.Fatalf("no forward recorded: %+v", byName["s1"])
	}
	if byName["s0"].WritesAccepted == 0 {
		t.Fatalf("holder accepted nothing: %+v", byName["s0"])
	}
	// The writer still reads its own write — via read-through.
	if err := dep.Do(func() error {
		o, err := s1.Env().Get("ada", obj.ID)
		if err != nil {
			return err
		}
		if o.Fields["title"] != "routed secret" {
			return fmt.Errorf("bad read-back: %v", o.Fields)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementWriteForwardingKeepsCopyWhenHolderDown: no reachable
// placed holder — the foreign copy stays (forwarding never destroys the
// only copy) and a later migration sweep moves it once the holder is
// back.
func TestPlacementWriteForwardingKeepsCopyWhenHolderDown(t *testing.T) {
	dep := NewDeployment(WithSeed(31), WithPlacement(
		placement.ByField("context", "vault", "s0"),
	))
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	s0.Crash()

	obj, err := s1.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "stranded", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if _, err := s1.Space().Get("ada", obj.ID); err != nil {
		t.Fatalf("sole copy destroyed by failed forward: %v", err)
	}

	// Holder returns; the recovery sync round hands it the row, and a
	// migration sweep clears the foreign copy.
	if err := s0.Restart(); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	dep.SetPlacementRules(placement.ByField("context", "vault", "s0"))
	dep.Run()
	if _, err := s0.Space().Get("ada", obj.ID); err != nil {
		t.Fatalf("holder never received the row: %v", err)
	}
	if n := s1.Space().Len(); n != 0 {
		t.Fatalf("foreign copy still on writer site: %d rows", n)
	}
}

// TestPlacementSoleHolderDown: the only site placed for a space crashes;
// a read-through from elsewhere fails with an error that says so, and
// recovers once the holder restarts. The holder runs on the durable
// store — with a single placed replica, the log IS the only copy.
func TestPlacementSoleHolderDown(t *testing.T) {
	dep := NewDeployment(WithSeed(23), WithDurableStore(t.TempDir()), WithPlacement(
		placement.ByField("context", "vault", "s0"),
	))
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	obj, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "secret plan", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if s1.Space().Len() != 0 {
		t.Fatal("vault leaked to s1")
	}

	// Holder up: the read-through serves.
	if err := dep.Do(func() error {
		o, err := s1.Env().Get("ada", obj.ID)
		if err != nil {
			return err
		}
		if o.Fields["title"] != "secret plan" {
			return fmt.Errorf("bad read: %v", o.Fields)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Sole holder down: the read fails with a useful error.
	s0.Crash()
	readErr := dep.Do(func() error {
		_, err := s1.Env().Get("ada", obj.ID)
		return err
	})
	if readErr == nil {
		t.Fatal("read through a dead sole holder succeeded")
	}
	if !errors.Is(readErr, placement.ErrNoHolder) {
		t.Fatalf("err = %v, want ErrNoHolder", readErr)
	}
	if !strings.Contains(readErr.Error(), "no reachable holder") {
		t.Fatalf("unhelpful error: %v", readErr)
	}

	// The holder comes back; reads recover.
	if err := s0.Restart(); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if err := dep.Do(func() error {
		_, err := s1.Env().Get("ada", obj.ID)
		return err
	}); err != nil {
		t.Fatalf("read after holder restart: %v", err)
	}
}
