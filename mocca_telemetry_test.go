package mocca

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mocca/internal/observe"
)

// TestTraceLinksWriteAcrossSites is the telemetry plane's acceptance
// test: one trace id follows a write from s0 across the overlay to s1
// and, relayed by s1's forward, on to s2 — with every span parented onto
// the hop that caused it: the rumor announcement under the write, its
// serve at the next site under the announcement, and each site's apply
// and WAL commit under the write.
func TestTraceLinksWriteAcrossSites(t *testing.T) {
	dep := NewDeployment(
		WithSeed(29),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithGossip(),
	)
	sites := []*Site{dep.AddSite("s0", "s0.net"), dep.AddSite("s1", "s1.net"), dep.AddSite("s2", "s2.net")}
	dep.Run()

	obj, err := sites[0].Space().Put("ada", SharedSchemaName, map[string]string{"title": "relayed"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	for _, s := range sites[1:] {
		if _, err := s.Space().Get("ada", obj.ID); err != nil {
			t.Fatalf("%s missing the object: %v", s.Name, err)
		}
	}

	spans := dep.Traces()
	find := func(name, site string, parent uint64) *observe.Span {
		for i := range spans {
			sp := &spans[i]
			if sp.Name == name && sp.Site == site && (parent == 0 || sp.Parent == parent) {
				return sp
			}
		}
		return nil
	}
	root := find("write:put", "s0", 0)
	if root == nil {
		t.Fatalf("no write root span; spans: %v", spanNames(spans))
	}
	rumor := "gossip.rumor"
	// The chain of hops: s0 announces the row, s1 serves the announcement,
	// s1 forwards and announces it on, s2 serves that.
	ann0 := find("rpc.ann:"+rumor, "gossip-s0", root.SpanID)
	ann1 := find("rpc.ann:"+rumor, "gossip-s1", root.SpanID)
	var serve1, serve2 *observe.Span
	if ann0 != nil {
		serve1 = find("rpc.serve:"+rumor, "gossip-s1", ann0.SpanID)
	}
	if ann1 != nil {
		serve2 = find("rpc.serve:"+rumor, "gossip-s2", ann1.SpanID)
	}
	for _, tc := range []struct {
		what string
		sp   *observe.Span
	}{
		{"rpc.ann at s0 under the write", ann0},
		{"rpc.serve at s1 under s0's announcement", serve1},
		{"gossip.forward at s1 under the write", find("gossip.forward", "s1", root.SpanID)},
		{"rpc.ann at s1 under the write", ann1},
		{"rpc.serve at s2 under s1's announcement", serve2},
		{"sync.apply at s1 under the write", find("sync.apply", "s1", root.SpanID)},
		{"sync.apply at s2 under the write", find("sync.apply", "s2", root.SpanID)},
		{"wal.commit at s2 under the write", find("wal.commit", "s2", root.SpanID)},
	} {
		if tc.sp == nil {
			t.Fatalf("missing %s; spans: %v", tc.what, spanNames(spans))
		}
		if tc.sp.TraceID != root.TraceID {
			t.Fatalf("%s in trace %x, want %x", tc.what, tc.sp.TraceID, root.TraceID)
		}
	}

	// The Chrome export of the run is a single valid JSON object with
	// one complete event per span.
	var buf bytes.Buffer
	if err := dep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Fatalf("chrome export has %d complete events for %d spans", complete, len(spans))
	}
}

// TestPushDeliveredWriteIsTraced: in the plain two-site case the writer's
// own round pushes the row, so the replica applies it in the replica.push
// handler rather than from a delta it pulled. That delivery is a
// sync.apply span of the write's trace all the same.
func TestPushDeliveredWriteIsTraced(t *testing.T) {
	dep := NewDeployment(WithSeed(3), WithTelemetry())
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	dep.Run() // drain the rounds site setup armed: the next one is the writer's
	obj, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "pushed"})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if _, err := s1.Space().Get("ada", obj.ID); err != nil {
		t.Fatalf("s1 missing the object: %v", err)
	}
	if w, r := statsFor(t, dep, "s0"), statsFor(t, dep, "s1"); w.Pushed != 1 || r.ServedApplied != 1 || r.Applied != 0 {
		t.Fatalf("the row did not travel by push: s0 %+v, s1 %+v", w.Stats, r.Stats)
	}

	var root, apply *observe.Span
	spans := dep.Traces()
	for i := range spans {
		switch sp := &spans[i]; {
		case sp.Name == "write:put" && sp.Site == "s0":
			root = sp
		case sp.Name == "sync.apply" && sp.Site == "s1":
			apply = sp
		}
	}
	if root == nil || apply == nil {
		t.Fatalf("write root %v, sync.apply at s1 %v; spans: %v", root, apply, spanNames(spans))
	}
	if apply.TraceID != root.TraceID || apply.Parent != root.SpanID {
		t.Fatalf("sync.apply in trace %x under %x, want trace %x under the write root %x",
			apply.TraceID, apply.Parent, root.TraceID, root.SpanID)
	}
}

// TestRestartKeepsTelemetry: a restarted site is wired exactly like a
// first-booted one. After Crash/Restart of two durable sites (s0, s1), a
// write made elsewhere and applied at each still commits under a
// wal.commit span of that write's trace, and a write made at s1 still
// roots a trace its apply at s0 joins.
func TestRestartKeepsTelemetry(t *testing.T) {
	dep := NewDeployment(
		WithSeed(29),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
	)
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	s2 := dep.AddSite("s2", "s2.net")
	dep.Run()
	for _, s := range []*Site{s0, s1} {
		s.Crash()
		if err := s.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()

	// The wal.commit span needs an already-tagged id, so the write is made
	// at s2 and reaches the restarted s0 as a remote apply.
	remote, err := s2.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "applied at the restarted site",
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := s1.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "written at the restarted site",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if _, err := s0.Space().Get("ada", remote.ID); err != nil {
		t.Fatalf("restarted site s0 missing the remote write: %v", err)
	}

	spans := dep.Traces()
	find := func(name, site, objID string) *observe.Span {
		for i := range spans {
			sp := &spans[i]
			if sp.Name != name || sp.Site != site {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "object" && a.Value == objID {
					return sp
				}
			}
		}
		return nil
	}
	for _, tc := range []struct {
		span, site string // the span the restarted site must emit
		rootSite   string // where the write it belongs to was made
		objID      string
	}{
		{"wal.commit", "s0", "s2", remote.ID},
		{"wal.commit", "s1", "s2", remote.ID},
		{"sync.apply", "s0", "s1", local.ID},
	} {
		root := find("write:put", tc.rootSite, tc.objID)
		if root == nil {
			t.Fatalf("no write root for %s at %s; spans: %v", tc.objID, tc.rootSite, spanNames(spans))
		}
		sp := find(tc.span, tc.site, tc.objID)
		if sp == nil {
			t.Fatalf("restarted site %s emitted no %s span; spans: %v", tc.site, tc.span, spanNames(spans))
		}
		if sp.TraceID != root.TraceID {
			t.Fatalf("%s at %s in trace %x, want the write's trace %x", tc.span, tc.site, sp.TraceID, root.TraceID)
		}
	}
}

// TestTelemetryMetricsProjectSubsystemStats: the adapter collectors
// surface the run's existing counters under stable dotted names, and
// the registry's text exposition carries them.
func TestTelemetryMetricsProjectSubsystemStats(t *testing.T) {
	dep := NewDeployment(WithSeed(7), WithTelemetry(), WithDurableStore(t.TempDir()))
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	if _, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "x"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()

	snap := dep.Metrics().Snapshot()
	if v := snap.Value("mocca.sync.rounds", observe.L("site", "s0")...); v == 0 {
		t.Fatalf("no sync rounds projected: %+v", snap.Points)
	}
	if v := snap.Value("mocca.store.appends", observe.L("site", "s0")...); v == 0 {
		t.Fatalf("no WAL appends projected")
	}
	if v := snap.Value("mocca.net.delivered"); v == 0 {
		t.Fatalf("no network counters projected")
	}
	// The projection must agree with the source snapshot — the adapter
	// reads the same counters, it does not double-count.
	if want := s0.Replicator().Stats().Rounds; snap.Value("mocca.sync.rounds", observe.L("site", "s0")...) != want {
		t.Fatalf("sync.rounds diverged from replica.Stats")
	}
	// The repair and negotiation counters project replica.Stats as they
	// are, site by site; the digest bytes are the sum of the four kinds.
	matchesStats := func(snap observe.Snapshot, sites ...*Site) {
		t.Helper()
		for _, site := range sites {
			rs := site.Replicator().Stats()
			for name, want := range map[string]int64{
				"mocca.sync.pushed":          rs.Pushed,
				"mocca.sync.hw_fast_deltas":  rs.HWFastDeltas,
				"mocca.sync.descent_calls":   rs.DescentCalls,
				"mocca.sync.deltas_served":   rs.DeltasServed,
				"mocca.sync.digest_bytes":    rs.DigestBytes,
				"mocca.sync.marks_bytes":     rs.MarksBytes,
				"mocca.sync.frame_bytes":     rs.FrameBytes,
				"mocca.sync.children_bytes":  rs.ChildrenBytes,
				"mocca.sync.want_bytes":      rs.WantBytes,
				"mocca.sync.marks_fallbacks": rs.MarksFallbacks,
			} {
				if got := snap.Value(name, observe.L("site", site.Name)...); got != want {
					t.Fatalf("%s{site=%s} = %d, replica.Stats says %d", name, site.Name, got, want)
				}
			}
			if rs.DigestBytes != rs.MarksBytes+rs.FrameBytes+rs.ChildrenBytes+rs.WantBytes {
				t.Fatalf("site %s: digest bytes are not the sum of their kinds: %+v", site.Name, rs)
			}
			if rs.DescentCalls != 0 {
				t.Fatalf("site %s descended for a gap the marks name: %+v", site.Name, rs)
			}
		}
	}
	// How the one write travelled: s0 handed it to s1 as it committed (one
	// push), and no round had to descend for it.
	matchesStats(snap, s0, s1)
	if snap.Value("mocca.sync.pushed", observe.L("site", "s0")...) != 1 || s1.Space().Len() != 1 {
		t.Fatalf("the hand-off at commit is not in the projection: %+v", snap.Points)
	}
	// A write made while s1 is cut off misses its hand-off. After the heal
	// a marks pass repairs it: s1 pulls it off the marks, s0 serves it.
	dep.Network().Partition(s1.Addrs())
	if _, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "y"}); err != nil {
		t.Fatal(err)
	}
	dep.Advance(time.Millisecond) // the hand-off leaves, into the cut
	dep.Network().Heal()
	dep.Run()
	snap = dep.Metrics().Snapshot()
	matchesStats(snap, s0, s1)
	if snap.Value("mocca.sync.hw_fast_deltas", observe.L("site", "s1")...) == 0 ||
		snap.Value("mocca.sync.deltas_served", observe.L("site", "s0")...) == 0 || s1.Space().Len() != 2 {
		t.Fatalf("the marks-pass repair is not in the projection: %+v", snap.Points)
	}
	// A restarted s1 holds none of s0's marks, so the next marks s0 sends
	// it go whole: a fallback, counted where it was sent.
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "z"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	snap = dep.Metrics().Snapshot()
	matchesStats(snap, s0)
	if snap.Value("mocca.sync.marks_fallbacks", observe.L("site", "s0")...) == 0 ||
		snap.Value("mocca.sync.marks_bytes", observe.L("site", "s0")...) == 0 || s1.Space().Len() != 3 {
		t.Fatalf("the restart's marks fallback is not in the projection: %+v", snap.Points)
	}

	// On the overlay, lazy links carry ihaves: the dots they named and the
	// queued dots dropped because the lazy peer showed it held them project
	// gossip.Stats as they are.
	overlay := NewDeployment(WithSeed(7), WithTelemetry(), WithGossip())
	var members []*Site
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("g%d", i)
		members = append(members, overlay.AddSite(name, name+".net"))
	}
	overlay.Run()
	for round := 0; round < 4; round++ {
		for _, m := range members {
			if _, err := m.Space().Put("ada", SharedSchemaName, map[string]string{"title": m.Name}); err != nil {
				t.Fatal(err)
			}
		}
		overlay.Run()
	}
	gsnap := overlay.Metrics().Snapshot()
	var dots, suppressed int64
	for _, m := range members {
		gs := m.Overlay().Stats()
		for name, want := range map[string]int64{
			"mocca.gossip.ihave_dots":       gs.IhaveDots,
			"mocca.gossip.ihave_suppressed": gs.IhaveSuppressed,
		} {
			if got := gsnap.Value(name, observe.L("site", m.Name)...); got != want {
				t.Fatalf("%s{site=%s} = %d, gossip.Stats says %d", name, m.Name, got, want)
			}
		}
		dots += gs.IhaveDots
		suppressed += gs.IhaveSuppressed
	}
	if dots == 0 || suppressed == 0 {
		t.Fatalf("the overlay's lazy push is not in the projection: %d ihave dots, %d suppressed", dots, suppressed)
	}

	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE mocca_sync_rounds counter",
		`mocca_sync_rounds{site="s0"}`,
		"# TYPE mocca_sync_hw_fast_deltas counter",
		"# TYPE mocca_sync_descent_calls counter",
		`mocca_sync_deltas_served{site="s0"}`,
		"mocca_net_delivered",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRestartedSiteCountersNeverFall: a site's sync, gossip and rpc
// counters are summed over its incarnations, so none reads lower after a
// crash and restart than before the crash, on either topology.
func TestRestartedSiteCountersNeverFall(t *testing.T) {
	for _, gossip := range []bool{false, true} {
		opts := []Option{WithSeed(31), WithTelemetry()}
		if gossip {
			opts = append(opts, WithGossip())
		}
		dep := NewDeployment(opts...)
		var sites []*Site
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("s%d", i)
			sites = append(sites, dep.AddSite(name, name+".net"))
		}
		dep.Run()
		for i, s := range sites {
			if _, err := s.Space().Put("ada", SharedSchemaName, map[string]string{"title": fmt.Sprint("before ", i)}); err != nil {
				t.Fatal(err)
			}
		}
		dep.Run()
		victim := observe.L("site", "s1")
		before := dep.Metrics().Snapshot()
		sites[1].Crash()
		if err := sites[1].Restart(); err != nil {
			t.Fatal(err)
		}
		after := dep.Metrics().Snapshot()
		checked := 0
		for _, p := range before.Points {
			if p.Kind != observe.KindCounter || !slices.Equal(p.Labels, victim) ||
				!strings.HasPrefix(p.Name, "mocca.sync.") && !strings.HasPrefix(p.Name, "mocca.gossip.") && !strings.HasPrefix(p.Name, "mocca.rpc.") {
				continue
			}
			checked++
			if got := after.Value(p.Name, victim...); got < p.Value {
				t.Errorf("gossip=%v: %s{site=s1} fell from %d to %d across a restart", gossip, p.Name, p.Value, got)
			}
		}
		if checked == 0 || before.Value("mocca.sync.rounds", victim...) == 0 {
			t.Fatalf("gossip=%v: no counters of s1 before the crash", gossip)
		}
		if gossip && before.Value("mocca.gossip.rumors_published", victim...) == 0 {
			t.Fatal("the overlay's counters of s1 are not in the projection")
		}
	}
}

// TestStatsSnapshotsRaceWithTraffic is the torn-read hammer (run under
// -race): every Stats surface in the deployment — replica,
// store, gossip, rpc, network, fabric, tracer — is snapshotted
// concurrently with live traffic via the registry collectors, plus the
// span ring via Traces(). Lock-protected snapshots make this silent;
// any torn read trips the race detector.
func TestStatsSnapshotsRaceWithTraffic(t *testing.T) {
	dep := NewDeployment(
		WithSeed(11),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithGossip(),
	)
	sites := []*Site{
		dep.AddSite("s0", "s0.net"),
		dep.AddSite("s1", "s1.net"),
		dep.AddSite("s2", "s2.net"),
	}
	dep.Run()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := dep.Metrics().Snapshot()
				_ = snap.Value("mocca.sync.rounds", observe.L("site", "s0")...)
				_ = dep.Traces()
				_ = dep.Fabric().Totals()
				_ = dep.Network().Stats()
				for _, s := range sites {
					_ = s.Replicator().Stats()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := sites[i%len(sites)].Space().Put("ada", SharedSchemaName,
			map[string]string{"title": "hammer " + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
		dep.Run()
	}
	close(done)
	wg.Wait()

	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

func spanNames(spans []observe.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Site + "/" + sp.Name
	}
	return out
}

// TestMetricFamiliesUnchanged pins the metric surface: the sorted
// (name, kind, label keys) of everything a snapshot holds after a few
// writes, a crash and a restart, on each topology and on a durable
// deployment, against testdata/metric_families.golden. How a family is
// produced may change; which families exist, of what kind and with what
// labels may only change by editing the golden file on purpose. Values are
// TestTelemetryMetricsProjectSubsystemStats' business.
func TestMetricFamiliesUnchanged(t *testing.T) {
	var got strings.Builder
	for _, tc := range []struct {
		name            string
		gossip, durable bool
	}{
		{"mesh/memory", false, false},
		{"gossip/memory", true, false},
		{"mesh/durable", false, true},
	} {
		opts := []Option{WithSeed(23), WithTelemetry()}
		if tc.gossip {
			opts = append(opts, WithGossip())
		}
		if tc.durable {
			opts = append(opts, WithDurableStore(t.TempDir()))
		}
		dep := NewDeployment(opts...)
		sites := []*Site{
			dep.AddSite("s0", "s0.net"),
			dep.AddSite("s1", "s1.net"),
			dep.AddSite("s2", "s2.net"),
		}
		put := func(s *Site, title string) {
			t.Helper()
			if _, err := s.Space().Put("ada", SharedSchemaName, map[string]string{"title": title}); err != nil {
				t.Fatal(err)
			}
		}
		put(sites[0], "before")
		dep.Run()
		sites[1].Crash()
		put(sites[2], "while down")
		dep.Run()
		if err := sites[1].Restart(); err != nil {
			t.Fatal(err)
		}
		put(sites[1], "after")
		dep.Run()

		families := make(map[string]bool)
		for _, p := range dep.Metrics().Snapshot().Points {
			keys := make([]string, len(p.Labels))
			for i, l := range p.Labels {
				keys[i] = l.Key
			}
			families[strings.TrimSpace(p.Name+" "+string(p.Kind)+" "+strings.Join(keys, ","))] = true
		}
		lines := make([]string, 0, len(families))
		for f := range families {
			lines = append(lines, f)
		}
		sort.Strings(lines)
		got.WriteString("# " + tc.name + "\n" + strings.Join(lines, "\n") + "\n")
	}

	want, err := os.ReadFile("testdata/metric_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("metric families differ from testdata/metric_families.golden; got:\n%s", got.String())
	}
}
