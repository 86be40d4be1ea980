package mocca

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"mocca/internal/observe"
	"mocca/internal/placement"
)

// TestTraceLinksWriteAcrossSites is the telemetry plane's acceptance
// test: one trace id follows a write from a non-placed site through the
// placement forward rpc, the holder's WAL commit, and the anti-entropy
// delivery at a second placed site — with every span parented onto the
// hop that caused it.
func TestTraceLinksWriteAcrossSites(t *testing.T) {
	dep := NewDeployment(
		WithSeed(29),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithPlacement(placement.ByField("context", "vault", "s0", "s2")),
	)
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	s2 := dep.AddSite("s2", "s2.net")

	// The write lands at s1, which the policy does not place for the
	// space: it must forward to a placed holder and keep no copy.
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
	for _, s := range []*Site{s0, s2} {
		if _, err := s.Space().Get("ada", obj.ID); err != nil {
			t.Fatalf("holder %s missing the object: %v", s.Name, err)
		}
	}

	// Find the root: the write:put span at s1 for this object.
	spans := dep.Traces()
	byName := func(name, site string) *observe.Span {
		for i := range spans {
			if spans[i].Name == name && (site == "" || spans[i].Site == site) {
				return &spans[i]
			}
		}
		return nil
	}
	root := byName("write:put", "s1")
	if root == nil {
		t.Fatalf("no write root span; spans: %v", spanNames(spans))
	}
	trace := root.TraceID

	// Every hop of the chain is in the same trace.
	forward := byName("placement.forward", "s1")
	call := byName("rpc.call:"+placement.MethodWrite, "")
	serve := byName("rpc.serve:"+placement.MethodWrite, "")
	commit := byName("wal.commit", "s0")
	apply := byName("sync.apply", "s2")
	for _, tc := range []struct {
		what string
		sp   *observe.Span
	}{
		{"placement.forward", forward},
		{"rpc.call", call},
		{"rpc.serve", serve},
		{"wal.commit@s0", commit},
		{"sync.apply@s2", apply},
	} {
		if tc.sp == nil {
			t.Fatalf("missing %s span; spans: %v", tc.what, spanNames(spans))
		}
		if tc.sp.TraceID != trace {
			t.Fatalf("%s span in trace %x, want %x", tc.what, tc.sp.TraceID, trace)
		}
	}

	// And the parenting mirrors causality: put → forward → call → serve,
	// with the holder-side WAL commit and the second site's apply both
	// children of the serve span that carried the object in.
	if forward.Parent != root.SpanID {
		t.Fatalf("forward parent = %x, want write root %x", forward.Parent, root.SpanID)
	}
	if call.Parent != forward.SpanID {
		t.Fatalf("call parent = %x, want forward %x", call.Parent, forward.SpanID)
	}
	if serve.Parent != call.SpanID {
		t.Fatalf("serve parent = %x, want call %x", serve.Parent, call.SpanID)
	}
	if commit.Parent != serve.SpanID {
		t.Fatalf("wal.commit parent = %x, want serve %x", commit.Parent, serve.SpanID)
	}
	if apply.Parent != serve.SpanID {
		t.Fatalf("sync.apply parent = %x, want serve %x", apply.Parent, serve.SpanID)
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
// first-booted one. After Crash/Restart of a durable holder (s0) and of a
// non-placed writer (s1), a write made elsewhere and applied at s0 still
// commits under a wal.commit span of that write's trace, and a non-placed
// write at s1 still forwards under a placement.forward span of its own.
func TestRestartKeepsTelemetry(t *testing.T) {
	dep := NewDeployment(
		WithSeed(29),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithPlacement(placement.ByField("context", "vault", "s0", "s2")),
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
		"title": "applied at the restarted holder", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	forwarded, err := s1.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "forwarded by the restarted writer", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if _, err := s0.Space().Get("ada", remote.ID); err != nil {
		t.Fatalf("restarted holder s0 missing the remote write: %v", err)
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
		{"placement.forward", "s1", "s1", forwarded.ID},
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
	// How the digest negotiation repaired the one write: s1 pulled it
	// straight off the high-water marks, s0 served it, nobody descended.
	for _, site := range []*Site{s0, s1} {
		rs := site.Replicator().Stats()
		for name, want := range map[string]int64{
			"mocca.sync.hw_fast_deltas": rs.HWFastDeltas,
			"mocca.sync.descent_calls":  rs.DescentCalls,
			"mocca.sync.deltas_served":  rs.DeltasServed,
		} {
			if got := snap.Value(name, observe.L("site", site.Name)...); got != want {
				t.Fatalf("%s{site=%s} = %d, replica.Stats says %d", name, site.Name, got, want)
			}
		}
	}
	if snap.Value("mocca.sync.hw_fast_deltas", observe.L("site", "s1")...) == 0 ||
		snap.Value("mocca.sync.deltas_served", observe.L("site", "s0")...) == 0 {
		t.Fatalf("the fast-path repair is not in the projection: %+v", snap.Points)
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

// TestStatsSnapshotsRaceWithTraffic is the torn-read hammer (run under
// -race): every Stats surface in the deployment — replica, placement,
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
