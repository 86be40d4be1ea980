package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mocca/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkJSON is BENCHMARK.json: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDef  `json:"workloads"`
	EndToEnd   []declaredE2E  `json:"end_to_end"`
	PerLayer   []declaredUnit `json:"per_layer"`
}

type declaredE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaredUnit struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func better(m metricDef) string {
	if m.Higher {
		return "higher"
	}
	return "lower"
}

// declared builds BENCHMARK.json from the tables, the one place the names live.
func declared() benchmarkJSON {
	b := benchmarkJSON{
		// -buildvcs=false: the driver's checkout is not a git repository, and
		// a stray .git above it must not fail the build.
		Command: []string{"go", "run", "-buildvcs=false", "./bench"}, Paths: []string{"bench"},
		RunSeconds: 25, Workloads: workloads,
	}
	for _, m := range driverEndToEnd() {
		b.EndToEnd = append(b.EndToEnd, declaredE2E{m.Name, m.Unit, better(m), m.Driver})
	}
	for _, m := range driverPerLayer() {
		b.PerLayer = append(b.PerLayer, declaredUnit{m.Name, m.Unit, better(m)})
	}
	return b
}

// TestBenchmarkJSON keeps the checked-in BENCHMARK.json equal to the tables
// and inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the tables in metrics.go; run go test ./bench -run TestBenchmarkJSON -update", path)
	}

	b := declared()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range b.Workloads {
		use(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics in the report, want at most 16", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range b.PerLayer {
		use(m.Name, m.Unit)
	}
}

// smallOrg is a 4-site organization with ten seconds of dense traffic: the
// benchmark's code paths in a fraction of a second.
func smallOrg(topology string) workload.Spec {
	return workload.Spec{
		Seed: 7, Sites: 4, Users: 80, Topology: topology,
		Duration: 10 * time.Second, OpsPerUserHour: 3600,
		Chaos:           &workload.ChaosSpec{Crashes: 1, Partitions: 1},
		ConvergeTimeout: 30 * time.Minute,
	}
}

var smallStore = storeSizes{rows: 2000, ops: 6000, scanEvery: 1000, unsynced: 50}

// TestDeclaredNamesAreEmitted runs every pass at small sizes and holds the
// emitted metric names against the declared ones, both ways.
func TestDeclaredNamesAreEmitted(t *testing.T) {
	dir := t.TempDir()
	emitted := make(map[string]bool)
	run := func(workload string, traced bool, measure func(*runResult, *spanLog) error) {
		t.Helper()
		res := newRunResult(workload, 7, traced)
		log := &spanLog{workload: workload}
		if err := measure(res, log); err != nil {
			t.Fatalf("%s traced=%v: %v", workload, traced, err)
		}
		for _, f := range res.Failures {
			// A run this short may end before the profiler's first tick.
			if !strings.HasPrefix(f, "cpu_profile") {
				t.Errorf("%s traced=%v: gate: %s", workload, traced, f)
			}
		}
		if res.Attempted < 1 || res.Failed > res.Attempted || res.Fingerprint == "" {
			t.Errorf("%s traced=%v: attempted %d failed %d fingerprint %q", workload, traced, res.Attempted, res.Failed, res.Fingerprint)
		}
		for _, m := range allMetrics() {
			if _, ok := res.Metrics[m.Name]; ok && !m.on(workload) {
				t.Errorf("%s emits %s, which is declared for %v only", workload, m.Name, m.On)
			}
		}
		expect := endToEnd
		if traced {
			expect = perLayer
		}
		for _, m := range expect {
			// The ledger is measured once below, not per workload.
			if _, ok := res.Metrics[m.Name]; !ok && m.on(workload) && !strings.HasPrefix(m.Name, "ledger.") {
				t.Errorf("%s traced=%v does not emit %s", workload, traced, m.Name)
			}
		}
		for n := range res.Metrics {
			emitted[n] = true
		}
		if len(log.spans) == 0 {
			t.Errorf("%s traced=%v recorded no spans", workload, traced)
		}
		for _, s := range log.spans {
			if s.End.Before(s.Start) || s.TraceID == 0 {
				t.Errorf("%s: span %q has no end or no repetition id", workload, s.Name)
			}
		}
	}
	for _, traced := range []bool{false, true} {
		run(wlOrgMesh, traced, func(r *runResult, l *spanLog) error { return runOrg(r, l, smallOrg("mesh"), 0, dir) })
		run(wlOrgGossip, traced, func(r *runResult, l *spanLog) error { return runOrg(r, l, smallOrg("gossip"), 0, dir) })
		run(wlStoreMixed, traced, func(r *runResult, l *spanLog) error { return runStore(r, l, smallStore, 0, dir) })
	}
	quick, err := runLedger(&spanLog{}, dir, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for n := range quick {
		emitted[n] = true
	}

	b := declared()
	declaredNames := make(map[string]bool)
	for _, m := range b.EndToEnd {
		declaredNames[m.Name] = true
	}
	for _, m := range b.PerLayer {
		declaredNames[m.Name] = true
	}
	for n := range declaredNames {
		if !emitted[n] {
			t.Errorf("BENCHMARK.json declares %s, which no pass emits", n)
		}
	}
	for n := range emitted {
		if !declaredNames[n] {
			t.Errorf("a pass emits %s, which BENCHMARK.json does not declare", n)
		}
	}

	// The driver's line carries every declared name of its mode, whatever
	// the workload.
	for _, traced := range []bool{false, true} {
		line := newRunResult(wlServices, 7, traced).contract()
		want := len(b.EndToEnd)
		if traced {
			want = len(b.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("traced=%v: the driver's line has %d metrics, BENCHMARK.json %d", traced, len(line.Metrics), want)
		}
	}
}

// TestFoldTraces feeds the folder synthetic `pprof -traces` text.
func TestFoldTraces(t *testing.T) {
	text := `File: bench
Type: cpu
Duration: 1s, Total samples = 100ms
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess1_faststr
             mocca/internal/information.(*DigestTree).NewerThanHW
             mocca/internal/replica.(*Replicator).newerThanHW
             mocca/internal/rpc.(*Endpoint).serve
             mocca/internal/workload.Run
             main.runOrg
-----------+-------------------------------------------------------
      20ms   encoding/json.Marshal
             mocca/internal/wire.EncodeBody (inline)
             mocca/internal/rpc.HandleJSON[go.shape.struct { Base string "json:\"base\"" },go.shape.struct {}].func1
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   fmt.Sprintf
             main.overwrite.func1
             mocca/internal/information/logstore.(*Store).Exec
             main.mixed
-----------+-------------------------------------------------------
      20ms   syscall.write
             mocca/internal/information/logstore.(*Store).appendLocked
-----------+-------------------------------------------------------
      10ms   mocca.(*Deployment).AddSite
             mocca/internal/workload.(*Harness).build
`
	got, err := foldTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"information": 30, "wire": 20, "runtime": 20, "logstore": 20, "other_mocca": 10}
	var sum float64
	for _, l := range cpuLayers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("cpu.%s = %v%%, want %v%%", l, got[l], want[l])
		}
		sum += got[l]
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64) summary { return summary{N: 5, Min: v, Q1: v, Median: v, Q3: v, Max: v} }
	noisy := func(v float64) summary {
		return summary{N: 5, Min: v * 0.8, Q1: v * 0.9, Median: v, Q3: v * 1.1, Max: v * 1.2}
	}
	for _, c := range []struct {
		name     string
		old, new summary
		bound    float64
		want     string
	}{
		{"same", flat(10), flat(10), 0.01, verdictWithin},
		{"small rise", flat(10), flat(10.05), 0.01, verdictWithin},
		{"rise past the bound", flat(10), flat(10.2), 0.01, verdictWorse},
		{"any rise on a zero bound", flat(10), flat(10.01), 0, verdictWorse},
		{"drop past the bound", flat(10), flat(9), 0.01, verdictBetter},
		{"spread hides the change", noisy(10), noisy(10.5), 0.10, verdictUnresolved},
		{"every run better", noisy(10), noisy(5), 0.10, verdictBetter},
	} {
		if got := verdict(c.old, c.new, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
