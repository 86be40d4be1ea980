package workload

import (
	"testing"
	"time"
)

// smokeSpec is a small chaotic scenario that runs in well under a second:
// the always-on guard that the harness itself works.
func smokeSpec(seed int64) Spec {
	return Spec{
		Seed:           seed,
		Sites:          5,
		Users:          150,
		Objects:        60,
		Duration:       40 * time.Second,
		OpsPerUserHour: 240,
		Chaos:          &ChaosSpec{Crashes: 1, Partitions: 1, SlowLinks: 1},
	}
}

func TestWorkloadSmoke(t *testing.T) {
	rep, err := Run(smokeSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Summary())
	if !rep.Converged {
		t.Fatal("smoke scenario did not reconverge")
	}
	if rep.Digest == "" || rep.Digest == "diverged" {
		t.Fatalf("digest = %q, want a common value", rep.Digest)
	}
	if rep.PendingWrites != 0 {
		t.Errorf("%d writes never became visible everywhere", rep.PendingWrites)
	}
	if len(rep.FaultLog) < 3 {
		t.Errorf("fault log %v, want the 3 scheduled faults", rep.FaultLog)
	}
	for _, class := range Classes {
		st := rep.Classes[class]
		if st.Issued == 0 {
			t.Errorf("class %s: no ops issued", class)
		}
		if st.Completed == 0 {
			t.Errorf("class %s: no ops completed", class)
		}
	}
	// Throughput slicing must see the planes the traffic exercised.
	var total int64
	for _, svc := range []string{"mta", "repl", "load", "user", "mcu"} {
		if rep.Services[svc].FramesOut == 0 {
			t.Errorf("service %s: no frames recorded", svc)
		}
	}
	for _, s := range rep.Services {
		total += s.BytesOut
	}
	// Seeding sends bytes before traffic starts, and traffic sends more.
	if rep.SetupBytes <= 0 || rep.SetupBytes >= total {
		t.Errorf("setup bytes %d of %d bytes out, want some but not all", rep.SetupBytes, total)
	}
}

// TestWorkloadDeterminism is the regression gate for the harness's core
// contract: two same-seed runs are byte-identical — Fabric totals,
// histograms, digests, fault log, everything the fingerprint covers —
// and a different seed yields a different schedule. Wall-clock reads,
// goroutine scheduling, or map-iteration order leaking anywhere into the
// driver shows up here as a fingerprint mismatch.
func TestWorkloadDeterminism(t *testing.T) {
	a, err := Run(smokeSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs:\n%s\n---\n%s", a.Summary(), b.Summary())
	}
	// Spot-check the components the fingerprint summarises, so a failure
	// in the full comparison has a more specific twin here.
	if a.Digest != b.Digest {
		t.Errorf("digests differ: %s vs %s", a.Digest, b.Digest)
	}
	for _, class := range Classes {
		if *a.Classes[class].Hist != *b.Classes[class].Hist {
			t.Errorf("class %s histograms differ", class)
		}
	}
	if a.Services["repl"] != b.Services["repl"] {
		t.Errorf("replication totals differ: %+v vs %+v", a.Services["repl"], b.Services["repl"])
	}

	c, err := Run(smokeSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced identical runs")
	}
	if c.FaultLog[0] == a.FaultLog[0] && c.FaultLog[1] == a.FaultLog[1] {
		t.Errorf("different seeds produced the same fault schedule: %v", c.FaultLog)
	}
}

// TestWorkloadTelemetryFingerprint: a telemetry run carries the metrics
// snapshot and trace counts in its report, and stays as reproducible as
// an untraced one — same spec, same fingerprint, byte for byte. And a
// run without telemetry must not grow the section at all, so its
// fingerprints are unchanged from before the telemetry plane existed.
func TestWorkloadTelemetryFingerprint(t *testing.T) {
	spec := smokeSpec(31)
	spec.Telemetry = true
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Telemetry == nil {
		t.Fatal("telemetry run produced no Report.Telemetry section")
	}
	if a.Telemetry.Traces.Spans == 0 || a.Telemetry.Traces.Traces == 0 {
		t.Fatalf("no spans traced: %+v", a.Telemetry.Traces)
	}
	if len(a.Telemetry.Metrics) == 0 {
		t.Fatal("no metric points in the report")
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("telemetry broke reproducibility:\n%s\n---\n%s", a.Summary(), b.Summary())
	}

	// RunTrace forces telemetry on and hands back the live plane.
	plain := smokeSpec(31)
	rep, tel, err := RunTrace(plain)
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil || rep.Telemetry == nil {
		t.Fatal("RunTrace returned no telemetry")
	}
	if rep.Fingerprint() != a.Fingerprint() {
		t.Fatal("RunTrace(spec) differs from Run(spec with Telemetry)")
	}
	if len(tel.Tracer.Spans()) == 0 {
		t.Fatal("RunTrace telemetry retained no spans")
	}

	// Without the flag the section must be absent from the JSON entirely.
	off, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if off.Telemetry != nil {
		t.Fatal("untraced run grew a telemetry section")
	}
}

// TestWorkloadGossipTopology runs the same smoke scenario over the
// epidemic overlay instead of the full mesh.
func TestWorkloadGossipTopology(t *testing.T) {
	spec := smokeSpec(21)
	spec.Topology = "gossip"
	spec.Sites = 8
	spec.ConvergeTimeout = 20 * time.Minute
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Summary())
	if !rep.Converged {
		t.Fatal("gossip scenario did not reconverge")
	}
	if rep.Services["gossip"].FramesOut == 0 {
		t.Error("no overlay traffic recorded under gossip topology")
	}
}

// TestWorkloadTornWAL crashes a durable site, tears the WAL tail while it
// is down, and requires recovery plus anti-entropy to reconverge anyway.
func TestWorkloadTornWAL(t *testing.T) {
	spec := smokeSpec(31)
	spec.StoreDir = t.TempDir()
	spec.Chaos = &ChaosSpec{Crashes: 2, TornTails: 2, Partitions: 1}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Summary())
	if !rep.Converged {
		t.Fatal("torn-WAL scenario did not reconverge")
	}
	if rep.PendingWrites != 0 {
		t.Errorf("%d writes lost to the torn tail", rep.PendingWrites)
	}
	torn := 0
	for _, f := range rep.FaultLog {
		if len(f) > 0 && containsTorn(f) {
			torn++
		}
	}
	if torn != 2 {
		t.Errorf("fault log shows %d torn-WAL faults, want 2: %v", torn, rep.FaultLog)
	}
}

func containsTorn(s string) bool {
	for i := 0; i+7 <= len(s); i++ {
		if s[i:i+7] == "tornwal" {
			return true
		}
	}
	return false
}

// TestWorkloadScenarioAcceptance is the organization-scale gate from the
// roadmap: 32 sites and 10⁴ synthesized users under a seeded
// crash+partition+heal (and torn-WAL) schedule must reconverge to
// byte-identical digests and Merkle roots, with p99 write visibility
// bounded by the fault schedule's worst outage.
func TestWorkloadScenarioAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("organization-scale scenario skipped in -short")
	}
	spec := Spec{
		Seed:           1992,
		Sites:          32,
		Users:          10_000,
		Objects:        2_000,
		Duration:       2 * time.Minute,
		OpsPerUserHour: 12, // ~67k ops over the window
		StoreDir:       t.TempDir(),
		Chaos: &ChaosSpec{
			Crashes:    3,
			TornTails:  1,
			Partitions: 2,
			SlowLinks:  2,
			OutageMin:  5 * time.Second,
			OutageMax:  15 * time.Second,
		},
		ConvergeTimeout: 30 * time.Minute,
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Summary())

	if !rep.Converged {
		t.Fatal("32-site organization did not reconverge after chaos")
	}
	if rep.Digest == "" || rep.Digest == "diverged" {
		t.Fatalf("digest = %q, want byte-identical digests at every site", rep.Digest)
	}
	if rep.MerkleRoot == "" {
		t.Fatal("no common Merkle root")
	}
	if rep.PendingWrites != 0 {
		t.Errorf("%d writes never reached every site", rep.PendingWrites)
	}
	// p99 write visibility is bounded by the chaos schedule: a write can
	// land just as a partition starts and must wait out the outage plus
	// sync rounds. Two sync intervals of slack on top of the worst
	// outage keeps the bound tight enough to catch a convergence
	// regression but stable across seeds.
	bound := spec.Chaos.OutageMax + 2*5*time.Second
	for _, class := range []string{ClassWrite, ClassUpdate} {
		st := rep.Classes[class]
		if st.Completed == 0 {
			t.Errorf("class %s: nothing completed", class)
			continue
		}
		if p99 := st.Hist.Quantile(0.99); p99 > bound {
			t.Errorf("class %s: p99 visibility %v exceeds %v", class, p99, bound)
		}
	}
	// The acceptance report must carry per-class tail latencies.
	for _, class := range Classes {
		st := rep.Classes[class]
		if st.Issued == 0 {
			t.Errorf("class %s: absent from organization-scale mix", class)
			continue
		}
		t.Logf("%-12s p50=%v p99=%v p999=%v", class,
			st.Hist.Quantile(0.50), st.Hist.Quantile(0.99), st.Hist.Quantile(0.999))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Quantile(0.5); got < 256*time.Millisecond || got > 1024*time.Millisecond {
		t.Errorf("p50 = %v, want within a bucket of ~500ms", got)
	}
	if got := h.Quantile(1.0); got != time.Second {
		t.Errorf("p100 = %v, want 1s (clamped to max)", got)
	}
	if h.Count != 1000 {
		t.Errorf("count = %d", h.Count)
	}
	var zero Histogram
	if zero.Quantile(0.99) != 0 || zero.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}
