// Benchmarks of the replicated information space: anti-entropy across
// sites, its digest cost at scale, and the telemetry plane's overhead on
// it. The paper's figures are asserted in paper_test.go.
package mocca

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// --- R6: anti-entropy sync over per-site information replicas ---------------

// BenchmarkReplicaAntiEntropy measures one write on a site's information
// replica propagated to every other site by channel-borne anti-entropy
// (digest exchange → delta pull → apply), i.e. the full figure-4 stack:
// space engine → replicator rpc → channel stack → simulated network.
func BenchmarkReplicaAntiEntropy(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			benchReplicaAntiEntropy(b, n, WithSeed(1))
		})
	}
}

// BenchmarkReplicaAntiEntropyDurable is the same write-propagate-converge
// cycle with every replica on the durable log-structured backend, so each
// local write and each remote apply pays a WAL append on its site.
func BenchmarkReplicaAntiEntropyDurable(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			benchReplicaAntiEntropy(b, n, WithSeed(1), WithDurableStore(b.TempDir()))
		})
	}
}

func benchReplicaAntiEntropy(b *testing.B, n int, opts ...Option) {
	dep := NewDeployment(opts...)
	sites := make([]*Site, n)
	for i := range sites {
		sites[i] = dep.AddSite(fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d.net", i))
	}
	obj, err := sites[0].Space().Put("ada", SharedSchemaName, map[string]string{"title": "v0"})
	if err != nil {
		b.Fatal(err)
	}
	dep.Run()
	version := obj.Version
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upd, err := sites[0].Space().Update("ada", obj.ID, version,
			map[string]string{"title": fmt.Sprintf("v%d", i+1)})
		if err != nil {
			b.Fatal(err)
		}
		version = upd.Version
		dep.Run() // drain sync rounds: all replicas converge
	}
	b.StopTimer()
	for _, s := range sites[1:] {
		got, err := s.Space().Get("ada", obj.ID)
		if err != nil || got.Version != version {
			b.Fatalf("replica %s diverged: %+v %v", s.Name, got, err)
		}
	}
	b.ReportMetric(float64(n), "sites")
}

// --- R6b: anti-entropy digest cost at scale ----------------------------------

// BenchmarkReplicaAntiEntropyScale pins the digest negotiation's scaling
// claims at 10⁴ and 10⁵ stored objects: a converged round costs O(1)
// digest bytes (one root compare + high-water marks) and a round
// repairing one changed object costs O(log n).
// The digestB/op metric is replica.Stats.DigestBytes per converged
// round; syncB/op is the engineering-viewpoint wire cost
// (Fabric.TotalsFor("repl-")), which includes data deltas and JSON
// framing.
func BenchmarkReplicaAntiEntropyScale(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("objects=%d/merkle/converged", n), func(b *testing.B) {
			dep, _, _ := seedLargeDeployment(b, n)
			start := statsFor(b, dep, "s00")
			wireStart := dep.Fabric().TotalsFor("repl-").BytesOut
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep.SyncInformation()
				dep.Run()
			}
			b.StopTimer()
			end := statsFor(b, dep, "s00")
			b.ReportMetric(float64(end.DigestBytes-start.DigestBytes)/float64(b.N), "digestB/op")
			b.ReportMetric(float64(dep.Fabric().TotalsFor("repl-").BytesOut-wireStart)/float64(b.N), "syncB/op")
		})
		b.Run(fmt.Sprintf("objects=%d/merkle/divergent-1", n), func(b *testing.B) {
			dep, sites, ids := seedLargeDeployment(b, n)
			cur, err := sites[0].Space().Get("ada", ids[42])
			if err != nil {
				b.Fatal(err)
			}
			target, version := cur.ID, cur.Version
			start := statsFor(b, dep, "s00")
			wireStart := dep.Fabric().TotalsFor("repl-").BytesOut
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd, err := sites[0].Space().Update("ada", target, version,
					map[string]string{"title": fmt.Sprintf("v%d", i+1)})
				if err != nil {
					b.Fatal(err)
				}
				version = upd.Version
				dep.Run() // drain sync rounds: both replicas converge
			}
			b.StopTimer()
			if got, err := sites[1].Space().Get("ada", target); err != nil || got.Version != version {
				b.Fatalf("replica diverged: %+v %v", got, err)
			}
			end := statsFor(b, dep, "s00")
			b.ReportMetric(float64(end.DigestBytes-start.DigestBytes)/float64(b.N), "digestB/op")
			b.ReportMetric(float64(dep.Fabric().TotalsFor("repl-").BytesOut-wireStart)/float64(b.N), "syncB/op")
		})
	}
}

// --- R6c: telemetry plane overhead -------------------------------------------

// BenchmarkTelemetryOverhead prices the telemetry plane on the converged
// anti-entropy write cycle (the hottest cross-subsystem path): without
// the plane, with the plane present but the tracer disabled, and fully
// enabled. The claim under test is that the disabled path costs nothing
// measurable — every hook is one nil-or-atomic check and the wire format
// stays version-1 — so deployments can ship with telemetry compiled in.
// disabled-overhead-pct is the paired min-of-N comparison; it must stay
// within the noise floor (≤ 2%).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const updates = 64
	cycle := func(disable bool, opts ...Option) time.Duration {
		dep := NewDeployment(append([]Option{WithSeed(3)}, opts...)...)
		s0 := dep.AddSite("s0", "s0.net")
		dep.AddSite("s1", "s1.net")
		if disable {
			dep.Telemetry().Tracer.SetEnabled(false)
		}
		obj, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "v0"})
		if err != nil {
			b.Fatal(err)
		}
		dep.Run()
		version := obj.Version
		start := time.Now()
		for i := 0; i < updates; i++ {
			upd, err := s0.Space().Update("ada", obj.ID, version,
				map[string]string{"title": fmt.Sprintf("v%d", i+1)})
			if err != nil {
				b.Fatal(err)
			}
			version = upd.Version
			dep.Run()
		}
		return time.Since(start)
	}

	// Interleaved paired trials: each trial times baseline and disabled
	// back to back, so shared-machine noise hits both alike. The gate is
	// the minimum paired ratio — for it to exceed 2%, noise would have to
	// inflate the disabled half of every single pair, so a true ≤2%
	// overhead cannot flake while a real regression cannot hide.
	const trials = 7
	base, enabled := time.Duration(1<<62), time.Duration(1<<62)
	minRatio := math.Inf(1)
	for i := 0; i < trials; i++ {
		bt := cycle(false)
		dt := cycle(true, WithTelemetry())
		base = min(base, bt)
		enabled = min(enabled, cycle(false, WithTelemetry()))
		minRatio = min(minRatio, float64(dt)/float64(bt))
	}
	for i := 0; i < b.N; i++ { // metrics-only benchmark; measurement above
	}
	overheadPct := (minRatio - 1) * 100
	b.ReportMetric(float64(base.Nanoseconds())/updates, "baseline-ns/update")
	b.ReportMetric(overheadPct, "disabled-overhead-pct")
	b.ReportMetric((float64(enabled)-float64(base))/float64(base)*100, "enabled-overhead-pct")
	if overheadPct > 2.0 {
		b.Fatalf("disabled telemetry costs %.2f%% over no telemetry in every paired trial, want ≤ 2%%",
			overheadPct)
	}
}
