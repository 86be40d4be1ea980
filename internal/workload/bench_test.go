package workload

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkWorkloadOrgScale reports workload-level numbers as custom
// units: tail latency per op class and total wire traffic for an
// organization-scale chaotic run, on both topologies. The repository's
// benchmark proper (bench/) measures the same two runs end to end.
func BenchmarkWorkloadOrgScale(b *testing.B) {
	for _, topo := range []string{"mesh", "gossip"} {
		b.Run(fmt.Sprintf("%s/sites=16/users=2000", topo), func(b *testing.B) {
			var rep *Report
			for i := 0; i < b.N; i++ {
				r, err := Run(Spec{
					Seed:            1992,
					Sites:           16,
					Users:           2000,
					Duration:        time.Minute,
					OpsPerUserHour:  30,
					Topology:        topo,
					Chaos:           &ChaosSpec{Crashes: 1, Partitions: 1},
					ConvergeTimeout: 30 * time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Converged {
					b.Fatal("benchmark scenario did not reconverge")
				}
				rep = r
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(rep.Classes[ClassWrite].Hist.Quantile(0.99)), "write-p99-ms")
			b.ReportMetric(ms(rep.Classes[ClassUpdate].Hist.Quantile(0.99)), "update-p99-ms")
			b.ReportMetric(ms(rep.Classes[ClassMail].Hist.Quantile(0.99)), "mail-p99-ms")
			b.ReportMetric(ms(rep.Classes[ClassDir].Hist.Quantile(0.50)), "lookup-p50-ms")
			var done int64
			for _, c := range Classes {
				done += rep.Classes[c].Completed
			}
			b.ReportMetric(float64(done), "ops-completed")
			var bytes int64
			for _, s := range rep.Services {
				bytes += s.BytesOut
			}
			b.ReportMetric(float64(bytes), "workload-bytes")
		})
	}
}
