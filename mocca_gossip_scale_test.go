package mocca

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mocca/internal/netsim"
)

// scaleResult is one topology's cost at one scale: simulated time to
// digest-identical convergence, total sync+gossip bytes on the wire, and
// the busiest site's channel count — the three axes the gossip overlay
// must beat the mesh on.
type scaleResult struct {
	convergeMs  float64
	totalBytes  int64
	maxChannels int
}

// runGossipScale drives one n-site deployment (mesh or overlay) through
// setup, a scattered write burst, and drain-to-convergence; withCut adds
// the seeded partition-and-heal schedule before the final drain.
func runGossipScale(tb testing.TB, n int, overlay, withCut bool) scaleResult {
	tb.Helper()
	opts := []Option{WithSeed(11)}
	if overlay {
		opts = append(opts, WithGossip())
	}
	dep := NewDeployment(opts...)
	sites := make([]*Site, n)
	for i := range sites {
		name := fmt.Sprintf("s%03d", i)
		sites[i] = dep.AddSite(name, name+".org")
	}
	dep.Run()

	converged := func() bool {
		ref := sites[0].Space().Tree().Root()
		for _, s := range sites[1:] {
			if s.Space().Tree().Root() != ref {
				return false
			}
		}
		return true
	}

	// A write burst at five scattered sites.
	for w := 0; w < 5; w++ {
		if _, err := sites[w*n/5].Space().Put("user", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("burst-%d", w)}); err != nil {
			tb.Fatal(err)
		}
	}
	clk := dep.Clock()
	start := clk.Now()
	for !converged() {
		due, ok := clk.NextDeadline()
		if !ok {
			tb.Fatal("event queue drained before convergence")
		}
		clk.AdvanceTo(due)
	}
	convergeMs := float64(clk.Now().Sub(start)) / float64(time.Millisecond)
	dep.Run() // drain the tail (dormancy rounds) so byte totals are complete

	if withCut {
		// Seeded partition of a random 20% of sites, writes on both
		// sides, then heal and reconverge.
		rng := rand.New(rand.NewSource(1992))
		minority := map[int]bool{}
		for len(minority) < n/5 {
			minority[rng.Intn(n)] = true
		}
		var minAddrs, majAddrs []netsim.Address
		minIdx, majIdx := -1, -1
		for i, s := range sites {
			addrs := []netsim.Address{
				netsim.Address("mta-" + s.Name), netsim.Address("repl-" + s.Name),
				netsim.Address("place-" + s.Name), netsim.Address("gossip-" + s.Name),
			}
			if minority[i] {
				minAddrs = append(minAddrs, addrs...)
				if minIdx < 0 {
					minIdx = i
				}
			} else {
				majAddrs = append(majAddrs, addrs...)
				if majIdx < 0 {
					majIdx = i
				}
			}
		}
		dep.Network().Partition(minAddrs, majAddrs)
		for side, w := range []int{minIdx, majIdx} {
			if _, err := sites[w].Space().Put("user", SharedSchemaName,
				map[string]string{"title": fmt.Sprintf("cut-%d", side)}); err != nil {
				tb.Fatal(err)
			}
		}
		dep.Run()
		dep.Network().Heal()
		dep.Run()
		if !converged() {
			tb.Fatal("sites diverged after partition heal")
		}
	}

	res := scaleResult{convergeMs: convergeMs}
	for _, prefix := range []string{"repl-", "gossip-"} {
		t := dep.Fabric().TotalsFor(prefix)
		res.totalBytes += t.BytesOut
	}
	perSite := map[string]int{}
	for _, c := range dep.ChannelStats() {
		site := ""
		if strings.HasPrefix(c.Local, "repl-") {
			site = strings.TrimPrefix(c.Local, "repl-")
		} else if strings.HasPrefix(c.Local, "gossip-") {
			site = strings.TrimPrefix(c.Local, "gossip-")
		}
		if site != "" {
			perSite[site]++
		}
	}
	for _, count := range perSite {
		if count > res.maxChannels {
			res.maxChannels = count
		}
	}
	return res
}

// TestGossipScaleAcceptance pins the overlay's scaling: at 256 simulated
// sites its total sync+gossip bytes are ≤ ⅐ of the full-mesh baseline and
// its busiest site's channel count ≤ 25% at equal convergence, and overlay
// cost grows sublinearly in n from 64→256 while the mesh grows
// quadratically. The overlay reads 6.03 MB against the mesh's 43.5 MB
// (13.8%). The burst is a broadcast tree's worst case: five writes at
// once on a cold tree, where every link is still eager, so each write
// floods its row and the crossing floods prune links a graft restores.
// The flood that named writes by dot and pulled rows by fetch read
// 5.81 MB (13.3%) here; with whole vectors and a sender in each rumor it
// read 6.32 MB (14.5%), and with a reply per rumor near 18%.
func TestGossipScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-site sweeps; skipped under -short")
	}
	mesh64 := runGossipScale(t, 64, false, false)
	over64 := runGossipScale(t, 64, true, false)
	mesh256 := runGossipScale(t, 256, false, false)
	over256 := runGossipScale(t, 256, true, false)
	t.Logf("mesh  64:  %8.0fms %12d bytes  %4d ch", mesh64.convergeMs, mesh64.totalBytes, mesh64.maxChannels)
	t.Logf("over  64:  %8.0fms %12d bytes  %4d ch", over64.convergeMs, over64.totalBytes, over64.maxChannels)
	t.Logf("mesh 256:  %8.0fms %12d bytes  %4d ch", mesh256.convergeMs, mesh256.totalBytes, mesh256.maxChannels)
	t.Logf("over 256:  %8.0fms %12d bytes  %4d ch", over256.convergeMs, over256.totalBytes, over256.maxChannels)

	if lim := mesh256.totalBytes / 7; over256.totalBytes > lim {
		t.Errorf("overlay bytes at 256 sites = %d, want ≤ ⅐ of mesh (%d)",
			over256.totalBytes, lim)
	}
	if lim := mesh256.maxChannels / 4; over256.maxChannels > lim {
		t.Errorf("overlay per-site channels at 256 sites = %d, want ≤ 25%% of mesh (%d)",
			over256.maxChannels, lim)
	}
	// Sublinear growth: quadrupling n must not quadruple overlay bytes
	// per site — i.e. total bytes grow well below the mesh's ~16×.
	overGrowth := float64(over256.totalBytes) / float64(over64.totalBytes)
	meshGrowth := float64(mesh256.totalBytes) / float64(mesh64.totalBytes)
	if overGrowth >= meshGrowth/2 {
		t.Errorf("overlay byte growth 64→256 = %.1f×, mesh = %.1f× — not scaling away from the mesh",
			overGrowth, meshGrowth)
	}
	if overGrowth >= 8 {
		t.Errorf("overlay byte growth 64→256 = %.1f×, want < 8× (sublinear in n²; n grew 4×)",
			overGrowth)
	}
}

// BenchmarkGossipConvergenceScale reports simulated convergence time and
// wire bytes for mesh vs overlay at 64 and 256 sites, including the
// seeded partition-and-heal schedule.
func BenchmarkGossipConvergenceScale(b *testing.B) {
	for _, topo := range []struct {
		name    string
		overlay bool
	}{{"mesh", false}, {"overlay", true}} {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/sites=%d", topo.name, n), func(b *testing.B) {
				var res scaleResult
				for i := 0; i < b.N; i++ {
					res = runGossipScale(b, n, topo.overlay, true)
				}
				b.ReportMetric(res.convergeMs, "convergence-ms")
				b.ReportMetric(float64(res.totalBytes), "total-bytes")
				b.ReportMetric(float64(res.maxChannels), "peak-site-channels")
			})
		}
	}
}
