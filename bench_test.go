// Benchmarks regenerating the paper's figures (see DESIGN.md §3 and
// EXPERIMENTS.md). The paper is a position paper with conceptual figures,
// so each benchmark quantifies the claim its figure makes:
//
//	Figure 1: one environment hosts all four time-space quadrants
//	Figure 2: isolated pairwise interop costs O(N²) adapters
//	Figure 3: environment interop costs O(N) registrations
//	Figure 4: the CSCW environment is a thin layer over the ODP environment
package mocca

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mocca/internal/access"
	"mocca/internal/activity"
	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/interop"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/odp"
	"mocca/internal/placement"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
	"mocca/internal/trader"
	"mocca/internal/transparency"
	"mocca/internal/vclock"
)

// --- Figure 1: the groupware time-space matrix ---------------------------

// benchSimRTC measures one shared-state update fanned out to nUsers
// sessions, local (same node) or remote.
func benchSimRTC(b *testing.B, nUsers int, colocated bool) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(1))
	srvEP := rpc.NewEndpoint(net.MustAddNode("mcu"), clk)
	server := rtc.NewServer(srvEP, clk)
	cid, err := server.CreateConference("bench", rtc.ModeOpen)
	if err != nil {
		b.Fatal(err)
	}
	sessions := make([]*rtc.Session, nUsers)
	for i := range sessions {
		node := netsim.Address(fmt.Sprintf("u%d", i))
		if colocated {
			node = netsim.Address(fmt.Sprintf("room-terminal-%d", i))
		}
		ep := rpc.NewEndpoint(net.MustAddNode(node), clk)
		sessions[i] = rtc.NewSession(ep, clk, "mcu", cid, string(node))
		join(b, clk, sessions[i])
	}
	if colocated {
		// Same place: LAN-class links.
		for i := range sessions {
			net.SetLink("mcu", netsim.Address(fmt.Sprintf("room-terminal-%d", i)),
				netsim.LinkProfile{Latency: 200 * time.Microsecond})
		}
	}
	writer := sessions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		async(b, clk, func(done func(error)) {
			go func() { done(writer.Set("k", "v")) }()
		})
	}
	b.ReportMetric(float64(nUsers), "users")
}

func join(b *testing.B, clk *vclock.Simulated, s *rtc.Session) {
	b.Helper()
	async(b, clk, func(done func(error)) {
		go func() { done(s.Join()) }()
	})
}

// async drives the simulated clock until the supplied blocking operation
// completes.
func async(b *testing.B, clk *vclock.Simulated, start func(done func(error))) {
	b.Helper()
	ch := make(chan error, 1)
	start(func(err error) { ch <- err })
	for {
		select {
		case err := <-ch:
			if err != nil {
				b.Fatal(err)
			}
			clk.RunUntilIdle()
			return
		default:
			time.Sleep(20 * time.Microsecond)
			clk.Advance(5 * time.Millisecond)
		}
	}
}

func BenchmarkFigure1_SameTimeSamePlace(b *testing.B) { benchSimRTC(b, 4, true) }
func BenchmarkFigure1_SameTimeDiffPlace(b *testing.B) { benchSimRTC(b, 4, false) }

func BenchmarkFigure1_DiffTimeSamePlace(b *testing.B) {
	// Team-room board: post + later read, via the information space.
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "note", Fields: []information.Field{
		{Name: "headline", Type: information.FieldText, Required: true},
	}}); err != nil {
		b.Fatal(err)
	}
	space := information.NewSpace(registry, access.NewSystem(), clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := space.Put("nightshift", "note", map[string]string{"headline": "handover"})
		if err != nil {
			b.Fatal(err)
		}
		clk.Advance(8 * time.Hour) // the next shift arrives later
		if _, err := space.Get("nightshift", obj.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_DiffTimeDiffPlace(b *testing.B) {
	// Message system: cross-domain store-and-forward delivery.
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(1))
	gmd := mhs.NewMTA("mta-gmd", "gmd.de", rpc.NewEndpoint(net.MustAddNode("mta-gmd"), clk), clk)
	upc := mhs.NewMTA("mta-upc", "upc.es", rpc.NewEndpoint(net.MustAddNode("mta-upc"), clk), clk)
	gmd.AddRoute("upc.es", "mta-upc")
	upc.AddRoute("gmd.de", "mta-gmd")
	prinz := mhs.NewUserAgent(mhs.MustParseORName("pn=prinz;o=gmd;c=de"), gmd)
	navarro := mhs.NewUserAgent(mhs.MustParseORName("pn=navarro;o=upc;c=es"), upc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prinz.Send([]mhs.ORName{navarro.Name}, "s", "b"); err != nil {
			b.Fatal(err)
		}
		clk.RunUntilIdle()
	}
	b.StopTimer()
	if navarro.Unread() != b.N {
		b.Fatalf("delivered %d of %d", navarro.Unread(), b.N)
	}
}

// --- Figures 2 and 3: isolated vs environment interop --------------------

func BenchmarkFigure2_Isolated(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			apps := interop.SyntheticApps(n)
			world := interop.BuildIsolated(apps, 1.0, 1)
			doc := apps[0].Document("t", "b")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := apps[1+i%(n-1)]
				if _, err := world.Exchange(apps[0].Name, to.Name, doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(world.AdapterCount()), "adapters")
		})
	}
}

func BenchmarkFigure3_Environment(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			apps := interop.SyntheticApps(n)
			world, err := interop.BuildEnvironment(apps)
			if err != nil {
				b.Fatal(err)
			}
			doc := apps[0].Document("t", "b")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := apps[1+i%(n-1)]
				if _, err := world.Exchange(apps[0].Name, to.Name, doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(world.AdapterCount()), "adapters")
		})
	}
}

// --- Figure 4: layering — raw ODP vs trader vs CSCW environment ----------

func BenchmarkFigure4_Layering(b *testing.B) {
	newPair := func() (*vclock.Simulated, *rpc.Endpoint, *rpc.Endpoint) {
		clk := vclock.NewSimulated(netsim.DefaultEpoch)
		net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(1))
		client := rpc.NewEndpoint(net.MustAddNode("client"), clk)
		server := rpc.NewEndpoint(net.MustAddNode("server"), clk)
		server.MustRegister("svc.echo", func(r rpc.Request) ([]byte, error) { return r.Body, nil })
		return clk, client, server
	}
	call := func(b *testing.B, clk *vclock.Simulated, ep *rpc.Endpoint) {
		b.Helper()
		var result rpc.Result
		done := false
		ep.Go("server", "svc.echo", []byte("x"), func(r rpc.Result) { result = r; done = true })
		clk.RunUntilIdle()
		if !done || result.Err != nil {
			b.Fatalf("call failed: %v", result.Err)
		}
	}

	b.Run("raw_odp_invocation", func(b *testing.B) {
		clk, client, _ := newPair()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(b, clk, client)
		}
	})

	b.Run("trader_mediated", func(b *testing.B) {
		clk, client, _ := newPair()
		tr := trader.New()
		if err := tr.RegisterType("echo"); err != nil {
			b.Fatal(err)
		}
		if err := tr.Export(trader.Offer{ID: "o1", ServiceType: "echo", Provider: "server"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			offers, err := tr.Import(trader.ImportRequest{ServiceType: "echo"})
			if err != nil || len(offers) == 0 {
				b.Fatal(err)
			}
			call(b, clk, client)
		}
	})

	b.Run("environment_mediated", func(b *testing.B) {
		clk, client, _ := newPair()
		// Environment path: access check + transparency check + trader
		// lookup + invocation — the full CSCW-environment overhead.
		acl := access.NewSystem()
		if err := acl.DefineRole("member"); err != nil {
			b.Fatal(err)
		}
		if err := acl.Grant("member", access.OpRead, "svc/*"); err != nil {
			b.Fatal(err)
		}
		if err := acl.Assign("client", "member", access.GlobalScope); err != nil {
			b.Fatal(err)
		}
		sel := transparency.NewSelector()
		tr := trader.New()
		if err := tr.RegisterType("echo"); err != nil {
			b.Fatal(err)
		}
		if err := tr.Export(trader.Offer{ID: "o1", ServiceType: "echo", Provider: "server"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !acl.Can("client", access.OpRead, "svc/echo") {
				b.Fatal("denied")
			}
			if !sel.For("client").Has(odp.Time) {
				b.Fatal("no transparency")
			}
			offers, err := tr.Import(trader.ImportRequest{ServiceType: "echo", Importer: "client"})
			if err != nil || len(offers) == 0 {
				b.Fatal(err)
			}
			call(b, clk, client)
		}
	})
}

// --- R1: directory search scaling -----------------------------------------

func BenchmarkDirectorySearch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dit := directory.NewDIT()
			if err := dit.Add(directory.MustParseDN("o=Big"), nil); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				attrs := directory.PersonEntry(fmt.Sprintf("u%06d", i), "U", "")
				attrs.Add("dept", []string{"eng", "sales", "hr", "ops"}[i%4])
				if err := dit.Add(directory.MustParseDN(fmt.Sprintf("cn=u%06d,o=Big", i)), attrs); err != nil {
					b.Fatal(err)
				}
			}
			filter := directory.MustParseFilter("(&(objectclass=person)(dept=eng))")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := dit.Search(directory.SearchRequest{
					Base: directory.MustParseDN("o=Big"), Scope: directory.ScopeSubtree, Filter: filter,
				})
				if err != nil || len(got) == 0 {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- R2: MHS delivery -------------------------------------------------------

func BenchmarkMHSDelivery(b *testing.B) {
	scenarios := []struct {
		name string
		dl   bool
	}{
		{"direct", false},
		{"dl_fanout_10", true},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			clk := vclock.NewSimulated(netsim.DefaultEpoch)
			net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(1))
			mta := mhs.NewMTA("mta", "gmd.de", rpc.NewEndpoint(net.MustAddNode("mta"), clk), clk)
			sender := mhs.NewUserAgent(mhs.MustParseORName("pn=sender;o=gmd;c=de"), mta)
			var target mhs.ORName
			if sc.dl {
				members := make([]mhs.ORName, 10)
				for i := range members {
					ua := mhs.NewUserAgent(mhs.MustParseORName(fmt.Sprintf("pn=m%d;o=gmd;c=de", i)), mta)
					members[i] = ua.Name
				}
				if err := mta.CreateDL("team", members...); err != nil {
					b.Fatal(err)
				}
				target = mhs.MustParseORName("pn=team;o=gmd;c=de")
			} else {
				rcpt := mhs.NewUserAgent(mhs.MustParseORName("pn=rcpt;o=gmd;c=de"), mta)
				target = rcpt.Name
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sender.Send([]mhs.ORName{target}, "s", "b"); err != nil {
					b.Fatal(err)
				}
				clk.RunUntilIdle()
			}
		})
	}
}

// --- R3: activity coordination ---------------------------------------------

func BenchmarkActivityCoordination(b *testing.B) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	reg := activity.NewRegistry(clk)
	const chain = 20
	ids := make([]string, chain)
	for i := 0; i < chain; i++ {
		a, err := reg.Create("ada", fmt.Sprintf("a%02d", i), "")
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = a.ID
		if i > 0 {
			if err := reg.DependOn(a.ID, ids[i-1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(chain, "activities")
}

// --- R4: transparency selection cost ----------------------------------------

func BenchmarkTransparency(b *testing.B) {
	fields := map[string]string{
		"title": "doc", "body": "text",
		"view:zoom": "150%", "view:cursor": "3,4",
	}
	cases := []struct {
		name string
		mask odp.Mask
	}{
		{"none", 0},
		{"time_only", odp.MaskOf(odp.Time)},
		{"org_only", odp.MaskOf(odp.Organisation)},
		{"all_cscw", odp.MaskOf(odp.CSCWTransparencies()...)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sel := transparency.NewSelector()
			sel.Set("u", tc.mask)
			memberOf := []string{"act-1", "act-2", "act-3"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = transparency.FilterView(sel, "u", fields)
				_ = transparency.ActivityFilter(sel, "u", memberOf, "act-2")
			}
		})
	}
}

// --- R5: trader lookup with and without org policy ---------------------------

func BenchmarkTrader(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		for _, withPolicy := range []bool{false, true} {
			name := fmt.Sprintf("offers=%d/policy=%v", n, withPolicy)
			b.Run(name, func(b *testing.B) {
				tr := trader.New()
				if err := tr.RegisterType("svc"); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					err := tr.Export(trader.Offer{
						ID:          fmt.Sprintf("o%06d", i),
						ServiceType: "svc",
						Properties:  directory.NewAttributes("load", fmt.Sprintf("%d", i%100)),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if withPolicy {
					tr.AddPolicy(trader.PolicyFunc{ID: "mod2", Fn: func(importer string, o trader.Offer) bool {
						return len(o.ID)%2 == 0 || true
					}})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := tr.Import(trader.ImportRequest{
						ServiceType: "svc", Constraint: "(load<=10)", MaxOffers: 5, Importer: "x",
					})
					if err != nil || len(got) == 0 {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- A1: ablation — temporal bridge on/off -----------------------------------

func BenchmarkAblationTemporalBridge(b *testing.B) {
	for _, bridged := range []bool{true, false} {
		name := "bridge_on"
		if !bridged {
			name = "bridge_off"
		}
		b.Run(name, func(b *testing.B) {
			clk := vclock.NewSimulated(netsim.DefaultEpoch)
			sel := transparency.NewSelector()
			if !bridged {
				sel.SetDefault(0) // no temporal transparency anywhere
			}
			delivered, failed := 0, 0
			router := &transparency.TimeRouter{
				Selector: sel,
				Presence: func(string) bool { return false }, // recipient offline
				Sync:     func(string, any) error { return nil },
				Async:    func(string, any) error { return nil },
			}
			_ = clk
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.Route("sender", "offline-user", "payload"); err != nil {
					failed++
				} else {
					delivered++
				}
			}
			b.StopTimer()
			if bridged && failed > 0 {
				b.Fatalf("bridge on: %d failures", failed)
			}
			if !bridged && delivered > 0 {
				b.Fatalf("bridge off: %d deliveries", delivered)
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "delivery_rate")
		})
	}
}

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

// --- R7: placement fanout — full mesh vs activity-scoped placement -----------

// BenchmarkPlacementFanout measures one write into an activity's space
// propagated to convergence at 8 sites, with the activity's two members
// at two of them. "full-mesh" replicates every write to every site;
// "activity-scoped" installs a placement rule so only the member sites
// hold the space — the syncB/op metric is the engineering-viewpoint byte
// cost per converged write (Fabric.TotalsFor("repl-")).
func BenchmarkPlacementFanout(b *testing.B) {
	for _, scoped := range []bool{false, true} {
		name := "full-mesh"
		if scoped {
			name = "activity-scoped"
		}
		b.Run(fmt.Sprintf("%s/sites=8", name), func(b *testing.B) {
			dep := NewDeployment(WithSeed(1))
			sites := make([]*Site, 8)
			for i := range sites {
				sites[i] = dep.AddSite(fmt.Sprintf("s%02d", i), fmt.Sprintf("s%02d.net", i))
			}
			sites[0].AddUser("ada")
			sites[1].AddUser("ben")
			act, err := dep.Env().Activities().Create("ada", "bench", "")
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range []string{"ada", "ben"} {
				if err := dep.Env().Activities().Join(act.ID, m, "participant"); err != nil {
					b.Fatal(err)
				}
			}
			if scoped {
				dep.SetPlacementRules(placement.ByActivity(act.ID, "context", dep.ActivityMemberSites))
				dep.Run()
			}
			obj, err := sites[0].Space().Put("ada", SharedSchemaName, map[string]string{
				"title": "v0", "context": act.ID,
			})
			if err != nil {
				b.Fatal(err)
			}
			dep.Run()
			version := obj.Version
			start := dep.Fabric().TotalsFor("repl-").BytesOut
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd, err := sites[0].Space().Update("ada", obj.ID, version,
					map[string]string{"title": fmt.Sprintf("v%d", i+1)})
				if err != nil {
					b.Fatal(err)
				}
				version = upd.Version
				dep.Run() // drain sync rounds to convergence
			}
			b.StopTimer()
			if got, err := sites[1].Space().Get("ada", obj.ID); err != nil || got.Version != version {
				b.Fatalf("member replica diverged: %+v %v", got, err)
			}
			if scoped {
				if n := sites[7].Space().Len(); n != 0 {
					b.Fatalf("non-member site holds %d rows", n)
				}
			}
			bytes := dep.Fabric().TotalsFor("repl-").BytesOut - start
			b.ReportMetric(float64(bytes)/float64(b.N), "syncB/op")
		})
	}
}
