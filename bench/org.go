package main

import (
	"fmt"
	"sort"
	"time"

	"mocca/internal/workload"
)

// setupReps is how many zero-traffic runs stand behind an org workload's
// setup_s median.
const setupReps = 5

// mailGrace is workload.Run's fixed post-convergence drain; the package
// keeps it unexported, so reconverge_sim_s subtracts the same minute here.
const mailGrace = time.Minute

// orgSpec is the workload's spec: one organization, three ways to load it.
// The seed is the only argument; sizes are constants.
func orgSpec(name string, seed int64) workload.Spec {
	spec := workload.Spec{
		Seed: seed, Sites: 16, Users: 2000,
		Duration: 3 * time.Minute, OpsPerUserHour: 30,
		Chaos:           &workload.ChaosSpec{Crashes: 1, Partitions: 1},
		ConvergeTimeout: 30 * time.Minute,
	}
	switch name {
	case wlOrgGossip:
		spec.Topology = "gossip"
	case wlServices:
		spec.Mix = workload.Mix{Mail: 30, Dir: 25, Trade: 20, Join: 5, Set: 20}
		spec.Duration = 15 * time.Minute
		spec.OpsPerUserHour = 120
		spec.Chaos = nil
	}
	return spec
}

// runOrg measures one deployed workload. Untraced: setupReps zero-traffic
// runs, then as many workload.Run repetitions as the budget allows.
// Traced: one repetition under the CPU profiler and one through
// workload.RunTrace.
func runOrg(res *runResult, log *spanLog, spec workload.Spec, seconds int, outDir string) error {
	if res.Traced {
		return traceOrg(res, log, spec, outDir)
	}
	idle := spec
	idle.Duration, idle.Chaos = 1, nil
	for i := 0; i < setupReps; i++ {
		log.nextRep()
		sp := log.begin("setup: workload.Run(zero traffic)", 0)
		t0 := time.Now()
		_, err := workload.Run(idle)
		res.sample("setup_s", time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("setup run: %w", err)
		}
	}
	speed := newSpeedometer()
	before := speed.lap()
	for b := newBudget(seconds); b.more(); {
		log.nextRep()
		var rep *workload.Report
		sp := log.begin("workload.Run", 0)
		wall, err := res.timed(func() (err error) {
			rep, err = workload.Run(spec)
			return err
		})
		sp.end()
		if err != nil {
			return fmt.Errorf("workload.Run: %w", err)
		}
		after := speed.lap()
		b.spent(wall)
		res.sample("run_wall_s", wall.Seconds())
		res.sample("run_cal_s", calibrated(wall, before, after))
		before = after
		fp := rep.Fingerprint()
		res.check(res.Fingerprint == "" || res.Fingerprint == fp, "fingerprint",
			"repetition returned %s, an earlier one %s", fp, res.Fingerprint)
		res.Fingerprint = fp
		orgMetrics(res, rep)
	}
	return res.untracedDone()
}

// traceOrg is the profiled and the traced pass.
func traceOrg(res *runResult, log *spanLog, spec workload.Spec, outDir string) error {
	log.nextRep()
	sp := log.begin("profiled: workload.Run", 0)
	var plain time.Duration
	err := res.profiled(outDir, func() error {
		t0 := time.Now()
		rep, err := workload.Run(spec)
		plain = time.Since(t0)
		if err == nil {
			// The sim and byte metrics come from this untraced report:
			// trace contexts make the traced run's frames larger.
			res.Fingerprint = rep.Fingerprint()
			orgMetrics(res, rep)
		}
		return err
	})
	sp.end()
	if err != nil {
		return err
	}

	log.nextRep()
	sp = log.begin("traced: workload.RunTrace", 0)
	t0 := time.Now()
	rep, _, err := workload.RunTrace(spec)
	traced := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("workload.RunTrace: %w", err)
	}
	telemetryMetrics(res, rep.Telemetry)
	// Within one process the untraced reference is the profiled repetition;
	// the full benchmark takes run_wall_s from its timed children and
	// recomputes the overhead against their median.
	res.Metrics["run_wall_s"] = plain.Seconds()
	res.Metrics["observe.trace_overhead_pct"] = (traced.Seconds()/plain.Seconds() - 1) * 100
	res.TracedWallS = traced.Seconds()
	return nil
}

// orgMetrics derives the sim and count metrics from a report and runs the
// per-report half of the correctness gate.
func orgMetrics(res *runResult, rep *workload.Report) {
	res.check(rep.Converged, "converged", "sites did not reconverge within %v", rep.Spec.ConvergeTimeout)
	res.check(rep.Digest != "diverged" && rep.Digest != "", "digest", "full digests read %q", rep.Digest)
	res.check(rep.PendingWrites == 0, "pending_writes", "%d writes neither visible everywhere nor lost", rep.PendingWrites)

	var attempted, completed, failed int64
	for _, c := range workload.Classes {
		st := rep.Classes[c]
		res.Issued[c] = st.Issued
		attempted += st.Issued - st.Skipped
		completed += st.Completed
		failed += st.Failed
	}
	res.Attempted, res.Failed = attempted, failed
	// Mail to a recipient on the sender's own site is delivered inside
	// Send, before the harness registers the message id, so it is never
	// confirmed; it did not fail either.
	res.Metrics["workload.unconfirmed_mail"] = float64(attempted - completed - failed)

	pool := func(classes ...string) *workload.Histogram {
		var h workload.Histogram
		for _, c := range classes {
			src := rep.Classes[c].Hist
			h.Count += src.Count
			h.SumUS += src.SumUS
			h.MaxUS = max(h.MaxUS, src.MaxUS)
			for i, n := range src.Buckets {
				h.Buckets[i] += n
			}
		}
		return &h
	}
	meanMS := func(h *workload.Histogram) float64 { return float64(h.SumUS) / float64(h.Count) / 1000 }
	if w := pool(workload.ClassWrite, workload.ClassUpdate); w.Count > 0 {
		res.Metrics["write_vis_mean_ms"] = meanMS(w)
		res.Metrics["write_vis_p99_ms"] = float64(w.Quantile(0.99)) / float64(time.Millisecond)
	}
	if m := pool(workload.ClassMail); m.Count > 0 {
		res.Metrics["mail_delivery_mean_ms"] = meanMS(m)
	}
	if s := pool(workload.ClassDir, workload.ClassTrade, workload.ClassJoin, workload.ClassSet); s.Count > 0 {
		res.Metrics["service_rtt_mean_ms"] = meanMS(s)
	}
	res.Metrics["reconverge_sim_s"] = (rep.SimDuration - rep.Spec.Duration - mailGrace).Seconds()

	var total, declared int64
	for _, s := range rep.Services {
		total += s.BytesOut
	}
	for _, p := range servicePlanes {
		b := rep.Services[p].BytesOut
		declared += b
		res.Metrics["bytes."+p] = float64(b)
	}
	res.check(declared == total, "bytes_sum", "bytes.* sum to %d, Report.Services to %d", declared, total)
	if completed > 0 {
		res.Metrics["wire_bytes_per_op"] = float64(total) / float64(completed)
		res.Metrics["io_bytes_per_op"] = res.Metrics["wire_bytes_per_op"]
	}
}

// telemetryMetrics folds the traced run's metrics snapshot into the
// per-layer counts and reconciles Fabric against netsim from outside.
func telemetryMetrics(res *runResult, tel *workload.TelemetryReport) {
	sum := make(map[string]int64) // family name -> value summed over labels
	for _, p := range tel.Metrics {
		sum[p.Name] += p.Value
	}
	count := func(metric, family string) { res.Metrics[metric] = float64(sum["mocca."+family]) }
	share := func(metric, num, den string) {
		if d := sum["mocca."+den]; d > 0 {
			res.Metrics[metric] = float64(sum["mocca."+num]) / float64(d)
		}
	}
	for _, n := range []string{"rounds", "peer_syncs", "applied", "pushed", "conflicts", "peer_failures", "digest_bytes"} {
		count("replica."+n, "sync."+n)
	}
	share("replica.converged_root_share", "sync.converged_roots", "sync.peer_syncs")
	if _, gossip := sum["mocca.gossip.rumors_seen"]; gossip {
		for _, n := range []string{"rumors_published", "rumors_seen", "rumor_fetches"} {
			count("gossip."+n, "gossip."+n)
		}
		share("gossip.rumor_useful_share", "gossip.rumor_applied", "gossip.rumors_seen")
	}
	for _, n := range []string{"calls_sent", "timeouts", "remote_errors"} {
		count("rpc."+n, "rpc."+n)
	}
	count("channel.frames_out", "channels.frames_out")
	count("channel.open", "channels.open")
	count("channel.interceptor_drops", "channel.interceptor_drops")
	for _, n := range []string{"sent", "delivered", "dropped", "blocked"} {
		count("netsim."+n, "net."+n)
	}
	res.Metrics["observe.spans"] = float64(tel.Traces.Spans)
	res.Metrics["observe.evicted"] = float64(tel.Traces.Evicted)

	sent, out := sum["mocca.net.sent"], sum["mocca.channels.frames_out"]
	res.check(sent == out, "net_reconcile_sent", "netsim sent %d frames, channels %d", sent, out)
	delivered, in := sum["mocca.net.delivered"], sum["mocca.channels.frames_in"]+sum["mocca.channels.discards_in"]
	res.check(delivered == in, "net_reconcile_delivered", "netsim delivered %d frames, channels took %d", delivered, in)
}

// Generator pins for seed 1992: the per-class Issued counts of the full
// scenarios. An edit to internal/workload that changes them changes what
// every later claim is measured on, so it has to fail here.
var issuedPins = map[string]map[string]int64{
	wlOrgMesh: { // 3058 in all
		"info.write": 307, "info.update": 895, "mail.send": 466, "dir.lookup": 469,
		"trade.lookup": 318, "rtc.join": 142, "rtc.set": 461,
	},
	wlServices: { // 60025 in all
		"info.write": 0, "info.update": 0, "mail.send": 18102, "dir.lookup": 15057,
		"trade.lookup": 11969, "rtc.join": 2993, "rtc.set": 11904,
	},
	wlStoreMixed: {"get_hit": 150055, "get_miss": 30079, "exec": 119866},
}

const pinnedSeed = 1992

func checkPins(res *runResult) {
	if res.Seed != pinnedSeed {
		return
	}
	name := res.Workload
	if name == wlOrgGossip {
		name = wlOrgMesh // same spec and seed, so the generator draws the same ops
	}
	want, ok := issuedPins[name]
	if !ok {
		return
	}
	classes := make([]string, 0, len(want))
	for c := range want {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		res.check(res.Issued[c] == want[c], "generator_pin",
			"%s issued %d %s ops, pinned %d: workload generator changed — re-baseline in a benchmark PR",
			res.Workload, res.Issued[c], c, want[c])
	}
}
