package main

import "sort"

// Workload names. All later issues cite them.
const (
	wlOrgMesh    = "org_mesh"
	wlOrgGossip  = "org_gossip"
	wlServices   = "services"
	wlStoreMixed = "store_mixed"
)

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlOrgMesh, "canonical organization run (16 sites, 2000 users, crash+partition): information.DigestTree and wire JSON burn the CPU, replica anti-entropy carries the bytes; gossip and logstore idle"},
	{wlOrgGossip, "same spec and seed on the gossip overlay, so mesh and overlay compare cell by cell: rumor path sets visibility, wire is the top CPU consumer, mesh peering is absent"},
	{wlServices, "same organization with no information writes: many small JSON rpc bodies through directory, trader, mhs and rtc while replica and DigestTree stay dormant; the no-change row for replica work"},
	{wlStoreMixed, "closed loop at the information.Backend seam over logstore: Zipf reads beside overwrites beside full scans, then a torn-WAL reopen; the only workload where logstore does the work"},
}

// Clocks. Every number the benchmark prints is tagged with one: host is
// wall time of the simulator on this machine, sim is simulated-clock time
// (a pure function of spec and seed) and count is exact.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

// metricDef declares one metric. All metrics are lower-is-better unless
// Higher is set (per-layer ratios of useful work).
type metricDef struct {
	Name  string
	Unit  string
	Clock string
	// Bound is the share of the old side's median by which an end-to-end
	// metric may worsen in a same-seed -compare before the row reads
	// "worse". Same seed means sim and count metrics repeat exactly, so
	// their bounds are tight.
	Bound float64
	// Driver, when positive, lists the metric under end_to_end in
	// BENCHMARK.json with this bound. The driver's runs differ in seed, so
	// the bound has to cover seed-to-seed spread too, and the metric must
	// be measured, and never zero, on every workload.
	Driver float64
	Higher bool
	// On lists the workloads the metric is measured on; nil means all.
	On []string
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onOrg      = []string{wlOrgMesh, wlOrgGossip}
	onDeployed = []string{wlOrgMesh, wlOrgGossip, wlServices}
	onGossip   = []string{wlOrgGossip}
	onStore    = []string{wlStoreMixed}
)

// endToEnd is what a user of the system sees. The six with a Driver bound
// are the ones BENCHMARK.json lists as end_to_end. The rest exist on some
// workloads only, are constants of the simulated network, follow the seed's
// fault schedule or, for run_wall_s, the host's drift — none of which the
// driver's contract allows there — so BENCHMARK.json carries them under
// per_layer, while -compare and the printed report treat them as the
// end-to-end metrics they are.
var endToEnd = []metricDef{
	// Org workloads: median wall of the spec with Duration 1ns and no chaos
	// (build deployment, seed objects, first convergence). store_mixed: the
	// load phase (100000 rows + Sync).
	{Name: "setup_s", Unit: "s", Clock: clockHost, Bound: 0.10, Driver: 0.25},
	// run_wall_s restated at a reference machine speed: each repetition's wall
	// scaled by the speedometer laps run beside it (speed.go), then the
	// median.
	{Name: "run_cal_s", Unit: "s", Clock: clockHost, Bound: 0.10, Driver: 0.25},
	// MemStats.Mallocs delta over the run_wall_s interval / ops attempted.
	{Name: "allocs_per_op", Unit: "count", Clock: clockCount, Bound: 0.01, Driver: 0.20},
	// MemStats.TotalAlloc delta over the same interval / ops attempted.
	{Name: "alloc_kb_per_op", Unit: "KB", Clock: clockCount, Bound: 0.02, Driver: 0.20},
	// ru_maxrss of the measuring process, in MB.
	{Name: "peak_rss_mb", Unit: "MB", Clock: clockHost, Bound: 0.10, Driver: 0.15},
	// Bytes leaving the process per completed op: wire_bytes_per_op on
	// deployed workloads, (WAL bytes appended + bytes under the store dir at
	// end) / ops on store_mixed.
	{Name: "io_bytes_per_op", Unit: "B", Clock: clockCount, Bound: 0.01, Driver: 0.25},
	// Median wall around workload.Run (org) or the mixed+crash+recover phases
	// (store_mixed), tracing off.
	{Name: "run_wall_s", Unit: "s", Clock: clockHost, Bound: 0.10},
	// Replication visibility (commit -> applied at every live site),
	// info.write+info.update pooled, exact from Hist.SumUS/Count.
	{Name: "write_vis_mean_ms", Unit: "sim_ms", Clock: clockSim, Bound: 0.01, On: onOrg},
	// Hist.Quantile(0.99) pooled; power-of-two buckets, so a tail tripwire
	// that moves in x2 steps, not a claim target.
	{Name: "write_vis_p99_ms", Unit: "sim_ms", Clock: clockSim, Bound: 0, On: onOrg},
	// mail.send submission -> recipient mailbox.
	{Name: "mail_delivery_mean_ms", Unit: "sim_ms", Clock: clockSim, Bound: 0.01, On: onDeployed},
	// dir.lookup+trade.lookup+rtc.join+rtc.set pooled round trip.
	{Name: "service_rtt_mean_ms", Unit: "sim_ms", Clock: clockSim, Bound: 0.01, On: onDeployed},
	// SimDuration - Duration - 1 min mail grace: end of traffic to identical
	// Merkle roots on every site.
	{Name: "reconverge_sim_s", Unit: "sim_s", Clock: clockSim, Bound: 0.01, On: onDeployed},
	// Sum of Report.Services[*].BytesOut / ops completed.
	{Name: "wire_bytes_per_op", Unit: "B", Clock: clockCount, Bound: 0.01, On: onDeployed},
	// (Stats.AppendedBytes + bytes under the store dir at end) / user bytes
	// written.
	{Name: "store_bytes_per_user_byte", Unit: "ratio", Clock: clockCount, Bound: 0.02, On: onStore},
}

// cpuLayers are the buckets of the profiled pass, in report order. A
// sample is charged to the innermost mocca/... frame on its stack.
var cpuLayers = []string{
	"information", "logstore", "wire", "vclock", "replica", "gossip", "rpc", "channel", "netsim",
	"directory", "trader", "mhs", "rtc", "placement", "observe", "workload", "other_mocca", "runtime",
}

// servicePlanes are the Fabric address prefixes Report.Services is keyed by.
var servicePlanes = []string{"repl", "gossip", "mta", "dsa", "trade", "mcu", "user", "load", "place"}

// perLayer is every single-layer metric, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(on []string, unit, clock string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Clock: clock, On: on})
		}
	}
	for _, l := range cpuLayers {
		add(nil, "%", clockHost, "cpu."+l)
	}
	add(onDeployed, "count", clockCount,
		"replica.rounds", "replica.peer_syncs", "replica.applied", "replica.pushed",
		"replica.conflicts", "replica.peer_failures")
	add(onDeployed, "share", clockCount, "replica.converged_root_share")
	add(onDeployed, "B", clockCount, "replica.digest_bytes")
	add(onGossip, "count", clockCount, "gossip.rumors_published", "gossip.rumors_seen", "gossip.rumor_fetches")
	add(onGossip, "share", clockCount, "gossip.rumor_useful_share")
	add(onDeployed, "count", clockCount,
		"rpc.calls_sent", "rpc.timeouts", "rpc.remote_errors",
		"channel.frames_out", "channel.open", "channel.interceptor_drops",
		"netsim.sent", "netsim.delivered", "netsim.dropped", "netsim.blocked")
	for _, p := range servicePlanes {
		add(onDeployed, "B", clockCount, "bytes."+p)
	}
	add(onDeployed, "count", clockCount, "observe.spans", "observe.evicted", "workload.unconfirmed_mail")
	add(onDeployed, "%", clockHost, "observe.trace_overhead_pct")
	add(onStore, "us", clockHost,
		"logstore.exec_p50_us", "logstore.exec_p99_us", "logstore.get_hit_p50_us",
		"logstore.get_hit_p99_us", "logstore.get_miss_p50_us")
	add(onStore, "ms", clockHost, "logstore.scan_mean_ms", "logstore.recovery_ms")
	add(onStore, "ratio", clockCount, "logstore.wal_bytes_per_user_byte")
	add(onStore, "count", clockHost, "logstore.compactions", "logstore.merges", "logstore.segments_end")
	add(onStore, "ratio", clockHost, "logstore.seg_probes_per_get")
	add(onStore, "share", clockHost, "logstore.bloom_false_positive_share")
	add(onStore, "count", clockCount, "logstore.replayed_records")
	add(onStore, "B", clockCount, "logstore.discarded_bytes")
	add(onStore, "us", clockHost, "memstore.exec_p50_us", "memstore.get_p50_us")
	add(onStore, "ms", clockHost, "memstore.scan_mean_ms")
	for _, e := range ledger {
		add(nil, "ns", clockHost, "ledger."+e.name+".ns")
		add(nil, "count", clockCount, "ledger."+e.name+".allocs")
	}
	for i := range out {
		switch out[i].Name {
		case "replica.converged_root_share", "gossip.rumor_useful_share":
			out[i].Higher = true
		}
	}
	return out
}

// allMetrics is every declared metric, in report order.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// driverEndToEnd and driverPerLayer split the declared metrics the way
// BENCHMARK.json lists them.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Driver > 0 {
			out = append(out, m)
		}
	}
	return out
}

func driverPerLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Driver == 0 {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

// --- small statistics -------------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quantile interpolates linearly between the order statistics of a sorted
// slice (the "inclusive" method).
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary is a host metric's spread across repetitions.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(v []float64) summary {
	s := sorted(v)
	if len(s) == 0 {
		return summary{}
	}
	return summary{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), Max: s[len(s)-1]}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
