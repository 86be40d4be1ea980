package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"mocca/internal/observe"
)

// runResult is everything one process measured on one workload. The last
// line of a run's standard output is its projection onto the names
// BENCHMARK.json declares; the full benchmark reads the whole thing from
// the file named by -detail.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Failures  []string `json:"failures"` // correctness checks that failed, by name
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// Metrics holds every metric this run measured; one that does not
	// apply to the workload is absent, never zero.
	Metrics map[string]float64 `json:"metrics"`
	// Samples keeps the per-repetition values behind the host-clock medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Fingerprint is Report.Fingerprint() of the untraced repetitions
	// (store_mixed: a hash of every call's result); Issued the generator's
	// per-class op counts. Both are pure functions of the seed.
	Fingerprint string           `json:"fingerprint"`
	Issued      map[string]int64 `json:"issued"`
	// TracedWallS is the wall time of the workload.RunTrace repetition.
	TracedWallS float64        `json:"traced_wall_s,omitempty"`
	Spans       []observe.Span `json:"spans,omitempty"`
}

func newRunResult(workload string, seed int64, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Traced: traced,
		Metrics: make(map[string]float64), Samples: make(map[string][]float64),
		Issued: make(map[string]int64),
	}
}

// check records a failed correctness check under its name.
func (r *runResult) check(ok bool, name, format string, args ...any) {
	if !ok {
		r.Failures = append(r.Failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// sample records one repetition's value of a host-clock metric; the
// metric itself is the median of its samples.
func (r *runResult) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
	r.Metrics[name] = median(r.Samples[name])
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract projects the result onto the declared names: end_to_end with
// tracing off, per_layer with it on. The driver wants every declared name
// on every workload, so a layer the workload never enters reads 0 here
// (and only here; the report and result.json leave it out).
func (r *runResult) contract() contractLine {
	defs := driverEndToEnd()
	if r.Traced {
		defs = driverPerLayer()
	}
	line := contractLine{
		Correct: len(r.Failures) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(defs)),
	}
	for _, m := range defs {
		line.Metrics[m.Name] = contractMetric{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return line
}

// spanLog keeps the benchmark's own spans (around every call it makes
// into a layer) in memory as observe.Span, so observe.WriteChromeTrace
// can export them: the workload is the row, TraceID the repetition.
type spanLog struct {
	workload string
	rep      uint64
	next     uint64
	spans    []observe.Span
}

// nextRep starts a new repetition: spans begun from here on share its id.
func (l *spanLog) nextRep() {
	// The pid keeps ids of different child processes apart in trace.json.
	if l.rep == 0 {
		l.rep = uint64(os.Getpid()) << 16
	}
	l.rep++
}

type liveSpan struct {
	log *spanLog
	idx int
	ID  uint64
}

func (l *spanLog) begin(name string, parent uint64) liveSpan {
	l.next++
	id := l.rep<<16 | l.next
	l.spans = append(l.spans, observe.Span{
		TraceID: l.rep, SpanID: id, Parent: parent, Name: name, Site: l.workload, Start: time.Now(),
	})
	return liveSpan{log: l, idx: len(l.spans) - 1, ID: id}
}

func (s liveSpan) end() { s.log.spans[s.idx].End = time.Now() }

// timed runs fn from a collected heap between two MemStats readings. It
// returns fn's wall time and keeps its allocation counts as samples.
func (r *runResult) timed(fn func() error) (time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.Samples["mallocs"] = append(r.Samples["mallocs"], float64(m1.Mallocs-m0.Mallocs))
	r.Samples["alloc_bytes"] = append(r.Samples["alloc_bytes"], float64(m1.TotalAlloc-m0.TotalAlloc))
	return wall, err
}

// untracedDone derives what an untraced run reports once its repetitions
// are over: allocations per op from their samples, and the peak RSS so far.
func (r *runResult) untracedDone() error {
	r.Metrics["allocs_per_op"] = median(r.Samples["mallocs"]) / float64(r.Attempted)
	r.Metrics["alloc_kb_per_op"] = median(r.Samples["alloc_bytes"]) / 1024 / float64(r.Attempted)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	r.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
	return nil
}

// budget decides how many repetitions fit a run: at least one, then as
// many as end within the requested seconds at the pace seen so far.
type budget struct {
	start   time.Time
	seconds float64
	walls   []float64
}

func newBudget(seconds int) *budget {
	return &budget{start: time.Now(), seconds: float64(seconds)}
}

func (b *budget) more() bool {
	if len(b.walls) == 0 {
		return true
	}
	return time.Since(b.start).Seconds()+median(b.walls) <= b.seconds
}

func (b *budget) spent(d time.Duration) { b.walls = append(b.walls, d.Seconds()) }

// runOne measures one workload in this process: the mode the driver (and
// the full benchmark, once per child) invokes.
func runOne(workload string, seed int64, seconds int, traced bool, outDir, detail string, stdout io.Writer) error {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := newRunResult(workload, seed, traced)
	log := &spanLog{workload: workload}
	var err error
	switch workload {
	case wlOrgMesh, wlOrgGossip, wlServices:
		err = runOrg(res, log, orgSpec(workload, seed), seconds, outDir)
	case wlStoreMixed:
		err = runStore(res, log, fullStore, seconds, outDir)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if traced {
		lr, err := runLedger(log, outDir, ledgerTrials, 1)
		if err != nil {
			return err
		}
		for k, v := range lr {
			res.Metrics[k] = v
		}
	}
	res.Spans = log.spans
	checkPins(res)

	printRun(stdout, res)
	if detail != "" {
		blob, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, blob, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.Failures) > 0 {
		return fmt.Errorf("%s: correctness gate failed: %v", workload, res.Failures)
	}
	return nil
}

// printRun lists every metric the run measured, by name, with unit and clock.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "workload %s seed %d traced=%v attempted=%d failed=%d fingerprint=%s\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Fingerprint)
	for _, m := range allMetrics() {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s %s", m.Name, v, m.Unit, m.Clock)
		if s := r.Samples[m.Name]; len(s) > 1 {
			q := summarize(s)
			fmt.Fprintf(w, "  (n=%d min %.4f q1 %.4f q3 %.4f)", q.N, q.Min, q.Q1, q.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
