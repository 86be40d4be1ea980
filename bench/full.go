package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mocca/internal/observe"
)

// timedReps is the number of untraced repetitions per workload, each in a
// fresh child process.
const timedReps = 5

// fullResult is result.json.
type fullResult struct {
	Benchmark  string           `json:"benchmark"`
	Seed       int64            `json:"seed"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
	// Ledger is the median over the traced children, one per workload.
	Ledger   map[string]metricValue `json:"ledger"`
	Phases   []phaseTime            `json:"phases"`
	Failures []string               `json:"failures"`
	// Claim is null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Fingerprint string                 `json:"fingerprint"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Issued      map[string]int64       `json:"issued"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	// Bound and Spread are set on end-to-end metrics: Value is the median
	// of the timed children, Spread how they scattered.
	Bound  *float64 `json:"bound,omitempty"`
	Spread *summary `json:"spread,omitempty"`
}

// phaseTime is the benchmark's own spans grouped by name: a phase's self
// time is its span minus the spans it caused.
type phaseTime struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
}

// child runs one measuring process and reads back its full result. A
// fresh process per repetition isolates heap state and the store handles
// workload.Run never closes, and gives each repetition its own ru_maxrss.
func child(workload string, seed int64, traced bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detail, err := os.CreateTemp(outDir, "run-*.json")
	if err != nil {
		return nil, err
	}
	detail.Close()
	defer os.Remove(detail.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", "1", "-trace", trace, "-out", outDir, "-detail", detail.Name())
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed gate exits non-zero after writing the detail
	blob, err := os.ReadFile(detail.Name())
	if err != nil || len(blob) == 0 {
		return nil, fmt.Errorf("%s child: %v (no result written)", workload, runErr)
	}
	var res runResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("%s child result: %w", workload, err)
	}
	return &res, nil
}

// runAll is the whole benchmark: the timed pass round-robin across the
// workloads (A B C D A B C D ...), so machine drift is sampled by every
// workload alike, then one profiled+traced+ledger child per workload.
func runAll(seed int64, outDir string, w io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	timed := make(map[string][]*runResult)
	traced := make(map[string]*runResult)
	for rep := 1; rep <= timedReps; rep++ {
		for _, wl := range workloads {
			res, err := child(wl.Name, seed, false, outDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "timed %d/%d %-12s run_wall_s %.3f setup_s %.3f\n", rep, timedReps, wl.Name,
				res.Metrics["run_wall_s"], res.Metrics["setup_s"])
			timed[wl.Name] = append(timed[wl.Name], res)
		}
	}
	for _, wl := range workloads {
		res, err := child(wl.Name, seed, true, outDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "traced    %-12s profiled, traced and ledger passes done\n", wl.Name)
		traced[wl.Name] = res
	}

	full, spans := assemble(seed, timed, traced)
	printFull(w, full)
	if err := writeJSON(filepath.Join(outDir, "result.json"), full); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace.json"))
	if err != nil {
		return err
	}
	if err := observe.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s and %s\n\"claim\": null\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "trace.json"))
	if len(full.Failures) > 0 {
		return fmt.Errorf("correctness gate failed: %d checks, first: %s", len(full.Failures), full.Failures[0])
	}
	return nil
}

// assemble folds the children's results into result.json, runs the
// cross-process half of the gate and returns every span the children kept.
func assemble(seed int64, timed map[string][]*runResult, traced map[string]*runResult) (*fullResult, []observe.Span) {
	full := &fullResult{
		Benchmark: "mocca/bench", Seed: seed, Go: runtime.Version(), GOMAXPROCS: min(2, runtime.NumCPU()),
		Ledger: make(map[string]metricValue),
	}
	fail := func(format string, args ...any) { full.Failures = append(full.Failures, fmt.Sprintf(format, args...)) }
	ledgerRuns := make(map[string][]float64)
	var spans []observe.Span
	for _, wl := range workloads {
		runs, tr := timed[wl.Name], traced[wl.Name]
		first := runs[0]
		out := workloadResult{
			Name: wl.Name, Why: wl.Why, Fingerprint: first.Fingerprint,
			Attempted: first.Attempted, Failed: first.Failed, Issued: first.Issued,
			EndToEnd: make(map[string]metricValue), PerLayer: make(map[string]metricValue),
		}
		for _, r := range append(append([]*runResult(nil), runs...), tr) {
			for _, f := range r.Failures {
				fail("%s: %s", wl.Name, f)
			}
			if r.Fingerprint != first.Fingerprint {
				fail("%s: fingerprint: a repetition returned %s, the first %s", wl.Name, r.Fingerprint, first.Fingerprint)
			}
			spans = append(spans, r.Spans...)
		}
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Metrics[m.Name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			s, bound := summarize(vals), m.Bound
			out.EndToEnd[m.Name] = metricValue{Value: s.Median, Unit: m.Unit, Clock: m.Clock, Bound: &bound, Spread: &s}
		}
		// Against the timed median, not the one profiled repetition the
		// traced child had to compare with.
		if tr.TracedWallS > 0 {
			tr.Metrics["observe.trace_overhead_pct"] = (tr.TracedWallS/out.EndToEnd["run_wall_s"].Value - 1) * 100
		}
		for _, m := range perLayer {
			v, ok := tr.Metrics[m.Name]
			if !ok {
				continue
			}
			if strings.HasPrefix(m.Name, "ledger.") {
				ledgerRuns[m.Name] = append(ledgerRuns[m.Name], v)
				continue
			}
			out.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit, Clock: m.Clock}
		}
		full.Workloads = append(full.Workloads, out)
	}
	for _, m := range perLayer {
		if vals := ledgerRuns[m.Name]; len(vals) > 0 {
			full.Ledger[m.Name] = metricValue{Value: median(vals), Unit: m.Unit, Clock: m.Clock}
		}
	}
	// Same spec and seed on two topologies: the generator must have drawn
	// the same ops, or the two rows do not compare.
	mesh, gossip := timed[wlOrgMesh][0].Issued, timed[wlOrgGossip][0].Issued
	for c, n := range mesh {
		if gossip[c] != n {
			fail("generator: %s issued %d on org_mesh and %d on org_gossip", c, n, gossip[c])
		}
	}
	full.Phases = phaseTimes(spans)
	return full, spans
}

// phaseTimes groups spans by (workload, name) and subtracts from each span
// the time of the spans it caused.
func phaseTimes(spans []observe.Span) []phaseTime {
	children := make(map[uint64]float64) // parent span id -> ms covered by children
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += float64(s.Duration()) / 1e6
		}
	}
	type key struct{ workload, name string }
	acc := make(map[key]*phaseTime)
	var order []key
	for _, s := range spans {
		k := key{s.Site, s.Name}
		p := acc[k]
		if p == nil {
			p = &phaseTime{Workload: s.Site, Name: s.Name}
			acc[k] = p
			order = append(order, k)
		}
		ms := float64(s.Duration()) / 1e6
		p.Count++
		p.TotalMS += ms
		p.SelfMS += ms - children[s.SpanID]
	}
	out := make([]phaseTime, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printFull prints every metric by name with unit and clock, per workload.
func printFull(w io.Writer, full *fullResult) {
	fmt.Fprintf(w, "\nmocca/bench seed %d, %s, GOMAXPROCS %d, %d timed repetitions per workload\n",
		full.Seed, full.Go, full.GOMAXPROCS, timedReps)
	row := func(name string, v metricValue) {
		fmt.Fprintf(w, "  %-42s %14.4f %-6s %-5s", name, v.Value, v.Unit, v.Clock)
		if v.Bound != nil {
			fmt.Fprintf(w, " bound %4.1f%%", *v.Bound*100)
		}
		if s := v.Spread; s != nil && v.Clock == clockHost {
			fmt.Fprintf(w, "  min %.4f q1 %.4f q3 %.4f max %.4f", s.Min, s.Q1, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
	for _, wl := range full.Workloads {
		fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, fingerprint %s\n", wl.Name, wl.Attempted, wl.Failed, wl.Fingerprint)
		classes := make([]string, 0, len(wl.Issued))
		for c := range wl.Issued {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprint(w, "   issued:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, wl.Issued[c])
		}
		fmt.Fprintln(w, "\n end to end (median of the timed children)")
		for _, m := range endToEnd {
			if v, ok := wl.EndToEnd[m.Name]; ok {
				row(m.Name, v)
			}
		}
		fmt.Fprintln(w, " per layer (profiled and traced child)")
		for _, m := range perLayer {
			if v, ok := wl.PerLayer[m.Name]; ok {
				row(m.Name, v)
			}
		}
	}
	fmt.Fprintln(w, "\n== layer ledger (fixed iterations, median of 5 trials, median over the traced children)")
	for _, m := range perLayer {
		if v, ok := full.Ledger[m.Name]; ok {
			row(m.Name, v)
		}
	}
	fmt.Fprintln(w, "\n== phases (the benchmark's own spans; self = span minus the spans it caused)")
	for _, p := range full.Phases {
		if strings.HasPrefix(p.Name, "ledger.") {
			continue // one row per trial group would repeat the ledger above; they are in trace.json
		}
		fmt.Fprintf(w, "  %-12s %-42s n=%-3d total %10.1f ms  self %10.1f ms\n", p.Workload, p.Name, p.Count, p.TotalMS, p.SelfMS)
	}
	for _, f := range full.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	fmt.Fprintln(w)
}
