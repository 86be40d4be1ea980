package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// profiled runs fn under the CPU profiler and records the cpu.* shares. A
// profile without samples fails the gate, not the run: the shares are what
// is wrong then, not the workload's outputs.
func (r *runResult) profiled(outDir string, fn func() error) error {
	shares, err := profileCPU(outDir, fn)
	if err != nil {
		return err
	}
	var sum float64
	for layer, pct := range shares {
		r.Metrics["cpu."+layer] = pct
		sum += pct
	}
	r.check(math.Abs(sum-100) <= 0.5, "cpu_profile", "CPU shares sum to %.2f%%, want 100", sum)
	return nil
}

// profileCPU runs fn under runtime/pprof and folds the profile into CPU
// shares by layer (percent, summing to 100). The folding goes through
// `go tool pprof -traces`, which ships with the toolchain that built this
// program, so no dependency is added.
func profileCPU(outDir string, fn func() error) (map[string]float64, error) {
	f, err := os.CreateTemp(outDir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(out)
}

// foldTraces reads `pprof -traces` text: blocks separated by dashed lines,
// each a sample value followed by the stack, innermost frame first. Each
// sample is charged to the layer of its innermost mocca/... frame, so the
// map, JSON and allocation time the standard library spends on a layer's
// behalf lands on that layer. A stack with no such frame (GC, scheduler),
// or with the benchmark's own code below it (the work inside an Exec
// callback is the caller's, not the store's), is charged to "runtime".
func foldTraces(text []byte) (map[string]float64, error) {
	ns := make(map[string]float64, len(cpuLayers))
	var total float64
	var value time.Duration
	var layer string
	inStack := false
	flush := func() {
		if inStack {
			if layer == "" || layer == benchFrames {
				layer = "runtime"
			}
			ns[layer] += float64(value)
			total += float64(value)
		}
		inStack, layer = false, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	seenRule := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----") {
			flush()
			seenRule = true
			continue
		}
		if !seenRule || line == "" {
			continue // header (File:, Type:, Duration: ...)
		}
		frame := line
		if !inStack {
			val, rest, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("pprof -traces: sample line %q has no frame", line)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value %q: %w", val, err)
			}
			value, frame, inStack = d, strings.TrimSpace(rest), true
		}
		if layer == "" {
			layer = frameLayer(frame)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	pct := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		pct[l] = 0
		if total > 0 {
			pct[l] = ns[l] / total * 100
		}
	}
	return pct, nil
}

// benchFrames is what frameLayer answers for the benchmark's own symbols.
const benchFrames = "main"

// frameLayer names the layer a symbol belongs to: the package's last path
// element when it is one of cpuLayers, "other_mocca" for the rest of the
// module, benchFrames for this program, "" for anything else.
func frameLayer(symbol string) string {
	// Cut receiver and type arguments, which may hold dots and slashes.
	if i := strings.IndexAny(symbol, "(["); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := symbol[:slash+1+dot]
	if pkg == benchFrames {
		return benchFrames
	}
	if pkg != "mocca" && !strings.HasPrefix(pkg, "mocca/") {
		return ""
	}
	last := pkg[strings.LastIndexByte(pkg, '/')+1:]
	for _, l := range cpuLayers {
		if l == last && strings.HasPrefix(pkg, "mocca/internal/") {
			return l
		}
	}
	return "other_mocca"
}
