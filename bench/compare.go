package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric cell.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for a lower-is-better metric. A cell is
// unresolved when either side's own quartiles lie further apart than the
// bound and the two sides' runs overlap: the spread hides a change of the
// size the bound is about, in either direction.
func verdict(old, new summary, bound float64) string {
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	overlap := new.Min <= old.Max && old.Min <= new.Max
	if max(spread(old), spread(new)) > bound && overlap && old.Median != new.Median {
		return verdictUnresolved
	}
	switch delta := new.Median - old.Median; {
	case delta > bound*old.Median:
		return verdictWorse
	case delta < -bound*old.Median:
		return verdictBetter
	}
	return verdictWithin
}

func readResult(path string) (*fullResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var full fullResult
	if err := json.Unmarshal(blob, &full); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &full, nil
}

// compareFiles prints one row per workload x end-to-end metric, the table
// later changes paste from.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	new, err := readResult(newPath)
	if err != nil {
		return err
	}
	if old.Seed != new.Seed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): sim and count metrics are not comparable\n", old.Seed, new.Seed)
	}
	newBy := make(map[string]workloadResult, len(new.Workloads))
	for _, wl := range new.Workloads {
		newBy[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-12s %-26s %-6s %-5s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "unit", "clock", "old", "new", "delta", "bound", "verdict")
	for _, o := range old.Workloads {
		n, ok := newBy[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from %s\n", o.Name, newPath)
			continue
		}
		for _, m := range endToEnd {
			ov, ok1 := o.EndToEnd[m.Name]
			nv, ok2 := n.EndToEnd[m.Name]
			if !ok1 || !ok2 || ov.Spread == nil || nv.Spread == nil {
				continue
			}
			delta := 0.0
			if ov.Value != 0 {
				delta = (nv.Value - ov.Value) / ov.Value * 100
			}
			fmt.Fprintf(w, "%-12s %-26s %-6s %-5s %14.4f %14.4f %+7.2f%% %5.1f%%  %s\n",
				o.Name, m.Name, m.Unit, m.Clock, ov.Value, nv.Value, delta, m.Bound*100,
				verdict(*ov.Spread, *nv.Spread, m.Bound))
		}
		identical := "no"
		if o.Fingerprint == n.Fingerprint && old.Seed == new.Seed {
			identical = "yes"
		}
		fmt.Fprintf(w, "%-12s sim-identical: %s (failed %d -> %d)\n", o.Name, identical, o.Failed, n.Failed)
	}
	return nil
}
