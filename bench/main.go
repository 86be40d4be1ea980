// Command bench is the repository's benchmark: four named workloads,
// end-to-end metrics on the host and the simulated clock, a per-layer
// breakdown and a layer ledger. See README.md beside this file.
//
//	go run ./bench -seed 1992                       all workloads, all passes
//	go run ./bench -compare old.json new.json       verdict per workload x metric
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is one measuring process: what BENCHMARK.json's driver
// invokes, and what the first form runs as child processes. It measures
// every layer from outside, through workload.Run/RunTrace, the layers'
// exported functions, exported Stats and telemetry snapshots and a CPU
// profile, and edits none of them.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		seed     = flag.Int64("seed", pinnedSeed, "workload seed; the only input")
		outDir   = flag.String("out", "bench/out", "directory for result.json, trace.json and scratch files")
		compare  = flag.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
		workload = flag.String("workload", "", "measure one workload in this process and print the driver's JSON line")
		seconds  = flag.Int("seconds", 1, "with -workload: keep repeating the workload for this long")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the profiled, traced and ledger passes")
		detail   = flag.String("detail", "", "with -workload: also write the full result here (used by the full benchmark's child processes)")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files: old.json new.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *outDir, *detail, os.Stdout)
	default:
		err = runAll(*seed, *outDir, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
