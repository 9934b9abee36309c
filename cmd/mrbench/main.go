// Command mrbench regenerates every table and figure of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	mrbench [-full|-quick] [-trace] [experiment ...]
//	mrbench ledger [row ...]
//
// Experiments: table1 table2 fig3 fig4a fig4b fig4c fig5 fig6
// ablation-commitwait ablation-nonvoters ablation-survivability elastic
// all (default: all).
//
// elastic runs the dynamic scenarios (follow-the-sun region rotation,
// migrating hotspot, online region add/drop) against the load-based
// allocator and writes the latency trajectories to BENCH_elastic.json,
// gating only on each trajectory re-converging to the pre-shift shape.
// With -export-dir DIR each scenario also exports its virtual-time
// timeseries (OpenMetrics) and traces (Jaeger UI JSON) into DIR.
//
// -full runs at a scale close to the paper's (minutes per figure); the
// default quick scale (also spellable as -quick) finishes in seconds per
// figure and preserves every reported shape.
//
// ledger [row ...] runs the ledger's rows (fig3, fig6-4, fig6-26; default
// all three) and prints what each layer counted per transaction, the lines
// scripts/ledger.sh writes to results/ledger.txt. The 26-region row takes
// about a minute and over a GiB of heap.
//
// -trace enables span recording during fig3, writes per-phase span
// histograms to results/fig3_phases.txt, and fails the run if any
// non-GLOBAL variant shows a commit-wait span above the gate — the CI
// smoke that commit-waits never leak into REGIONAL transactions.
//
// -cpuprofile FILE / -memprofile FILE write pprof profiles covering the
// selected experiments. Wall-clock cost itself is measured by
// `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mrdb/internal/bench"
)

func main() {
	// Indirect through run so the profile-writing defers fire before the
	// process exits with the failure code.
	os.Exit(run())
}

func run() int {
	full := flag.Bool("full", false, "run at paper scale (slow)")
	quick := flag.Bool("quick", false, "run at quick scale (the default; explicit for CI invocations)")
	trace := flag.Bool("trace", false, "record spans; write fig3 phase histograms and enforce the commit-wait gate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to FILE")
	memprofile := flag.String("memprofile", "", "write an allocation profile to FILE on exit")
	exportDir := flag.String("export-dir", "", "write OpenMetrics timeseries and Jaeger traces from the elastic scenarios into DIR")
	flag.Parse()

	if *full && *quick {
		fmt.Fprintln(os.Stderr, "mrbench: -full and -quick are mutually exclusive")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: start CPU profile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: write alloc profile: %v\n", err)
			}
		}()
	}
	scale := bench.Quick()
	if *full {
		scale = bench.Full()
	}
	bench.Trace = *trace
	bench.ExportDir = *exportDir
	experiments := flag.Args()
	if len(experiments) > 0 && experiments[0] == "ledger" {
		if err := bench.Ledger(os.Stdout, experiments[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
			return 1
		}
		return 0
	}
	if len(experiments) == 0 {
		experiments = []string{"all"}
	}

	byName := map[string]bench.Experiment{}
	var names []string
	for _, e := range bench.Experiments {
		byName[e.Name] = e
		names = append(names, e.Name)
	}
	var toRun []bench.Experiment
	for _, name := range experiments {
		if name == "all" {
			toRun = append(toRun, bench.Experiments...)
			continue
		}
		e, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", name, names)
			return 2
		}
		toRun = append(toRun, e)
	}
	for _, e := range toRun {
		if err := e.Run(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
	}
	return 0
}
