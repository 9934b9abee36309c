// Command mrchaos runs the deterministic chaos (nemesis) harness against a
// simulated three-region cluster: randomized crashes, region failures,
// partitions, and slow links are injected while the load-based allocator and
// a replica migrator reshape the cluster, bank-transfer and linearizability
// workloads verify invariants, and a prober measures virtual-time recovery.
// Every run has all of it; -faults 0 is the same run without the nemesis.
//
// Usage:
//
//	mrchaos -seed 42 -faults 25 -v
//	mrchaos -seed 42 -verify   # run twice, check schedules match
//	mrchaos -seed 42 -export-dir out  # write OpenMetrics + Jaeger artifacts
//
// -cpuprofile FILE / -memprofile FILE write pprof profiles covering the
// whole run (including the -verify replay), for profiling the simulator
// under fault injection.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mrdb/internal/chaos"
)

func main() {
	// Indirect through run so the profile-writing defers fire before the
	// process exits with the failure code.
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "simulation seed (same seed => same run)")
	faults := flag.Int("faults", 10, "number of fault/heal pairs to inject")
	verbose := flag.Bool("v", false, "print events as they are injected")
	verify := flag.Bool("verify", false, "run twice and verify determinism")
	exportDir := flag.String("export-dir", "", "write OpenMetrics timeseries and Jaeger traces into DIR after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole run to FILE")
	memprofile := flag.String("memprofile", "", "write an allocation profile to FILE on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: start CPU profile: %v\n", err)
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
				fmt.Fprintf(os.Stderr, "mrchaos: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mrchaos: write alloc profile: %v\n", err)
			}
		}()
	}

	opts := chaos.Options{
		Seed:      *seed,
		Faults:    *faults,
		ExportDir: *exportDir,
		Verbose:   *verbose,
	}
	rep, err := chaos.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrchaos: %v\n", err)
		return 1
	}
	fmt.Print(rep)

	if *verify {
		opts.Verbose = false
		// The export artifacts came from the first run; don't overwrite them
		// (byte-identity of same-seed exports has its own test coverage).
		opts.ExportDir = ""
		rep2, err := chaos.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrchaos: second run: %v\n", err)
			return 1
		}
		if rep.SpanHash != rep2.SpanHash {
			fmt.Fprintf(os.Stderr, "mrchaos: DETERMINISM VIOLATION: span-tree hashes differ (%016x vs %016x)\n",
				rep.SpanHash, rep2.SpanHash)
			return 1
		}
		if rep.Schedule() != rep2.Schedule() || rep.String() != rep2.String() {
			fmt.Fprintln(os.Stderr, "mrchaos: DETERMINISM VIOLATION: runs differ")
			return 1
		}
		fmt.Println("determinism verified: second run identical (schedule, report, span hash)")
	}
	if !rep.OK() {
		fmt.Fprintln(os.Stderr, "mrchaos: invariants violated")
		return 1
	}
	return 0
}
