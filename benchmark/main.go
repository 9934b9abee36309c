// Command benchmark is the repo's performance benchmark: four workloads on
// two clocks — virtual time, which is the paper's result, and host time,
// which is what every run costs — reported end to end and layer by layer.
//
//	go run ./benchmark                         all workloads, all metrics
//	go run ./benchmark -workload tpcc_mix3     one workload
//	go run ./benchmark -compare a.json b.json  verdict per (workload, metric)
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// defaultSeconds is how much window time the timed repetitions of one
// workload accumulate; it equals run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed of every generated input (a repetition run with -rep takes it as is)")
		workload = flag.String("workload", "", "run one workload (default: all four)")
		out      = flag.String("out", "", "write the JSON report here (default benchmark/results/latest.json when every metric is measured)")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments; exit 1 on any regression")
		specPath = flag.String("spec", "BENCHMARK.json", "metric bounds for -compare")
		seconds  = flag.Float64("seconds", defaultSeconds, "window time the timed repetitions accumulate (at least three run regardless)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics; either prints one JSON result object as the last line")
		rep      = flag.String("rep", "", "internal: run one repetition (timed, profiled, traced), the probes or the calibration loop in this process and print its JSON")
	)
	flag.Parse()
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	switch {
	case *rep != "":
		fail(runChild(*rep, *workload, *seed))
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		fail(err)
		if regressed {
			os.Exit(1)
		}
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := runBenchmark(ctx, *seed, *workload, *seconds, *trace, *out, procs)
		stop()
		fail(err)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild is the body of a child process: one repetition or the probes.
func runChild(mode, workload string, seed int64) error {
	var res interface{}
	var err error
	switch mode {
	case "probes":
		res, err = runProbes()
	case "calibrate":
		res = calibrate()
	default:
		spec := findWorkload(workload)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err = runRep(spec, seed, mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// report is the JSON summary of one benchmark run.
type report struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Workloads  []*workloadResult `json:"workloads"`
	// Claim is always null: this benchmark measures, it claims nothing.
	Claim *string `json:"claim"`
}

func runBenchmark(ctx context.Context, seed int64, only string, seconds float64, trace int, out string, procs int) error {
	specs := workloads
	if only != "" {
		spec := findWorkload(only)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		specs = []*workloadSpec{spec}
	}
	if trace >= 0 && len(specs) != 1 {
		return fmt.Errorf("-trace needs -workload")
	}
	layers := trace != 0
	fmt.Printf("mrdb benchmark: seed=%d GOMAXPROCS=%d %s seconds=%g\n", seed, procs, runtime.Version(), seconds)
	rep := &report{Seed: seed, Seconds: seconds, GOMAXPROCS: procs, GoVersion: runtime.Version()}
	progress := func(s string) { fmt.Println("  ..", s) }
	var probes map[string]float64
	if layers {
		var err error
		if probes, err = childProbes(ctx); err != nil {
			return err
		}
		progress(fmt.Sprintf("probes: %d layer functions timed in isolation", len(probes)))
	}
	correct := true
	for _, spec := range specs {
		res, err := runWorkload(ctx, spec, seed, seconds, layers, probes, progress)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(os.Stdout, spec, res)
		correct = correct && res.Correct
	}

	if out == "" && trace < 0 {
		out = filepath.Join("benchmark", "results", "latest.json")
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	if trace >= 0 {
		// The driver's contract: one JSON object as the last line.
		res := rep.Workloads[0]
		metrics := res.EndToEnd
		if trace == 1 {
			metrics = res.PerLayer
		}
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]driverValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]driverValue{}}
		for name, v := range metrics {
			line.Metrics[name] = driverValue{v.Value, v.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Println(`"claim": null`)
	}
	if !correct {
		return fmt.Errorf("correctness gates failed")
	}
	return nil
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
