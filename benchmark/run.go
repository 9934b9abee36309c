package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"

	"mrdb/internal/sim"
)

// Every repetition runs in a child process of its own (this binary with
// -rep): a stopped simulation leaves its parked goroutines — and through
// them the whole cluster — reachable, so repetitions sharing a process
// would each inherit the previous one's heap and GC cost.
//
// Timed repetition i of a run draws its inputs from repSeed(seed, i): every
// reported number is then a median over inputs as well as over host noise,
// which is what keeps it steady from one -seed to the next. The profiled
// and the traced repetition reuse repSeed(seed, 0), so three repetitions of
// every full run share inputs and must agree to the last digit.

// minTimedReps is the fewest timed repetitions a run reports a median of.
const minTimedReps = 3

// workloadResult is one workload's aggregated report.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Reps      int                    `json:"timed_reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	SampleN   [numClasses]int        `json:"class_n"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// HostSpeed is the median over the timed repetitions of reference
	// speed / measured speed of the calibration loop (1 = the reference
	// box); setup_s and wall_us_per_op are already scaled by it.
	HostSpeed float64 `json:"host_speed"`
	// Trace is the traced repetition's per-class self-time table.
	Trace *traceReport `json:"trace,omitempty"`
}

// child runs this binary with -rep and decodes the JSON it prints. The
// child is killed if ctx ends first (the benchmark was interrupted).
func child(ctx context.Context, out interface{}, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%v: decoding result: %w", args, err)
	}
	return nil
}

// repSeed derives the input seed of the i-th timed repetition.
func repSeed(seed int64, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "rep/%d/%d", seed, i)
	return int64(h.Sum64() >> 1)
}

func childRep(ctx context.Context, workload string, seed int64, mode string) (*repResult, error) {
	var r repResult
	err := child(ctx, &r, "-rep", mode, "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	return &r, err
}

func childCalibrate(ctx context.Context) (float64, error) {
	var ns float64
	err := child(ctx, &ns, "-rep", "calibrate")
	return ns, err
}

func childProbes(ctx context.Context) (map[string]float64, error) {
	var m map[string]float64
	err := child(ctx, &m, "-rep", "probes")
	return m, err
}

// runWorkload runs one workload: as many timed repetitions as seconds asks
// for and, when layers is set, the profiled and the traced repetition.
// probes may be nil.
func runWorkload(ctx context.Context, spec *workloadSpec, seed int64, seconds float64, layers bool, probes map[string]float64, progress func(string)) (*workloadResult, error) {
	// Each repetition is bracketed by the reference loop; its host speed is
	// the mean of the one before and the one after.
	ref, err := childCalibrate(ctx)
	if err != nil {
		return nil, err
	}
	rep := func(i int, mode string) (*repResult, error) {
		r, err := childRep(ctx, spec.Name, repSeed(seed, i), mode)
		if err != nil {
			return nil, err
		}
		after, err := childCalibrate(ctx)
		if err != nil {
			return nil, err
		}
		r.HostSpeed = float64(referenceNominal) / ((ref + after) / 2)
		ref = after
		progress(fmt.Sprintf("%s %s: window %.2fs wall, setup %.2fs, host speed %.2f", spec.Name, mode, r.WindowWallS, r.SetupS, r.HostSpeed))
		return r, nil
	}
	timed := make([]*repResult, spec.timedReps(seconds))
	for i := range timed {
		if timed[i], err = rep(i, modeTimed); err != nil {
			return nil, err
		}
	}
	var profiled, traced *repResult
	if layers {
		if profiled, err = rep(0, modeProfiled); err != nil {
			return nil, err
		}
		if traced, err = rep(0, modeTraced); err != nil {
			return nil, err
		}
	}
	return aggregate(seed, timed, profiled, traced, probes), nil
}

// summary builds a metricValue over per-repetition values.
func summary(unit string, vals []float64) metricValue {
	v := metricValue{Value: median(vals), Unit: unit, Min: slices.Min(vals), Max: slices.Max(vals)}
	if v.Value != 0 {
		v.Spread = (v.Max - v.Min) / v.Value
	}
	return v
}

func exact(unit string, v float64) metricValue {
	return metricValue{Value: v, Unit: unit, Min: v, Max: v}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// aggregate folds the repetitions of one workload into its report and runs
// the correctness gates.
func aggregate(seed int64, timed []*repResult, profiled, traced *repResult, probes map[string]float64) *workloadResult {
	first := timed[0]
	ops := float64(first.Attempted)
	res := &workloadResult{
		Workload: first.Workload, Seed: seed, Reps: len(timed),
		EndToEnd: map[string]metricValue{},
	}
	for _, r := range timed {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	for k := range first.Classes {
		res.SampleN[k] = first.Classes[k].N
	}
	all := append([]*repResult(nil), timed...)
	if profiled != nil {
		all = append(all, profiled, traced)
	}
	res.Problems = gates(all)
	res.Correct = len(res.Problems) == 0

	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	col := func(f func(*repResult) float64) []float64 {
		vals := make([]float64, len(timed))
		for i, r := range timed {
			vals[i] = f(r)
		}
		return vals
	}
	e2e := func(name string, v metricValue) { res.EndToEnd[name] = v }
	// The two wall-clock metrics are stated at the reference host speed.
	e2e("setup_s", summary(units["setup_s"], col(func(r *repResult) float64 { return r.SetupS * r.HostSpeed })))
	wall := summary(units["wall_us_per_op"], col(func(r *repResult) float64 { return r.WindowWallS * r.HostSpeed * 1e6 / ops }))
	res.HostSpeed = median(col(func(r *repResult) float64 { return r.HostSpeed }))
	e2e("wall_us_per_op", wall)
	e2e("allocs_per_op", summary(units["allocs_per_op"], col(func(r *repResult) float64 { return float64(r.Mallocs) / ops })))
	e2e("live_heap_mb", summary(units["live_heap_mb"], col(func(r *repResult) float64 { return r.LiveHeapMB })))
	e2e("virt_ops_per_s", summary(units["virt_ops_per_s"], col(func(r *repResult) float64 { return r.VirtOpsPerS })))
	e2e("read_p50_ms", summary("ms", col(func(r *repResult) float64 { return r.Classes[classRead].P50Ms })))
	e2e("read_p99_ms", summary("ms", col(func(r *repResult) float64 { return r.Classes[classRead].P99Ms })))
	e2e("write_p50_ms", summary("ms", col(func(r *repResult) float64 { return r.Classes[classWrite].P50Ms })))
	e2e("write_p99_ms", summary("ms", col(func(r *repResult) float64 { return r.Classes[classWrite].P99Ms })))
	e2e("max_stall_ms", summary("ms", col(func(r *repResult) float64 { return r.MaxStallMs })))
	e2e("ok_frac", exact(units["ok_frac"], 1-float64(res.Failed)/float64(res.Attempted)))
	if profiled == nil {
		return res
	}

	res.PerLayer = map[string]metricValue{}
	res.Trace = traced.Trace
	put := func(name string, v float64) { res.PerLayer[name] = exact(units[name], v) }
	c := first.Counters
	per := func(key string) float64 { return float64(c[key]) / ops }
	perMs := func(key string) float64 { return float64(c[key]) / 1e6 / ops }
	// [run]
	put("sim.events_per_op", per("sim.events"))
	put("sim.events_per_virt_s", float64(c["sim.events"])/first.WindowVirtS)
	put("simnet.msgs_per_op", per("simnet.msgs"))
	put("simnet.bytes_per_op", per("simnet.bytes"))
	put("simnet.wan_rpcs_per_op", per("simnet.wan_rpcs"))
	put("storage.fsyncs_per_op", per("storage.fsyncs"))
	put("storage.wal_bytes_per_op", per("storage.bytes"))
	put("storage.appends_per_fsync", ratio(c["storage.appends"], c["storage.fsyncs"]))
	put("kv.rpcs_per_op", per("kv.sent"))
	put("kv.batch_reqs_mean", ratio(c["kv.batched_reqs"], c["kv.batches"]))
	put("kv.redirects_per_op", per("kv.redirects"))
	put("kv.retry_frac", ratio(c["kv.retries"], c["kv.sent"]))
	put("kv.backoff_ms_per_op", perMs("kv.backoff_ns"))
	put("kv.follower_reads_per_op", per("kv.follower_reads"))
	put("kv.follower_miss_frac", ratio(c["kv.follower_misses"], c["kv.follower_reads"]+c["kv.follower_misses"]))
	put("kv.lease_acquisitions", float64(c["kv.lease_acquisitions"]))
	put("kv.epoch_bumps", float64(c["kv.epoch_bumps"]))
	put("kv.recovery_ms", float64(c["kv.recovery_ns"])/1e6)
	put("kv.replayed_entries", float64(c["kv.replayed_entries"]))
	put("kv.splits", float64(c["kv.splits"]))
	put("kv.lease_moves", float64(c["kv.lease_moves"]))
	put("txn.restarts_per_op", per("txn.restarts"))
	put("txn.abort_frac", ratio(c["txn.aborted"], c["txn.begun"]))
	put("txn.commit_wait_ms_per_op", perMs("txn.commit_wait_ns"))
	put("sql.stmts_per_op", per("sql.stmts"))
	put("sql.plan_cache_hit_frac", ratio(c["sql.plan_hits"], c["sql.plan_hits"]+c["sql.plan_misses"]))
	res.PerLayer["host.gc_cycles_per_kop"] = summary(units["host.gc_cycles_per_kop"],
		col(func(r *repResult) float64 { return float64(r.GCCycles) * 1000 / ops }))
	put("host.rep_spread", wall.Spread)
	// [trace]
	tr := traced.Trace
	put("simnet.flight_ms_per_op", tr.SelfMsPerOp["simnet.flight"])
	put("raft.replications_per_op", float64(tr.Replications)/ops)
	put("raft.wan_quorums_per_op", float64(tr.WANQuorums)/ops)
	put("raft.replicate_ms_per_op", tr.SelfMsPerOp["raft.replicate"])
	put("kv.closedts_wait_ms_per_op", tr.SelfMsPerOp["kv.closedts_wait"])
	put("kv.latch_wait_ms_per_op", tr.SelfMsPerOp["kv.latch_wait"])
	put("kv.intent_wait_ms_per_op", tr.SelfMsPerOp["kv.intent_wait"])
	put("kv.eval_ms_per_op", tr.SelfMsPerOp["kv.eval"])
	put("kv.ds_self_ms_per_op", tr.SelfMsPerOp["kv.ds"])
	put("txn.self_ms_per_op", tr.SelfMsPerOp["txn"])
	put("sql.self_ms_per_op", tr.SelfMsPerOp["sql"])
	put("obs.spans_per_op", float64(tr.Spans)/ops)
	// Same inputs, tracing on / off.
	put("obs.trace_overhead_ratio", traced.WindowWallS*traced.HostSpeed/(first.WindowWallS*first.HostSpeed))
	// [prof]
	for _, l := range hostLayers {
		put("host_share."+l, profiled.HostShare[l])
	}
	// [probe]
	for _, name := range probeNames() {
		put(name, probes[name])
	}
	return res
}

// gates checks what must hold of every repetition of one workload —
// repetitions that share a seed must agree exactly — and returns the
// violations.
func gates(reps []*repResult) []string {
	var problems []string
	bad := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	firstOf := map[int64]*repResult{}
	for i, r := range reps {
		tag := fmt.Sprintf("rep %d (%s, seed %d)", i+1, r.Mode, r.Seed)
		if first, ok := firstOf[r.Seed]; !ok {
			firstOf[r.Seed] = r
		} else {
			if r.InputDigest != first.InputDigest {
				bad("%s: generated inputs differ from the %s rep of the same seed (digest %x vs %x)", tag, first.Mode, r.InputDigest, first.InputDigest)
			}
			if r.VirtualHash != first.VirtualHash {
				bad("%s: virtual digest %x differs from the %s rep's %x: same seed, different run", tag, r.VirtualHash, first.Mode, first.VirtualHash)
			}
			for _, k := range sim.SortedKeys(first.Counters) {
				if r.Counters[k] != first.Counters[k] {
					bad("%s: counter %s = %d, the %s rep had %d", tag, k, r.Counters[k], first.Mode, first.Counters[k])
				}
			}
		}
		if r.ApplyErrors != 0 {
			bad("%s: %d command application errors", tag, r.ApplyErrors)
		}
		if r.VerifyError != "" {
			bad("%s: %s", tag, r.VerifyError)
		}
		for k, cs := range r.Classes {
			if !cs.P99OK {
				bad("%s: %s class has %d samples: p99 needs ten beyond it", tag, class(k), cs.N)
			}
		}
		if r.Mode == modeTraced && r.Trace != nil {
			run := float64(r.Counters["txn.commit_wait_ns"]) / 1e6
			if diff := math.Abs(r.Trace.CommitWaitMs - run); diff > 0.01*math.Max(run, r.Trace.CommitWaitMs) {
				bad("%s: commit wait from spans %.3fms, from coordinators %.3fms: more than 1%% apart", tag, r.Trace.CommitWaitMs, run)
			}
		}
	}
	return problems
}
