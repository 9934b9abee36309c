package main

import (
	"sort"
	"strconv"
	"strings"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// Trace analysis. The traced repetition wraps every op in a "bench.op" root
// span (recorded from this package, around the call into the SQL layer);
// everything the program records below it — sql.exec, txn.*, ds.*, net.rpc,
// replica.eval, the waits, raft.replicate — hangs off that root. A layer's
// self time is its spans' duration minus the part their children cover, so
// along a sequential path the self times of one op sum to its latency;
// parallel fan-out (batches to several ranges) makes the sum exceed it.

// traceLayers are the rows of the self-time table, in path order.
var traceLayers = []string{
	"sql", "txn", "txn.commitwait", "kv.ds", "simnet.flight", "kv.eval",
	"kv.latch_wait", "kv.closedts_wait", "kv.intent_wait", "raft.replicate", "other",
}

// layerOfSpan maps a span name onto a row of the self-time table.
func layerOfSpan(name string) string {
	switch {
	case name == "bench.op":
		return "other" // the benchmark's wrapper: zero virtual time of its own
	case strings.HasPrefix(name, "sql."):
		return "sql"
	case name == "txn.commitwait":
		return "txn.commitwait"
	case strings.HasPrefix(name, "txn."):
		return "txn"
	case strings.HasPrefix(name, "ds."):
		return "kv.ds"
	case name == "net.rpc":
		return "simnet.flight"
	case name == "replica.eval":
		return "kv.eval"
	case name == "latch.wait":
		return "kv.latch_wait"
	case name == "closedts.wait":
		return "kv.closedts_wait"
	case name == "intent.wait":
		return "kv.intent_wait"
	case name == "raft.replicate":
		return "raft.replicate"
	}
	return "other"
}

// interval is one span reduced to what self-time needs.
type interval struct {
	id, parent int64
	start, end int64
}

// selfTimes returns, per interval, its duration minus the union of its
// children's intervals, with everything clipped to [lo, hi] (the root's
// extent: asynchronous work that outlives the op is not on its latency
// path). Overlapping (parallel) children are counted once.
func selfTimes(spans []interval, lo, hi int64) []int64 {
	clip := func(s, e int64) (int64, int64) {
		s, e = max(s, lo), min(e, hi)
		if e < s {
			e = s
		}
		return s, e
	}
	children := map[int64][]int{}
	for i, sp := range spans {
		children[sp.parent] = append(children[sp.parent], i)
	}
	out := make([]int64, len(spans))
	for i, sp := range spans {
		s, e := clip(sp.start, sp.end)
		kids := children[sp.id]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			if k == i {
				continue
			}
			ks, ke := clip(spans[k].start, spans[k].end)
			ks, ke = max(ks, s), min(ke, e)
			if ke > ks {
				ivs = append(ivs, [2]int64{ks, ke})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, upto := int64(0), s
		for _, iv := range ivs {
			if iv[1] <= upto {
				continue
			}
			covered += iv[1] - max(iv[0], upto)
			upto = iv[1]
		}
		out[i] = (e - s) - covered
	}
	return out
}

// classTrace is the self-time table of one latency class.
type classTrace struct {
	Ops           int                `json:"ops"`
	MeanLatencyMs float64            `json:"mean_latency_ms"`
	SelfMsPerOp   map[string]float64 `json:"self_ms_per_op"`
}

// traceReport is what the traced repetition contributes.
type traceReport struct {
	Ops          int                    `json:"ops"`
	Spans        int                    `json:"spans"`
	SelfMsPerOp  map[string]float64     `json:"self_ms_per_op"`
	PerClass     [numClasses]classTrace `json:"per_class"`
	Replications int                    `json:"replications"`
	WANQuorums   int                    `json:"wan_quorums"`
	// CommitWaitMs is the summed (unclipped) duration of txn.commitwait
	// spans, cross-checked against the coordinators' CommitWaitTotal.
	CommitWaitMs float64 `json:"commit_wait_ms"`
}

// analyzeTraces folds the bench.op traces that started inside the window
// into per-layer self times and counts. perOp is the number of ops
// attempted (the denominator of every per-op figure).
func analyzeTraces(traces []*obs.Trace, windowOpen sim.Time, perOp int) *traceReport {
	rep := &traceReport{Ops: perOp, SelfMsPerOp: map[string]float64{}}
	for k := range rep.PerClass {
		rep.PerClass[k].SelfMsPerOp = map[string]float64{}
	}
	total := map[string]int64{}
	var classTotal [numClasses]map[string]int64
	var classLatency [numClasses]int64
	for k := range classTotal {
		classTotal[k] = map[string]int64{}
	}
	var commitWait int64
	for _, tr := range traces {
		root := tr.Root()
		if root == nil || root.Name != "bench.op" || root.Start < windowOpen {
			continue
		}
		k := classRead
		if v, _ := root.Tag("class"); v == classWrite.String() {
			k = classWrite
		}
		rep.PerClass[k].Ops++
		classLatency[k] += int64(root.Duration())
		rep.Spans += len(tr.Spans)
		ivs := make([]interval, len(tr.Spans))
		for i, sp := range tr.Spans {
			end := int64(sp.End)
			if sp.End == 0 {
				end = int64(root.End)
			}
			ivs[i] = interval{id: int64(sp.Context.Span), parent: int64(sp.Parent), start: int64(sp.Start), end: end}
			switch sp.Name {
			case "txn.commitwait":
				commitWait += int64(sp.Duration())
			case "raft.replicate":
				rep.Replications++
				if v, ok := sp.Tag("wan_acks"); ok {
					if n, _ := strconv.Atoi(v); n > 0 {
						rep.WANQuorums++
					}
				}
			}
		}
		for i, self := range selfTimes(ivs, int64(root.Start), int64(root.End)) {
			layer := layerOfSpan(tr.Spans[i].Name)
			total[layer] += self
			classTotal[k][layer] += self
		}
	}
	toMs := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(sim.Duration(ns)) / float64(n)
	}
	for _, layer := range traceLayers {
		rep.SelfMsPerOp[layer] = toMs(total[layer], perOp)
		for k := range rep.PerClass {
			rep.PerClass[k].SelfMsPerOp[layer] = toMs(classTotal[k][layer], rep.PerClass[k].Ops)
		}
	}
	for k := range rep.PerClass {
		rep.PerClass[k].MeanLatencyMs = toMs(classLatency[k], rep.PerClass[k].Ops)
	}
	rep.CommitWaitMs = ms(sim.Duration(commitWait))
	return rep
}
