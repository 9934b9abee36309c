package main

import (
	"fmt"
	"io"
)

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(w io.Writer, spec *workloadSpec, res *workloadResult) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %d timed repetitions)\n", res.Workload, res.Seed, res.Reps)
	fmt.Fprintf(w, "   %s\n", spec.Why)
	fmt.Fprintf(w, "   samples per repetition: read n=%d, write n=%d; failed %d of %d attempted over the timed repetitions\n",
		res.SampleN[classRead], res.SampleN[classWrite], res.Failed, res.Attempted)
	fmt.Fprintf(w, "   host speed %.3f of the reference box (setup_s and wall_us_per_op are stated at reference speed)\n", res.HostSpeed)
	fmt.Fprintln(w, "   end to end:")
	for _, m := range endToEnd {
		printMetric(w, m, res.EndToEnd[m.Name])
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, "   per layer:")
		for _, m := range perLayer {
			printMetric(w, m, res.PerLayer[m.Name])
		}
	}
	if t := res.Trace; t != nil {
		fmt.Fprintln(w, "   virtual self time per op by layer (traced repetition), beside the class's mean latency:")
		fmt.Fprintf(w, "     %-18s %14s %14s\n", "layer", "read ms/op", "write ms/op")
		var sum [numClasses]float64
		for _, layer := range traceLayers {
			r, wr := t.PerClass[classRead].SelfMsPerOp[layer], t.PerClass[classWrite].SelfMsPerOp[layer]
			sum[classRead] += r
			sum[classWrite] += wr
			fmt.Fprintf(w, "     %-18s %14.4f %14.4f\n", layer, r, wr)
		}
		fmt.Fprintf(w, "     %-18s %14.4f %14.4f\n", "sum of self times", sum[classRead], sum[classWrite])
		fmt.Fprintf(w, "     %-18s %14.4f %14.4f   (n=%d, %d; issue to completion)\n", "mean latency",
			t.PerClass[classRead].MeanLatencyMs, t.PerClass[classWrite].MeanLatencyMs,
			t.PerClass[classRead].Ops, t.PerClass[classWrite].Ops)
	}
	if res.Correct {
		fmt.Fprintln(w, "   correctness gates: pass")
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   GATE FAILED: %s\n", p)
	}
	if v, ok := res.PerLayer["host_share.benchmark"]; ok && v.Value >= 0.10 {
		fmt.Fprintf(w, "   warning: the driver itself took %.0f%% of the CPU samples\n", 100*v.Value)
	}
}

func printMetric(w io.Writer, m metricDef, v metricValue) {
	tag := m.Clock
	if m.Source != "" {
		tag = m.Source
	}
	fmt.Fprintf(w, "     %-28s %16.6g %-11s [%s]", m.Name, v.Value, m.Unit, tag)
	if v.Min != v.Max {
		fmt.Fprintf(w, "  min %.6g max %.6g", v.Min, v.Max)
	}
	fmt.Fprintln(w)
}
