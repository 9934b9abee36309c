package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the only home of the regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares b against a for one metric. worse is the relative change
// in the metric's worse direction ((b-a)/a for lower-is-better). Each side
// is a median of its timed repetitions (repsA, repsB of them), uncertain by
// about their spread / sqrt(n); a side that uncertain beyond the bound
// cannot resolve a change of that size: the row is unresolved, not
// unchanged.
func verdict(a, b metricValue, repsA, repsB int, better string, bound float64) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread/math.Sqrt(float64(max(repsA, 1))) > bound || b.Spread/math.Sqrt(float64(max(repsB, 1))) > bound:
		v = unresolved
	case worse > bound:
		v = regressed
	case worse < -bound:
		v = improved
	default:
		v = unchanged
	}
	return worse, v
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// reports and returns whether any row regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, spec, a, b), nil
}

func compareReports(w io.Writer, spec *benchSpec, a, b *report) bool {
	byName := func(r *report) map[string]*workloadResult {
		m := map[string]*workloadResult{}
		for _, wl := range r.Workloads {
			m[wl.Workload] = wl
		}
		return m
	}
	wa, wb := byName(a), byName(b)
	anyRegressed := false
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := wa[wl.Name], wb[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-18s not in both reports: skipped\n", wl.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if m.Name == "ok_frac" {
				// Compared as counts: failed of attempted on each side.
				va = exact(m.Unit, 1-float64(ra.Failed)/float64(ra.Attempted))
				vb = exact(m.Unit, 1-float64(rb.Failed)/float64(rb.Attempted))
			}
			worse, v := verdict(va, vb, ra.Reps, rb.Reps, m.Better, m.Bound)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+8.2f%% %6.2f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, v)
		}
	}
	return anyRegressed
}
