package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mrdb/internal/cluster"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/workload"
)

// Trace enables span recording during Fig 3 runs. The collected traces are
// aggregated into per-phase latency histograms written under TraceDir, and
// the commit-wait gate turns protocol regressions into hard errors: only
// GLOBAL tables may commit-wait. Tracing is passive over virtual time, so
// the reported latencies are identical with it on or off.
var Trace bool

// TraceDir is where Trace output lands.
var TraceDir = "results"

// commitWaitGate is the longest commit-wait tolerated on a non-GLOBAL
// table. Clock skew alone can force a wait bounded by the actual skew
// spread (2ms by default); GLOBAL transactions wait hundreds of
// milliseconds by design. 10ms cleanly separates the two.
const commitWaitGate = 10 * sim.Millisecond

// fig3Run executes the §7.1 workload (YCSB-A, zipf, 5 regions, us-east1
// primary) against one table configuration and returns the workload with
// its recorders, plus the cluster for trace inspection.
func fig3Run(seed int64, maxOffset sim.Duration, scale Scale, locality string, stale bool, dupIndexes bool) (*workload.YCSB, *cluster.Cluster, error) {
	c := paperCluster(seed, maxOffset, Trace)
	catalog := sql.NewCatalog()
	cfg := workload.YCSBConfig{
		Variant:          workload.YCSBA,
		RecordCount:      scale.RecordCount,
		Distribution:     "zipfian",
		OpsPerClient:     scale.OpsPerClient,
		ClientsPerRegion: scale.ClientsPerRegion,
		StaleReads:       stale,
	}
	if dupIndexes {
		cfg.SchemaSQL = "CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, field0 STRING) WITH DUPLICATE INDEXES"
	}
	y := workload.NewYCSB(c, catalog, cfg)
	err := runSim(c, 12*3600*sim.Second, func(p *sim.Proc) error {
		if err := y.SetupSchema(p, locality); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		if err := y.Load(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		return y.Run(p)
	})
	return y, c, err
}

// tracePhases aggregates span durations by span name for one Fig 3 variant
// and reports the longest commit-wait seen, so the caller can apply the
// non-GLOBAL gate.
func tracePhases(w io.Writer, name string, c *cluster.Cluster) sim.Duration {
	reg := obs.NewRegistry()
	var maxWait sim.Duration
	for _, tr := range c.Tracer.Traces() {
		for _, sp := range tr.Spans {
			reg.Histogram(sp.Name).RecordDuration(sp.Duration())
			if sp.Name == "txn.commitwait" && sp.Duration() > maxWait {
				maxWait = sp.Duration()
			}
		}
	}
	fmt.Fprintf(w, "\n%s:\n", name)
	for _, n := range reg.Histograms() {
		fmt.Fprintf(w, "  %-18s %s\n", n, reg.Histogram(n).Summary())
	}
	return maxWait
}

// Fig3 reproduces paper Figure 3: transaction latency for REGIONAL and
// GLOBAL tables, from the PRIMARY region and from non-PRIMARY regions,
// with max_clock_offset = 250ms.
func Fig3(w io.Writer, scale Scale) error {
	header(w, "Figure 3: transaction latency for REGIONAL and GLOBAL tables (max_clock_offset=250ms)")
	type variant struct {
		name     string
		locality string
		stale    bool
	}
	variants := []variant{
		{"Global", "LOCALITY GLOBAL", false},
		{"Regional (Latest)", "LOCALITY REGIONAL BY TABLE IN PRIMARY REGION", false},
		{"Regional (Stale)", "LOCALITY REGIONAL BY TABLE IN PRIMARY REGION", true},
	}
	primary := simnet.USEast1
	var phases strings.Builder
	var gateErr error
	for i, v := range variants {
		y, c, err := fig3Run(100+int64(i), 250*sim.Millisecond, scale, v.locality, v.stale, false)
		if err != nil {
			return fmt.Errorf("fig3 %s: %w", v.name, err)
		}
		if Trace {
			maxWait := tracePhases(&phases, v.name, c)
			if !strings.Contains(v.locality, "GLOBAL") && maxWait > commitWaitGate && gateErr == nil {
				gateErr = fmt.Errorf("fig3 %s: commit-wait of %v on a non-GLOBAL table (gate %v): only GLOBAL tables may commit-wait",
					v.name, maxWait, commitWaitGate)
			}
		}
		fmt.Fprintf(w, "\n%s:\n", v.name)
		isPrimary := func(r simnet.Region) bool { return r == primary }
		notPrimary := func(r simnet.Region) bool { return r != primary }
		boxRow(w, "read  / primary region", mergeRecorders("", y.ReadLat, isPrimary))
		boxRow(w, "read  / non-primary", mergeRecorders("", y.ReadLat, notPrimary))
		if !v.stale {
			boxRow(w, "write / primary region", mergeRecorders("", y.WriteLat, isPrimary))
			boxRow(w, "write / non-primary", mergeRecorders("", y.WriteLat, notPrimary))
		} else {
			boxRow(w, "write / primary region (fresh)", mergeRecorders("", y.WriteLat, isPrimary))
			boxRow(w, "write / non-primary (fresh)", mergeRecorders("", y.WriteLat, notPrimary))
		}
	}
	fmt.Fprintln(w, `
Expected shape (paper): GLOBAL reads < 3ms everywhere, GLOBAL writes
500-600ms; REGIONAL reads/writes < 3ms from the primary region and
100-200ms remote; stale remote reads < 3ms.`)
	if Trace {
		if err := os.MkdirAll(TraceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(TraceDir, "fig3_phases.txt")
		if err := os.WriteFile(path, []byte(phases.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nper-phase span histograms written to %s\n", path)
	}
	return gateErr
}
