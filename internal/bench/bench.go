// Package bench reproduces every table and figure of the paper's
// evaluation (§7) on the simulated cluster. Each experiment builds its own
// cluster, runs the workload in virtual time, and renders the same rows or
// series the paper reports. Scale.Quick keeps runs small enough for
// `go test -bench`; Scale.Full approaches the paper's operation counts.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/workload"
)

// Scale selects experiment sizes.
type Scale struct {
	// RecordCount is the YCSB table size (paper: 100k).
	RecordCount int
	// OpsPerClient is the per-client closed-loop op count (paper: 50k).
	OpsPerClient int
	// ClientsPerRegion (paper: 10).
	ClientsPerRegion int
	// TPCCTxnsPerTerminal bounds the TPC-C run length.
	TPCCTxnsPerTerminal int
	// PaperRegions runs Fig. 6 at the paper's 4, 10 and 26 regions instead
	// of 2, 4 and 8.
	PaperRegions bool
}

// Quick returns the laptop-scale configuration used by `go test -bench`.
func Quick() Scale {
	return Scale{RecordCount: 600, OpsPerClient: 40, ClientsPerRegion: 3, TPCCTxnsPerTerminal: 15}
}

// Full returns a configuration close to the paper's (slow: minutes of real
// time per figure).
func Full() Scale {
	return Scale{RecordCount: 100000, OpsPerClient: 2000, ClientsPerRegion: 10, TPCCTxnsPerTerminal: 200, PaperRegions: true}
}

// Experiment is one table, figure, ablation or dynamic scenario of the
// evaluation.
type Experiment struct {
	Name string
	Run  func(w io.Writer, scale Scale) error
}

// Experiments lists every experiment in the order `mrbench all` runs them;
// cmd/mrbench runs them by name and the root bench_test.go as one
// sub-benchmark each.
var Experiments = []Experiment{
	{"table1", func(w io.Writer, _ Scale) error { return Table1(w) }},
	{"table2", func(w io.Writer, _ Scale) error { return Table2(w) }},
	{"fig3", Fig3},
	{"fig4a", Fig4a},
	{"fig4b", Fig4b},
	{"fig4c", Fig4c},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"ablation-commitwait", AblationCommitWait},
	{"ablation-nonvoters", AblationNonVoters},
	{"ablation-survivability", AblationSurvivability},
	{"elastic", Elastic},
}

// ms formats a duration in milliseconds with two decimals.
func ms(d sim.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(sim.Millisecond))
}

// runSim executes fn as the root process of c's simulation and drains it.
func runSim(c *cluster.Cluster, budget sim.Duration, fn func(p *sim.Proc) error) error {
	var err error
	done := false
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		err = fn(p)
		done = true
		// Nothing after the experiment matters: stop rather than drain
		// hours of background heartbeats.
		c.Sim.Stop()
	})
	c.Sim.RunFor(budget)
	if !done && err == nil {
		return fmt.Errorf("bench: experiment did not finish within %v of virtual time", budget)
	}
	if err != nil {
		return err
	}
	if n := c.ApplyErrors(); n != 0 {
		return fmt.Errorf("bench: %d command application errors", n)
	}
	return nil
}

// paperCluster builds the 5-region cluster of §7.1 with the given maximum
// clock offset.
func paperCluster(seed int64, maxOffset sim.Duration) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   cluster.PaperRegions(),
		MaxOffset: maxOffset,
		Jitter:    0.02,
	})
}

// threeRegionCluster builds the 3-region cluster of §7.2.
func threeRegionCluster(seed int64, maxOffset sim.Duration) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: maxOffset,
		Jitter:    0.02,
	})
}

// threeRegionClusterUS builds a 3-region cluster with two nearby US regions
// plus Europe, for the survivability ablation (nearest-region RTT 63ms).
func threeRegionClusterUS(seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Seed: seed,
		Regions: []cluster.RegionSpec{
			{Name: simnet.USEast1, Zones: 3, NodesPerZone: 1},
			{Name: simnet.USWest1, Zones: 3, NodesPerZone: 1},
			{Name: simnet.EuropeW2, Zones: 3, NodesPerZone: 1},
		},
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
	})
}

// boxRow renders one paper-Fig-3 style box plot line.
func boxRow(w io.Writer, label string, r *workload.LatencyRecorder) {
	b := r.Box()
	fmt.Fprintf(w, "  %-34s n=%-6d whiskerLo=%-10s p25=%-10s p50=%-10s p75=%-10s whiskerHi=%-10s\n",
		label, r.Count(), ms(b.WhiskerLo), ms(b.P25), ms(b.P50), ms(b.P75), ms(b.WhiskerHi))
}

// cdfRows renders a compact CDF (selected percentiles) for Fig 5.
func cdfRows(w io.Writer, label string, r *workload.LatencyRecorder) {
	fmt.Fprintf(w, "  %-34s", label)
	for _, q := range []float64{50, 90, 99, 99.9, 100} {
		fmt.Fprintf(w, " p%-5v=%-10s", q, ms(r.Percentile(q)))
	}
	fmt.Fprintf(w, " n=%d errs=%d\n", r.Count(), r.Errors)
}

// mergeRecorders combines recorders from selected regions.
func mergeRecorders(name string, recs map[simnet.Region]*workload.LatencyRecorder, include func(simnet.Region) bool) *workload.LatencyRecorder {
	out := workload.NewLatencyRecorder(name)
	regions := make([]simnet.Region, 0, len(recs))
	for r := range recs {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, r := range regions {
		if include(r) {
			out.Merge(recs[r])
		}
	}
	return out
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// newCatalog returns a fresh SQL catalog for one experiment's cluster.
func newCatalog() *sql.Catalog { return sql.NewCatalog() }
