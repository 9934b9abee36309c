package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/obs/export"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/workload"
)

// ElasticOut is where Elastic writes its JSON result.
var ElasticOut = "BENCH_elastic.json"

// ExportDir, when non-empty (mrbench -export-dir), makes every elastic
// scenario export its observability state — OpenMetrics timeseries,
// registry dump, Jaeger traces — into that directory, and turns tracing on
// for the benchmark clusters.
var ExportDir = ""

// elasticGate is the re-convergence requirement: after every dynamic event
// the tail-of-phase p50 and p99 must come back to within this factor of the
// pre-shift steady state. Absolute latencies are not gated — only the shape
// of the recovery.
const elasticGate = 1.5

func msf(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// elasticWindow is one point of the latency trajectory.
type elasticWindow struct {
	StartSec float64 `json:"start_sec"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	N        int     `json:"n"`
	Errors   int     `json:"errors"`
}

// elasticEvent is one dynamic event and its measured recovery. Early* is
// the first third of the post-event phase, Tail* the last third: together
// they assert the shape of the curve, not just its endpoint — latency may
// run elevated while the system adapts, and must have come back down by the
// phase's end.
type elasticEvent struct {
	Name       string  `json:"name"`
	AtSec      float64 `json:"at_sec"`
	EarlyP50Ms float64 `json:"early_p50_ms"`
	EarlyP99Ms float64 `json:"early_p99_ms"`
	TailP50Ms  float64 `json:"tail_p50_ms"`
	TailP99Ms  float64 `json:"tail_p99_ms"`
	RatioP50   float64 `json:"ratio_p50"`
	RatioP99   float64 `json:"ratio_p99"`
	// Elevated reports whether the early window's p99 ran above the phase
	// tail's — the transient the adaptation is supposed to burn off.
	Elevated  bool `json:"elevated"`
	Converged bool `json:"converged"`
}

// elasticScenario is one dynamic scenario's full result.
type elasticScenario struct {
	Name          string          `json:"name"`
	BaselineP50Ms float64         `json:"baseline_p50_ms"`
	BaselineP99Ms float64         `json:"baseline_p99_ms"`
	Events        []elasticEvent  `json:"events"`
	Windows       []elasticWindow `json:"windows"`
	LoadSplits    int64           `json:"load_splits"`
	Merges        int64           `json:"merges"`
	LeaseMoves    int64           `json:"lease_moves"`
	RangesFinal   int             `json:"ranges_final"`
	Errors        int             `json:"errors"`
}

// elasticResult is the BENCH_elastic.json schema.
type elasticResult struct {
	Gate      float64           `json:"convergence_gate"`
	Scenarios []elasticScenario `json:"scenarios"`
}

// secf converts a virtual time to seconds.
func secf(t sim.Time) float64 { return float64(t) / float64(sim.Second) }

// trajectory converts a windowed recorder into the JSON trajectory.
func trajectory(wr *workload.WindowedRecorder) ([]elasticWindow, int) {
	var out []elasticWindow
	errs := 0
	for _, idx := range wr.Indices() {
		rec := wr.Window(idx)
		out = append(out, elasticWindow{
			StartSec: float64(idx) * float64(wr.Width) / float64(sim.Second),
			P50Ms:    msf(rec.Percentile(50)),
			P99Ms:    msf(rec.Percentile(99)),
			N:        rec.Count(),
			Errors:   rec.Errors,
		})
		errs += rec.Errors
	}
	return out, errs
}

// phaseTail merges the last third of a phase — the steady state the system
// should have re-converged to by the phase's end.
func phaseTail(wr *workload.WindowedRecorder, start sim.Time, dur sim.Duration) *workload.LatencyRecorder {
	return wr.Between(start.Add(2*dur/3), start.Add(dur))
}

// convergence scores each post-baseline phase against the baseline: the
// early third of the phase captures the transient right after the event,
// the tail third the steady state it must re-converge to.
func convergence(names []string, wr *workload.WindowedRecorder, starts []sim.Time, dur sim.Duration) (float64, float64, []elasticEvent) {
	base := phaseTail(wr, starts[0], dur)
	b50, b99 := base.Percentile(50), base.Percentile(99)
	var events []elasticEvent
	for i, name := range names {
		early := wr.Between(starts[i+1], starts[i+1].Add(dur/3))
		e50, e99 := early.Percentile(50), early.Percentile(99)
		tail := phaseTail(wr, starts[i+1], dur)
		t50, t99 := tail.Percentile(50), tail.Percentile(99)
		r50 := float64(t50) / float64(b50)
		r99 := float64(t99) / float64(b99)
		events = append(events, elasticEvent{
			Name: name, AtSec: secf(starts[i+1]),
			EarlyP50Ms: msf(e50), EarlyP99Ms: msf(e99),
			TailP50Ms: msf(t50), TailP99Ms: msf(t99),
			RatioP50: r50, RatioP99: r99,
			Elevated:  e99 > t99,
			Converged: t50 > 0 && r50 <= elasticGate && r99 <= elasticGate,
		})
	}
	return msf(b50), msf(b99), events
}

// elasticCluster builds a 3-region cluster with the load-based allocator on.
// Sampling is always on (the trajectory is the experiment); tracing only
// when an export was requested, since traces are the one observability
// layer with real memory weight.
func elasticCluster(seed int64, lc kv.LoadConfig) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Seed:         seed,
		Regions:      cluster.ThreeRegions(),
		MaxOffset:    250 * sim.Millisecond,
		Jitter:       0.02,
		LoadBased:    true,
		Load:         lc,
		Tracing:      ExportDir != "",
		Sampling:     true,
		SampleBucket: 5 * sim.Second,
	})
}

// exportScenario writes one scenario's observability state into ExportDir
// (no-op when unset): elastic_<name>_{metrics.prom,registry.prom,traces.json}.
func exportScenario(c *cluster.Cluster, name string) error {
	if ExportDir == "" {
		return nil
	}
	return export.WriteDir(ExportDir, "elastic_"+name+"_", c.TSDB, c.Metrics, c.Tracer.Traces())
}

// elasticFollowTheSun runs scenario (a): MovR traffic whose dominant region
// rotates us-east → europe → asia. The REGIONAL BY ROW schema keeps each
// region's traffic local, so the hot region's latency must return to the
// pre-shift shape after every rotation while the load queue absorbs the
// shifted mix.
func elasticFollowTheSun(phaseDur sim.Duration, window sim.Duration) (*elasticScenario, error) {
	c := elasticCluster(801, kv.LoadConfig{})
	catalog := newCatalog()
	m := workload.NewMovr(c, catalog)
	fts := workload.NewFollowTheSun(m, window)
	fts.Think = 1 * sim.Second
	phases := []workload.SunPhase{
		{Hot: simnet.USEast1, Duration: phaseDur},
		{Hot: simnet.EuropeW2, Duration: phaseDur},
		{Hot: simnet.AsiaNE1, Duration: phaseDur},
	}
	err := runSim(c, 6*3600*sim.Second, func(p *sim.Proc) error {
		if err := m.Setup(p); err != nil {
			return err
		}
		if err := m.Load(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		return fts.Run(p, phases)
	})
	if err != nil {
		return nil, err
	}
	out := &elasticScenario{Name: "follow-the-sun"}
	out.Windows, out.Errors = trajectory(fts.Windows)
	out.BaselineP50Ms, out.BaselineP99Ms, out.Events = convergence(
		[]string{"shift-to-europe", "shift-to-asia"}, fts.HotWindows, fts.PhaseStarts, phaseDur)
	out.LoadSplits, out.Merges = c.Admin.LoadSplits, c.Admin.Merges
	out.LeaseMoves = c.Admin.LeaseMoves
	out.RangesFinal = len(c.Catalog.All())
	return out, exportScenario(c, out.Name)
}

// elasticHotspot runs scenario (b): a migrating YCSB hotspot. 90% of the
// operations land in a key window that jumps each phase; the load queue must
// split the hot window out (load_splits > 0) and merge the abandoned cold
// remnants back (merges > 0) while the latency shape stays converged.
func elasticHotspot(scale Scale, phaseDur sim.Duration, window sim.Duration) (*elasticScenario, error) {
	c := elasticCluster(802, kv.LoadConfig{
		Interval:   10 * sim.Second,
		HalfLife:   20 * sim.Second,
		SplitQPS:   3,
		MergeQPS:   0.8,
		MergeTicks: 2,
	})
	catalog := newCatalog()
	y := workload.NewYCSB(c, catalog, workload.YCSBConfig{
		RecordCount:  scale.RecordCount,
		Distribution: "uniform",
	})
	hs := workload.NewMigratingHotspot(y, window)
	hs.ClientsPerRegion = 3
	hs.Think = 300 * sim.Millisecond
	hs.Regions = []simnet.Region{simnet.USEast1}
	n := scale.RecordCount
	phases := []workload.HotspotPhase{
		{Start: 0, Duration: phaseDur},
		{Start: n / 2, Duration: phaseDur},
		{Start: n / 4, Duration: phaseDur},
	}
	err := runSim(c, 6*3600*sim.Second, func(p *sim.Proc) error {
		if err := y.SetupSchema(p, "LOCALITY REGIONAL BY TABLE"); err != nil {
			return err
		}
		if err := y.Load(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		return hs.Run(p, phases)
	})
	if err != nil {
		return nil, err
	}
	out := &elasticScenario{Name: "migrating-hotspot"}
	out.Windows, out.Errors = trajectory(hs.Windows)
	out.BaselineP50Ms, out.BaselineP99Ms, out.Events = convergence(
		[]string{"hotspot-jump-1", "hotspot-jump-2"}, hs.Windows, hs.PhaseStarts, phaseDur)
	out.LoadSplits, out.Merges = c.Admin.LoadSplits, c.Admin.Merges
	out.LeaseMoves = c.Admin.LeaseMoves
	out.RangesFinal = len(c.Catalog.All())
	if out.LoadSplits == 0 {
		return out, fmt.Errorf("elastic: hotspot produced no load-based splits")
	}
	if out.Merges == 0 {
		return out, fmt.Errorf("elastic: cold remnants were never merged back")
	}
	return out, exportScenario(c, out.Name)
}

// elasticRegionAdd runs scenario (c): MovR over a two-region database while
// the third region's nodes idle, then ALTER DATABASE ... ADD REGION (and
// later DROP REGION) fire mid-benchmark. The live replica migrations must
// not knock the running traffic's latency shape out of the gate.
func elasticRegionAdd(phaseDur sim.Duration, window sim.Duration) (*elasticScenario, error) {
	c := elasticCluster(803, kv.LoadConfig{})
	catalog := newCatalog()
	m := workload.NewMovr(c, catalog)
	m.SetRegions([]simnet.Region{simnet.USEast1, simnet.EuropeW2})
	fts := workload.NewFollowTheSun(m, window)
	fts.Think = 1 * sim.Second
	phases := []workload.SunPhase{
		{Hot: simnet.USEast1, Duration: phaseDur},
		{Hot: simnet.USEast1, Duration: phaseDur},
		{Hot: simnet.USEast1, Duration: phaseDur},
	}
	var ddlErr error
	err := runSim(c, 6*3600*sim.Second, func(p *sim.Proc) error {
		if err := m.Setup(p); err != nil {
			return err
		}
		if err := m.Load(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		// The region change fires shortly after each phase boundary, while
		// the benchmark traffic keeps running.
		c.Sim.Spawn("elastic/region-ddl", func(dp *sim.Proc) {
			s := sql.NewSession(c, catalog, c.GatewayFor(simnet.USEast1))
			s.Database = "movr"
			dp.Sleep(phaseDur + 5*sim.Second)
			if _, err := s.Exec(dp, `ALTER DATABASE movr ADD REGION "asia-northeast1"`); err != nil {
				ddlErr = fmt.Errorf("add region: %w", err)
				return
			}
			dp.Sleep(phaseDur)
			if _, err := s.Exec(dp, `ALTER DATABASE movr DROP REGION "asia-northeast1"`); err != nil {
				ddlErr = fmt.Errorf("drop region: %w", err)
			}
		})
		return fts.Run(p, phases)
	})
	if err != nil {
		return nil, err
	}
	if ddlErr != nil {
		return nil, ddlErr
	}
	out := &elasticScenario{Name: "region-add-drop"}
	out.Windows, out.Errors = trajectory(fts.Windows)
	out.BaselineP50Ms, out.BaselineP99Ms, out.Events = convergence(
		[]string{"add-region-asia", "drop-region-asia"}, fts.Windows, fts.PhaseStarts, phaseDur)
	out.LoadSplits, out.Merges = c.Admin.LoadSplits, c.Admin.Merges
	out.LeaseMoves = c.Admin.LeaseMoves
	out.RangesFinal = len(c.Catalog.All())
	return out, exportScenario(c, out.Name)
}

// Elastic is the dynamic-scenario experiment: three runs whose traffic shape
// changes mid-benchmark — a follow-the-sun region-mix rotation, a migrating
// key hotspot, and an online region add/drop — each gated on the latency
// shape re-converging to within elasticGate of the pre-shift steady state.
// Absolute latencies are reported but never gated.
func Elastic(w io.Writer, scale Scale) error {
	header(w, "Elastic: dynamic scenarios (load-based split/merge, rebalancing, online region add/drop)")
	phaseDur := 120 * sim.Second
	window := 15 * sim.Second
	if scale.RecordCount > 10000 {
		phaseDur = 240 * sim.Second
	}

	type runnerFn func() (*elasticScenario, error)
	runs := []runnerFn{
		func() (*elasticScenario, error) { return elasticFollowTheSun(phaseDur, window) },
		func() (*elasticScenario, error) { return elasticHotspot(scale, phaseDur, window) },
		func() (*elasticScenario, error) { return elasticRegionAdd(phaseDur, window) },
	}
	res := elasticResult{Gate: elasticGate}
	var firstErr error
	for _, run := range runs {
		sc, err := run()
		if sc != nil {
			res.Scenarios = append(res.Scenarios, *sc)
			fmt.Fprintf(w, "  %-20s baseline p50=%-8.2fms p99=%-8.2fms splits=%d merges=%d lease_moves=%d ranges=%d errs=%d\n",
				sc.Name, sc.BaselineP50Ms, sc.BaselineP99Ms, sc.LoadSplits, sc.Merges,
				sc.LeaseMoves, sc.RangesFinal, sc.Errors)
			for _, ev := range sc.Events {
				status := "converged"
				if !ev.Converged {
					status = "NOT CONVERGED"
				}
				if ev.Elevated {
					status += " (elevated early: p99 " + fmt.Sprintf("%.2f", ev.EarlyP99Ms) + "ms)"
				}
				fmt.Fprintf(w, "    %-20s at=%-6.0fs early p99=%-8.2fms tail p50=%-8.2fms p99=%-8.2fms ratio p50=%-5.2f p99=%-5.2f %s\n",
					ev.Name, ev.AtSec, ev.EarlyP99Ms, ev.TailP50Ms, ev.TailP99Ms, ev.RatioP50, ev.RatioP99, status)
				if !ev.Converged && firstErr == nil {
					firstErr = fmt.Errorf("elastic: %s/%s did not re-converge (p50 %.2fx, p99 %.2fx > %.1fx gate)",
						sc.Name, ev.Name, ev.RatioP50, ev.RatioP99, elasticGate)
				}
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(ElasticOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  written to %s\n", ElasticOut)
	return firstErr
}
