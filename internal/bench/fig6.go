package bench

import (
	"fmt"
	"io"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/workload"
)

// syntheticRegions builds an n-region world for the scalability experiment
// (§7.4 uses up to 26 GCP regions; we synthesize a ring topology whose
// farthest pair is ~280ms apart, matching intercontinental RTTs).
func syntheticRegions(n int) ([]cluster.RegionSpec, map[[2]simnet.Region]sim.Duration) {
	specs := make([]cluster.RegionSpec, n)
	names := make([]simnet.Region, n)
	for i := 0; i < n; i++ {
		names[i] = simnet.Region(fmt.Sprintf("region-%02d", i))
		specs[i] = cluster.RegionSpec{Name: names[i], Zones: 3, NodesPerZone: 1}
	}
	rtt := map[[2]simnet.Region]sim.Duration{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := j - i
			if n-d < d {
				d = n - d
			}
			// Constant 65ms spacing between ring neighbors (the paper's
			// North-American inter-region RTTs), capped at an
			// intercontinental 300ms, so adjacent-region latency does
			// not depend on the region count.
			lat := 20*sim.Millisecond + sim.Duration(d)*65*sim.Millisecond
			if lat > 300*sim.Millisecond {
				lat = 300 * sim.Millisecond
			}
			rtt[[2]simnet.Region{names[i], names[j]}] = lat
		}
	}
	return specs, rtt
}

// fig6Result is one scalability data point.
type fig6Result struct {
	regions    int
	warehouses int
	tpmC       float64
	noP50      map[simnet.Region][2]sim.Duration // p50, p90 per region
}

func fig6Run(seed int64, scale Scale, nRegions int, restricted bool) (*fig6Result, error) {
	specs, rtt := syntheticRegions(nRegions)
	c := cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   specs,
		MaxOffset: 250 * sim.Millisecond,
		RTT:       rtt,
		Jitter:    0.02,
	})
	catalog := newCatalog()
	cfg := workload.DefaultTPCCConfig()
	cfg.TxnsPerTerminal = scale.TPCCTxnsPerTerminal
	// A fixed measurement window keeps tpmC free of straggler skew.
	cfg.RunFor = sim.Duration(scale.TPCCTxnsPerTerminal) * 400 * sim.Millisecond
	t := workload.NewTPCC(c, catalog, cfg)
	err := runSim(c, 12*3600*sim.Second, func(p *sim.Proc) error {
		if err := t.SetupSchema(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		if err := t.Load(p); err != nil {
			return err
		}
		if restricted {
			s := sql.NewSession(c, catalog, c.GatewayFor(specs[0].Name))
			if _, err := s.Exec(p, "ALTER DATABASE tpcc PLACEMENT RESTRICTED"); err != nil {
				return err
			}
		}
		p.Sleep(2 * sim.Second)
		return t.Run(p)
	})
	if err != nil {
		return nil, err
	}
	res := &fig6Result{
		regions:    nRegions,
		warehouses: cfg.WarehousesPerRegion * nRegions,
		tpmC:       t.TpmC(),
		noP50:      map[simnet.Region][2]sim.Duration{},
	}
	for r, rec := range t.PerRegionNO {
		res.noP50[r] = [2]sim.Duration{rec.Percentile(50), rec.Percentile(90)}
	}
	return res, nil
}

// Fig6 reproduces paper Figure 6: TPC-C throughput scaling with region
// count, plus the per-region latency profile and the PLACEMENT RESTRICTED
// comparison (§7.4).
func Fig6(w io.Writer, scale Scale) error {
	header(w, "Figure 6: multi-region TPC-C scalability")
	counts := []int{2, 4, 8}
	if scale.PaperRegions {
		counts = []int{4, 10, 26}
	}
	var results []*fig6Result
	for i, n := range counts {
		res, err := fig6Run(600+int64(i), scale, n, false)
		if err != nil {
			return fmt.Errorf("fig6 %d regions: %w", n, err)
		}
		results = append(results, res)
	}
	base := results[0]
	fmt.Fprintf(w, "\n%-10s %-12s %-12s %-14s %-10s\n", "regions", "warehouses", "tpmC", "tpmC/warehouse", "efficiency")
	for _, r := range results {
		perWH := r.tpmC / float64(r.warehouses)
		eff := perWH / (base.tpmC / float64(base.warehouses)) * 100
		fmt.Fprintf(w, "%-10d %-12d %-12.1f %-14.2f %.1f%%\n", r.regions, r.warehouses, r.tpmC, perWH, eff)
	}
	// Per-region latency spread for the middle configuration (paper
	// reports the 10-region run).
	mid := results[len(results)/2]
	loP50, hiP50 := sim.Duration(1<<62), sim.Duration(0)
	loP90, hiP90 := sim.Duration(1<<62), sim.Duration(0)
	for _, pair := range mid.noP50 {
		if pair[0] > 0 && pair[0] < loP50 {
			loP50 = pair[0]
		}
		if pair[0] > hiP50 {
			hiP50 = pair[0]
		}
		if pair[1] > 0 && pair[1] < loP90 {
			loP90 = pair[1]
		}
		if pair[1] > hiP90 {
			hiP90 = pair[1]
		}
	}
	fmt.Fprintf(w, "\n%d-region run, per-region new-order latencies: p50 %s – %s, p90 %s – %s\n",
		mid.regions, ms(loP50), ms(hiP50), ms(loP90), ms(hiP90))

	// PLACEMENT RESTRICTED comparison at the smallest configuration.
	rres, err := fig6Run(650, scale, counts[0], true)
	if err != nil {
		return fmt.Errorf("fig6 restricted: %w", err)
	}
	var rp50lo, rp50hi sim.Duration = 1 << 62, 0
	for _, pair := range rres.noP50 {
		if pair[0] > 0 && pair[0] < rp50lo {
			rp50lo = pair[0]
		}
		if pair[0] > rp50hi {
			rp50hi = pair[0]
		}
	}
	fmt.Fprintf(w, "PLACEMENT RESTRICTED (%d regions): new-order p50 %s – %s (vs DEFAULT, should be comparable)\n",
		rres.regions, ms(rp50lo), ms(rp50hi))
	fmt.Fprintln(w, `
Expected shape (paper): throughput scales linearly with regions (>= 97%
efficiency); per-region p50 latencies stay region-local (only the ~10% of
new-orders touching remote warehouses cross regions); PLACEMENT RESTRICTED
does not change the latency profile.`)
	return nil
}
