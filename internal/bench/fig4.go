package bench

import (
	"fmt"
	"io"

	"mrdb/internal/sim"
	"mrdb/internal/sql"
	"mrdb/internal/workload"
)

// fig4Cluster builds the §7.2 environment: 3 regions, 9 nodes.
func fig4Run(seed int64, scale Scale, cfg workload.YCSBConfig, schema string) (*workload.YCSB, error) {
	c := threeRegionCluster(seed, 250*sim.Millisecond)
	catalog := sql.NewCatalog()
	cfg.RecordCount = scale.RecordCount
	cfg.OpsPerClient = scale.OpsPerClient
	if cfg.ClientsPerRegion == 0 {
		cfg.ClientsPerRegion = scale.ClientsPerRegion
	}
	y := workload.NewYCSB(c, catalog, cfg)
	err := runSim(c, 12*3600*sim.Second, func(p *sim.Proc) error {
		if err := y.SetupSchema(p, schema); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		if err := y.Load(p); err != nil {
			return err
		}
		p.Sleep(2 * sim.Second)
		return y.Run(p)
	})
	return y, err
}

// Fig4a reproduces paper Figure 4a: locality optimized search and
// automatic rehoming on REGIONAL BY ROW tables, YCSB-B with 95% and 50%
// locality of access and disjoint keys per client.
func Fig4a(w io.Writer, scale Scale) error {
	header(w, "Figure 4a: LOS and auto-rehoming on REGIONAL BY ROW (YCSB-B, uniform, disjoint keys)")
	type variant struct {
		name       string
		disableLOS bool
		rehoming   bool
		baseline   bool
	}
	variants := []variant{
		{"Unoptimized (no LOS)", true, false, false},
		{"Default (LOS)", false, false, false},
		{"Rehoming (LOS+rehome)", false, true, false},
		{"Baseline (manual partitioning)", false, false, true},
	}
	for _, locality := range []float64{0.95, 0.50} {
		fmt.Fprintf(w, "\nLocality of access = %.0f%%:\n", locality*100)
		for i, v := range variants {
			cfg := workload.YCSBConfig{
				Variant:          workload.YCSBB,
				Distribution:     "uniform",
				LocalityOfAccess: locality,
				DisableLOS:       v.disableLOS,
				Rehoming:         v.rehoming,
				BaselineManual:   v.baseline,
			}
			y, err := fig4Run(300+int64(i)+int64(locality*100), scale, cfg, "LOCALITY REGIONAL BY ROW")
			if err != nil {
				return fmt.Errorf("fig4a %s: %w", v.name, err)
			}
			boxRow(w, v.name+" [read]", y.AllReads())
			boxRow(w, v.name+" [write]", y.AllWrites())
		}
	}
	fmt.Fprintln(w, `
Expected shape (paper): Unoptimized fans out on every operation
(150-200ms); Default keeps local-key operations local and is only slightly
slower than Baseline on remote keys; Rehoming migrates remote rows to the
accessing region and converges to all-local latency (disjoint keys).`)
	return nil
}

// Fig4b reproduces paper Figure 4b: the cost of global uniqueness checks
// on INSERT (YCSB-D, 100% locality) and their elision for computed region
// columns.
func Fig4b(w io.Writer, scale Scale) error {
	header(w, "Figure 4b: uniqueness checks on INSERT (YCSB-D, 100% locality)")
	computedSchema := `CREATE TABLE usertable (
		ycsb_key STRING PRIMARY KEY,
		field0 STRING,
		crdb_region crdb_internal_region AS (region_from_prefix(ycsb_key)) STORED
	) LOCALITY REGIONAL BY ROW`
	type variant struct {
		name     string
		schema   string
		baseline bool
		prefixed bool
	}
	variants := []variant{
		{"Computed (region from PK)", computedSchema, false, true},
		{"Default (region from gateway)", "", false, false},
		{"Baseline (manual partitioning)", "", true, false},
	}
	for i, v := range variants {
		cfg := workload.YCSBConfig{
			Variant:            workload.YCSBD,
			Distribution:       "uniform",
			LocalityOfAccess:   1.0,
			BaselineManual:     v.baseline,
			SchemaSQL:          v.schema,
			RegionPrefixedKeys: v.prefixed,
		}
		y, err := fig4Run(400+int64(i), scale, cfg, "LOCALITY REGIONAL BY ROW")
		if err != nil {
			return fmt.Errorf("fig4b %s: %w", v.name, err)
		}
		boxRow(w, v.name+" [insert]", y.AllWrites())
		boxRow(w, v.name+" [read]", y.AllReads())
	}
	fmt.Fprintln(w, `
Expected shape (paper): Computed elides the uniqueness check (the region is
derived from the primary key) and matches Baseline with local-latency
INSERTs; Default pays one parallel cross-region probe per INSERT, so its
insert latency sits at the inter-region RTTs.`)
	return nil
}

// Fig4c reproduces paper Figure 4c: auto-rehoming under contention —
// c = 1, 2, 3 clients per region all re-homing a shared remote key block,
// against the non-rehoming Default.
func Fig4c(w io.Writer, scale Scale) error {
	header(w, "Figure 4c: auto-rehoming under contention (YCSB-B, 50% locality, shared remote keys)")
	for _, c := range []int{1, 2, 3} {
		cfg := workload.YCSBConfig{
			Variant:          workload.YCSBB,
			Distribution:     "uniform",
			LocalityOfAccess: 0.50,
			SharedRemoteKeys: true,
			Rehoming:         true,
			ClientsPerRegion: c,
		}
		y, err := fig4Run(500+int64(c), scale, cfg, "LOCALITY REGIONAL BY ROW")
		if err != nil {
			return fmt.Errorf("fig4c c=%d: %w", c, err)
		}
		boxRow(w, fmt.Sprintf("Rehoming c=%d [read]", c), y.AllReads())
		boxRow(w, fmt.Sprintf("Rehoming c=%d [write]", c), y.AllWrites())
	}
	cfg := workload.YCSBConfig{
		Variant:          workload.YCSBB,
		Distribution:     "uniform",
		LocalityOfAccess: 0.50,
		SharedRemoteKeys: true,
		ClientsPerRegion: 3,
	}
	y, err := fig4Run(510, scale, cfg, "LOCALITY REGIONAL BY ROW")
	if err != nil {
		return fmt.Errorf("fig4c default: %w", err)
	}
	boxRow(w, "Default (no rehoming) [read]", y.AllReads())
	boxRow(w, "Default (no rehoming) [write]", y.AllWrites())
	fmt.Fprintln(w, `
Expected shape (paper): with c=1 the shared rows re-home to the accessing
region and stay local; with c=2,3 contending regions thrash rows back and
forth and latency degrades toward Default, where remote accesses always
cross a region boundary.`)
	return nil
}
