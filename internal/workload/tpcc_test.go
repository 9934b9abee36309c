package workload

import (
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// TestTPCCSmoke loads a small TPC-C and runs all five transaction types.
func TestTPCCSmoke(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      3,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
	})
	catalog := sql.NewCatalog()
	cfg := DefaultTPCCConfig()
	cfg.TxnsPerTerminal = 15
	cfg.TerminalsPerRegion = 2
	w := NewTPCC(c, catalog, cfg)
	var runErr error
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		if err := w.SetupSchema(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(sim.Second)
		if err := w.Load(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(sim.Second)
		if err := w.Run(p); err != nil {
			runErr = err
			return
		}
	})
	c.Sim.RunFor(60 * 60 * sim.Second)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
	if w.NewOrders == 0 {
		t.Fatal("no new-order transactions committed")
	}
	if w.NewOrderLat.Errors > 0 || w.PaymentLat.Errors > 0 {
		t.Fatalf("errors: NO=%d pay=%d", w.NewOrderLat.Errors, w.PaymentLat.Errors)
	}
	// New-order transactions stay region-local at p50 (§7.4: "requests
	// do not cross regions in the common case").
	if p50 := w.NewOrderLat.Percentile(50); p50 > 400*sim.Millisecond {
		t.Errorf("new-order p50 = %v, want region-local", p50)
	}
	if w.TpmC() <= 0 {
		t.Error("tpmC not positive")
	}
	t.Logf("tpmC=%.1f over %v", w.TpmC(), w.Elapsed)
}
