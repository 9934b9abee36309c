package workload

import (
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// TestTPCCUncontended verifies new-order latency with one terminal per
// region: all transactions stay region-local except the ~10% with a remote
// stock line (§7.4).
func TestTPCCUncontended(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 5, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	catalog := sql.NewCatalog()
	cfg := DefaultTPCCConfig()
	cfg.TerminalsPerRegion = 1
	cfg.TxnsPerTerminal = 10
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
	if p50 := w.NewOrderLat.Percentile(50); p50 > 250*sim.Millisecond {
		t.Errorf("new-order p50 = %v, want region-local", p50)
	}
	if p50 := w.PaymentLat.Percentile(50); p50 > 60*sim.Millisecond {
		t.Errorf("payment p50 = %v, want region-local", p50)
	}
}
