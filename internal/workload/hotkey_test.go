package workload

import (
	"fmt"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// TestGlobalHotKeyBounded is a regression test for the paper's central
// claim (§6.2): contended writes to one GLOBAL key commit-wait
// concurrently, so each blind write stays bounded near
// L_raft + L_replicate + max_clock_offset instead of queueing for seconds.
func TestGlobalHotKeyBounded(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 9, Regions: cluster.PaperRegions(), MaxOffset: 250 * sim.Millisecond})
	catalog := sql.NewCatalog()
	y := NewYCSB(c, catalog, YCSBConfig{Variant: YCSBA, RecordCount: 10, Distribution: "uniform", OpsPerClient: 1, ClientsPerRegion: 1})
	var worst sim.Duration
	var runErr error
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := y.SetupSchema(p, "LOCALITY GLOBAL"); err != nil {
			runErr = err
			return
		}
		p.Sleep(2 * sim.Second)
		if err := y.Load(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(2 * sim.Second)
		wg := sim.NewWaitGroup(c.Sim)
		for i := 0; i < 10; i++ {
			i := i
			region := c.Regions()[i%len(c.Regions())]
			wg.Add(1)
			c.Sim.Spawn("w", func(wp *sim.Proc) {
				defer wg.Done()
				s := sql.NewSession(c, catalog, c.GatewayFor(region))
				s.Database = "ycsb"
				upsert := s.MustPrepare(`UPSERT INTO usertable (ycsb_key, field0) VALUES ($1, $2)`)
				for op := 0; op < 5; op++ {
					start := wp.Now()
					_, err := s.ExecPrepared(wp, upsert, keyName(0), fmt.Sprintf("w%d-%d", i, op))
					if err != nil {
						t.Errorf("writer %d op %d: %v", i, op, err)
						return
					}
					if d := wp.Now().Sub(start); d > worst {
						worst = d
					}
				}
			})
		}
		wg.Wait(p)
	})
	c.Sim.RunFor(60 * 60 * sim.Second)
	if runErr != nil {
		t.Fatal(runErr)
	}
	// Bound: lead (~500ms) + gateway RTT (<=200ms) + latch queueing.
	if worst > 1200*sim.Millisecond {
		t.Fatalf("worst contended global write %v; commit waits are not concurrent", worst)
	}
}
