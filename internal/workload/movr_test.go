package workload

import (
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// TestMovrWorkload runs the ride-sharing mix and checks the locality
// profile: browsing (GLOBAL reads) and ride transactions stay local at
// p50 from every region.
func TestMovrWorkload(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 51, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	catalog := sql.NewCatalog()
	m := NewMovr(c, catalog)
	var runErr error
	c.Sim.Spawn("movr", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := m.Setup(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(2 * sim.Second)
		if err := m.Load(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(2 * sim.Second)
		if err := m.Run(p, 2, 20); err != nil {
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
	if m.BrowseLat.Count() == 0 || m.RideLat.Count() == 0 {
		t.Fatalf("no samples: browse=%d ride=%d", m.BrowseLat.Count(), m.RideLat.Count())
	}
	if m.BrowseLat.Errors+m.RideLat.Errors+m.SignupLat.Errors > 0 {
		t.Fatalf("errors: %d/%d/%d", m.BrowseLat.Errors, m.RideLat.Errors, m.SignupLat.Errors)
	}
	// GLOBAL promo reads are local everywhere.
	if p50 := m.BrowseLat.Percentile(50); p50 > 5*sim.Millisecond {
		t.Errorf("browse p50 = %v, want local", p50)
	}
	// Ride transactions: local user read + local GLOBAL read + insert
	// (whose PK uniqueness check fans out, as the paper accepts for
	// auto-homed tables). The median still sits far below a full
	// cross-region transaction.
	if p50 := m.RideLat.Percentile(50); p50 > 500*sim.Millisecond {
		t.Errorf("ride p50 = %v", p50)
	}
}
