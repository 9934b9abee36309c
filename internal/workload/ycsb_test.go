package workload

import (
	"math/rand"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
)

func TestLatencyRecorder(t *testing.T) {
	r := NewLatencyRecorder("test")
	for i := 1; i <= 100; i++ {
		r.Record(sim.Duration(i) * sim.Millisecond)
	}
	if got := r.Percentile(50); got != 50*sim.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99*sim.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := r.Max(); got != 100*sim.Millisecond {
		t.Errorf("max = %v", got)
	}
	box := r.Box()
	if box.P25 != 25*sim.Millisecond || box.P75 != 75*sim.Millisecond {
		t.Errorf("box = %+v", box)
	}
}

func TestKeyChoosers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformChooser{N: 100}
	for i := 0; i < 1000; i++ {
		if k := u.Next(rng); k < 0 || k >= 100 {
			t.Fatalf("uniform out of range: %d", k)
		}
	}
	z := NewZipfChooser(100, rng)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Zipf must skew toward low keys.
	if counts[0] < counts[50]*2 {
		t.Errorf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

// TestYCSBSmoke runs a small YCSB-A against a REGIONAL BY ROW table and a
// GLOBAL table and sanity-checks the latency profiles.
func TestYCSBSmoke(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      1,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
	})
	catalog := sql.NewCatalog()
	y := NewYCSB(c, catalog, YCSBConfig{
		Variant:          YCSBB,
		RecordCount:      300,
		Distribution:     "uniform",
		OpsPerClient:     30,
		ClientsPerRegion: 2,
		LocalityOfAccess: 0.95,
	})
	var runErr error
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		if err := y.SetupSchema(p, "LOCALITY REGIONAL BY ROW"); err != nil {
			runErr = err
			return
		}
		p.Sleep(500 * sim.Millisecond)
		if err := y.Load(p); err != nil {
			runErr = err
			return
		}
		if err := y.Run(p); err != nil {
			runErr = err
			return
		}
	})
	c.Sim.RunFor(30 * 60 * sim.Second)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
	reads := y.AllReads()
	writes := y.AllWrites()
	if reads.Count() == 0 || writes.Count() == 0 {
		t.Fatalf("no samples: reads=%d writes=%d", reads.Count(), writes.Count())
	}
	if reads.Errors > 0 || writes.Errors > 0 {
		t.Fatalf("errors: reads=%d writes=%d", reads.Errors, writes.Errors)
	}
	// With 95% locality and LOS, the median read is region-local.
	if p50 := reads.Percentile(50); p50 > 20*sim.Millisecond {
		t.Errorf("read p50 = %v, want local latency", p50)
	}
}

func TestYCSBGlobalTable(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      2,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
	})
	catalog := sql.NewCatalog()
	y := NewYCSB(c, catalog, YCSBConfig{
		Variant:          YCSBA,
		RecordCount:      200,
		Distribution:     "zipfian",
		OpsPerClient:     20,
		ClientsPerRegion: 1,
	})
	var runErr error
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		if err := y.SetupSchema(p, "LOCALITY GLOBAL"); err != nil {
			runErr = err
			return
		}
		p.Sleep(sim.Second)
		if err := y.Load(p); err != nil {
			runErr = err
			return
		}
		p.Sleep(sim.Second)
		if err := y.Run(p); err != nil {
			runErr = err
			return
		}
	})
	c.Sim.RunFor(60 * 60 * sim.Second)
	if runErr != nil {
		t.Fatal(runErr)
	}
	reads := y.AllReads()
	writes := y.AllWrites()
	if reads.Errors > 0 || writes.Errors > 0 {
		t.Fatalf("errors: reads=%d writes=%d", reads.Errors, writes.Errors)
	}
	// GLOBAL: sub-5ms median reads everywhere, slow writes (Fig 3).
	if p50 := reads.Percentile(50); p50 > 5*sim.Millisecond {
		t.Errorf("global read p50 = %v", p50)
	}
	if p50 := writes.Percentile(50); p50 < 300*sim.Millisecond {
		t.Errorf("global write p50 = %v, want commit-wait dominated", p50)
	}
	_ = simnet.USEast1
}
