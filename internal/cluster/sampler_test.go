package cluster

import (
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// TestWarmSamplerTickAllocatesNothing: once the registry has been listed
// and each series' ring holds the bucket a tick lands in, a sampler tick
// (every node's own series and the registry's under node 0) allocates
// nothing: a node's leases are counted in the catalog, not in a copy of
// it, and a histogram's series names are built when it first appears.
func TestWarmSamplerTickAllocatesNothing(t *testing.T) {
	c := New(Config{Seed: 1, Regions: PaperRegions(), Sampling: true})
	zcfg := zones.Config{NumReplicas: 3, NumVoters: 3, VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3}, LeasePreferences: []simnet.Region{simnet.USEast1}}
	if _, err := c.CreateRangeWithZoneConfig([]byte("r/"), []byte("r0"), zcfg, kv.ClosedTSLag); err != nil {
		t.Fatal(err)
	}
	c.Sim.Spawn("test", func(p *sim.Proc) {
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		co := txn.NewCoordinator(c.Stores[c.GatewayFor(simnet.USEast1)], c.Senders[c.GatewayFor(simnet.USEast1)])
		for i := 0; i < 20; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, mvcc.Key("r/a"), mvcc.Value("v"))
			}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.Sim.RunFor(30 * sim.Second)
	if len(c.Metrics.Histograms()) == 0 || c.TSDB.Series("store.leases", int(c.Topo.Nodes()[0])) == nil {
		t.Fatal("setup: no histogram recorded or no tick sampled")
	}
	nodes := c.Topo.Nodes()
	tick := func() {
		for _, id := range nodes {
			c.sampleNode(id, id == nodes[0])
		}
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("a warm sampler tick over %d nodes allocates %.0f objects, want 0", len(nodes), n)
	}
}
