package cluster

import (
	"fmt"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// regionalRange creates one zone-survivable LAG range homed in us-east1.
func regionalRange(t *testing.T, c *Cluster, prefix string) *kv.RangeDescriptor {
	t.Helper()
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte(prefix+"/"), []byte(prefix+"0"), cfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// TestMVCCGarbageCollection verifies the store GC loop: old versions are
// collected, recent stale reads keep working, too-old stale reads lose
// their data (the gc.ttl contract).
func TestMVCCGarbageCollection(t *testing.T) {
	c := New(Config{Seed: 32, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "gc")
	for _, st := range c.Stores {
		st.StartGCLoop(20 * sim.Second)
	}
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		// 10 versions of one key, 1s apart.
		for i := 0; i < 10; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, mvcc.Key("gc/k"), mvcc.Value(fmt.Sprintf("v%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Second)
		}
		p.Sleep(30 * sim.Second) // let GC run a few cycles

		if c.Stores[desc.Leaseholder].GCCollected == 0 {
			t.Error("the leaseholder's GC collected nothing")
		}
		// The latest value is always preserved.
		var got mvcc.Value
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("gc/k"))
			got = v
			return err
		}); err != nil || string(got) != "v9" {
			t.Errorf("latest value %q, %v", got, err)
		}
		// A recent stale read (within ttl) still works.
		if v, _, err := co.ExactStaleRead(p, mvcc.Key("gc/k"), co.Store.Clock.Now().Add(-5*sim.Second)); err != nil || v == nil {
			t.Errorf("recent stale read failed: %q %v", v, err)
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}
