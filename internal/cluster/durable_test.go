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

// TestFailoverShipsSnapshotsOnlyToTheRestartedNode runs the shape of the
// benchmark's failover_durable workload: a range with its voters in one
// region and a non-voting replica in each of two others, an open loop of
// writes, checkpoints every 5s, the leaseholder crashed at +10s and restarted
// from disk at +20s. The WAN replicas are a round trip behind at every
// checkpoint and never more: none of them may be caught up by snapshot. The
// restarted node missed two checkpoints' worth of log and needs exactly one.
// (Load starts 2s in, so the crash falls between checkpoints: a follower
// trims to its own applied index, and one promoted within a round trip of
// doing so may still have to snapshot a replica that was behind it.)
func TestFailoverShipsSnapshotsOnlyToTheRestartedNode(t *testing.T) {
	c := New(Config{Seed: 5, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond, Durability: true})
	desc, err := c.CreateRangeWithZoneConfig([]byte("u/"), []byte("u0"), zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	victim := desc.Leaseholder
	var gw simnet.NodeID
	for _, v := range desc.Voters {
		if v != victim {
			gw = v
		}
	}
	co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
	attempted, ok := 0, 0
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(2 * sim.Second)
		stop := c.Sim.Ticker(50*sim.Millisecond, func() {
			key := mvcc.Key(fmt.Sprintf("u/%04d", attempted%200))
			attempted++
			c.Sim.Spawn("op", func(p *sim.Proc) {
				if co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, key, mvcc.Value("v")) }) == nil {
					ok++
				}
			})
		})
		p.Sleep(10 * sim.Second)
		c.CrashNode(victim)
		p.Sleep(10 * sim.Second)
		if _, err := c.RestartNode(p, victim); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		p.Sleep(20 * sim.Second)
		stop()
		p.Sleep(15 * sim.Second) // stragglers finish or time out; the victim catches up
	})
	c.Sim.Run()

	if ok < attempted*3/4 {
		t.Fatalf("%d of %d writes succeeded", ok, attempted)
	}
	for _, id := range c.Topo.Nodes() {
		got := c.Stores[id].SnapshotsApplied
		if id == victim && got != 1 {
			t.Errorf("restarted node n%d installed %d snapshots, want 1", id, got)
		}
		if id != victim && got != 0 {
			t.Errorf("n%d was never down and installed %d snapshots", id, got)
		}
	}
	// The snapshot and the appends behind it brought the victim level with
	// the leader: same applied state, byte for byte.
	lh, _ := c.Catalog.Lookup(mvcc.Key("u/0000"))
	want := rangeBytes(t, c, lh.Leaseholder, desc.RangeID)
	if got := rangeBytes(t, c, victim, desc.RangeID); string(got) != string(want) {
		t.Errorf("restarted node's engine differs from the leaseholder's (%d vs %d bytes)", len(got), len(want))
	}
}

func rangeBytes(t *testing.T, c *Cluster, id simnet.NodeID, rid kv.RangeID) []byte {
	t.Helper()
	r, ok := c.Stores[id].Replica(rid)
	if !ok {
		t.Fatalf("n%d has no replica of r%d", id, rid)
	}
	return r.EngineForBulkLoad().AppendSnapshot(nil)
}
