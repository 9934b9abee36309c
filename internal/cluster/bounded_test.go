package cluster

import (
	"fmt"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// steadyWrites starts one write every 50ms on the range regionalRange
// created under prefix, from a us-east1 gateway, and hands each key to
// onWrite, if set, once its write commits.
func steadyWrites(c *Cluster, prefix string, onWrite func(mvcc.Key)) (stop func()) {
	gw := c.GatewayFor(simnet.USEast1)
	co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
	n := 0
	return c.Sim.Ticker(50*sim.Millisecond, func() {
		key := mvcc.Key(fmt.Sprintf("%s/%05d", prefix, n))
		n++
		c.Sim.Spawn("write", func(p *sim.Proc) {
			if co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, key, mvcc.Value("v")) }) == nil && onWrite != nil {
				onWrite(key)
			}
		})
	})
}

// TestInMemoryRaftLogStaysBounded: without a disk, every store still runs
// the store loop, so a Raft log under steady writes is truncated every
// interval. After four intervals every replica's log holds at most the
// entries of the last two.
func TestInMemoryRaftLogStaysBounded(t *testing.T) {
	c := New(Config{Seed: 5, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "b")
	replicas := append(append([]simnet.NodeID(nil), desc.Voters...), desc.NonVoters...)
	logBounds := func(id simnet.NodeID) (first, last uint64) {
		r, ok := c.Stores[id].Replica(desc.RangeID)
		if !ok {
			t.Fatalf("n%d has no replica of r%d", id, desc.RangeID)
		}
		return r.Raft().FirstIndex(), r.Raft().LastIndex()
	}
	twoAgo := map[simnet.NodeID]uint64{} // each log's end two intervals before the check
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		stop := steadyWrites(c, "b", nil)
		defer stop()
		p.Sleep(2 * kv.DefaultCheckpointInterval)
		for _, id := range replicas {
			_, twoAgo[id] = logBounds(id)
		}
		p.Sleep(2 * kv.DefaultCheckpointInterval)
	})
	c.Sim.Run()

	for _, id := range replicas {
		first, last := logBounds(id)
		if last-twoAgo[id] < 100 {
			t.Fatalf("n%d: only %d entries in two intervals; the writes stalled", id, last-twoAgo[id])
		}
		if first < twoAgo[id] {
			t.Errorf("n%d keeps log %d..%d, more than the last two intervals' %d..%d",
				id, first, last, twoAgo[id], last)
		}
	}
}

// TestPartitionedFollowerCatchesUpBySnapshot: an in-memory non-voter cut off
// for longer than an interval no longer holds the leader's log, so when its
// links return it installs one snapshot, and then serves the writes it
// missed as a follower read. No other replica installs any.
func TestPartitionedFollowerCatchesUpBySnapshot(t *testing.T) {
	c := New(Config{Seed: 5, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "p")
	var cut simnet.NodeID
	for _, id := range desc.NonVoters {
		if loc, _ := c.Topo.LocalityOf(id); loc.Region == simnet.AsiaNE1 {
			cut = id
		}
	}
	var missed []mvcc.Key
	partitioned := false
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		stop := steadyWrites(c, "p", func(k mvcc.Key) {
			if partitioned {
				missed = append(missed, k)
			}
		})
		p.Sleep(2 * sim.Second)
		partitioned = true
		c.Net.CrashNode(cut)
		p.Sleep(2*kv.DefaultCheckpointInterval + sim.Second)
		partitioned = false
		c.Net.RestartNode(cut)
		p.Sleep(kv.DefaultCheckpointInterval)
		stop()
		p.Sleep(kv.DefaultCheckpointInterval) // the missed writes close on the follower

		co := txn.NewCoordinator(c.Stores[cut], c.Senders[cut])
		at := co.Store.Clock.Now().Add(-kv.DefaultCheckpointInterval)
		for _, k := range missed {
			v, servedBy, err := co.ExactStaleRead(p, k, at)
			if err != nil || string(v) != "v" || servedBy != cut {
				t.Errorf("read of missed write %s: %q served by n%d, %v; want v from n%d", k, v, servedBy, err, cut)
				return
			}
		}
	})
	c.Sim.Run()

	if len(missed) < 100 {
		t.Fatalf("only %d writes committed while n%d was cut off", len(missed), cut)
	}
	for _, id := range c.Topo.Nodes() {
		got := c.Stores[id].SnapshotsApplied
		if id == cut && got != 1 {
			t.Errorf("the cut-off n%d installed %d snapshots, want 1", id, got)
		}
		if id != cut && got != 0 {
			t.Errorf("n%d was never cut off and installed %d snapshots", id, got)
		}
	}
}
