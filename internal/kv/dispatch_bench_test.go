package kv_test

import (
	"fmt"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// benchCluster builds a three-region cluster with one REGIONAL range split
// into three, returning the cluster and the us-east1 gateway sender.
func benchCluster(b testing.TB, seed int64) (*cluster.Cluster, *kv.DistSender) {
	b.Helper()
	c := cluster.New(cluster.Config{Seed: seed, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	zcfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("bm/"), []byte("bm0"), zcfg, kv.ClosedTSLag)
	if err != nil {
		b.Fatal(err)
	}
	c.Sim.Spawn("setup", func(p *sim.Proc) {
		if err := c.Admin.WaitAllReady(p); err != nil {
			b.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		mid, err := c.Admin.SplitRange(p, desc.RangeID, mvcc.Key("bm/004"))
		if err != nil {
			b.Error(err)
			return
		}
		if _, err := c.Admin.SplitRange(p, mid.RangeID, mvcc.Key("bm/008")); err != nil {
			b.Error(err)
		}
	})
	c.Sim.RunFor(5 * sim.Second)
	return c, c.Senders[c.GatewayFor(simnet.USEast1)]
}

// BenchmarkDistSenderBatchDispatch measures the wall-clock cost of
// splitting, fanning out, and merging a 12-request batch across 3 ranges —
// the hardware-speed floor of the batched dispatch path.
func BenchmarkDistSenderBatchDispatch(b *testing.B) {
	c, ds := benchCluster(b, 7)
	reqs := make([]interface{}, 12)
	for i := range reqs {
		reqs[i] = &kv.GetRequest{
			Key:       mvcc.Key(fmt.Sprintf("bm/%03d", i)),
			Timestamp: c.Stores[ds.NodeID].Clock.Now(),
		}
	}
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, resp := range ds.SendBatch(p, reqs) {
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		}
	})
	c.Sim.Run()
}

// BenchmarkDistSenderSingleDispatch is the per-request baseline: one point
// get through the full route-send-evaluate-reply cycle.
func BenchmarkDistSenderSingleDispatch(b *testing.B) {
	c, ds := benchCluster(b, 8)
	req := &kv.GetRequest{
		Key:       mvcc.Key("bm/005"),
		Timestamp: c.Stores[ds.NodeID].Clock.Now(),
	}
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := ds.Send(p, req); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	})
	c.Sim.Run()
}

// TestSingleGetRoundTripAllocs pins what one successful point read costs in
// objects, gateway to leaseholder and back, at 7: the RPC's three and the
// batch, response and attempt bookkeeping around them. It was 8 while the
// replica ran a lone request through the fan-out's closure, 9 while the
// reply was a BatchResponse boxed by value beside its own one-element
// response slice (it now travels by pointer with the response inline), 10
// while the latch check converted the key to a string, and 16 while
// sendToRange declared its three errors.As targets before looking at
// resp.Err and evalGet its two before looking at err (a target escapes, so
// each was an object per success), and while the timestamp cache converted
// the key to a string it then stored again. A batch of one — how a
// transaction sends every point read and write — costs the same: it is its
// own single-range sub-batch, and SendBatch hands sendToRange's responses
// back as they are.
func TestSingleGetRoundTripAllocs(t *testing.T) {
	c, ds := benchCluster(t, 8)
	req := &kv.GetRequest{
		Key:       mvcc.Key("bm/005"),
		Timestamp: c.Stores[ds.NodeID].Clock.Now(),
	}
	var sendAllocs, batchAllocs float64
	c.Sim.Spawn("reader", func(p *sim.Proc) {
		defer c.Sim.Stop()
		get := func() {
			if resp := ds.Send(p, req); resp.Err != nil {
				t.Error(resp.Err)
			}
		}
		batch := func() {
			if resp := ds.SendBatch(p, []interface{}{req}); resp[0].Err != nil {
				t.Error(resp[0].Err)
			}
		}
		get() // the handler's proc, the timestamp-cache entry
		sendAllocs = testing.AllocsPerRun(200, get)
		batchAllocs = testing.AllocsPerRun(200, batch)
	})
	c.Sim.Run()
	if sendAllocs != 7 {
		t.Errorf("a point read round trip allocates %.0f objects, want 7", sendAllocs)
	}
	if batchAllocs != 7 {
		t.Errorf("a batch of one point read allocates %.0f objects, want 7", batchAllocs)
	}
}
