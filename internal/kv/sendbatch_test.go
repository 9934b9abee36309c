package kv_test

import (
	"strings"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestSendBatchUnroutableSlot pins SendBatch's per-slot contract: a value
// that is not a KV request gets "cannot route" in its own slot, and the rest
// of the batch is still dispatched and served in request order.
func TestSendBatchUnroutableSlot(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 11, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	zcfg := zones.Config{
		NumReplicas: 3, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("u/"), []byte("u0"), zcfg, kv.ClosedTSLag); err != nil {
		t.Fatal(err)
	}
	gw := c.GatewayFor(simnet.USEast1)
	ds, clock := c.Senders[gw], c.Stores[gw].Clock
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		for _, k := range []string{"u/a", "u/b"} {
			if resp := ds.Send(p, &kv.PutRequest{Key: mvcc.Key(k), Value: mvcc.Value(k), Timestamp: clock.Now()}); resp.Err != nil {
				t.Errorf("put %s: %v", k, resp.Err)
				return
			}
		}
		now := clock.Now()
		resps := ds.SendBatch(p, []interface{}{
			&kv.GetRequest{Key: mvcc.Key("u/a"), Timestamp: now},
			struct{}{},
			&kv.GetRequest{Key: mvcc.Key("u/b"), Timestamp: now},
		})
		if len(resps) != 3 {
			t.Errorf("%d responses, want 3", len(resps))
			return
		}
		if err := resps[1].Err; err == nil || !strings.Contains(err.Error(), "cannot route struct {}") {
			t.Errorf("slot 1: err = %v, want cannot route", err)
		}
		for i, want := range map[int]string{0: "u/a", 2: "u/b"} {
			if resps[i].Err != nil || string(resps[i].Get.Value) != want {
				t.Errorf("slot %d: %+v, want value %q", i, resps[i], want)
			}
		}
	})
	c.Sim.RunFor(60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}
