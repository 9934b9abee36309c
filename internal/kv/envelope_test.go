package kv

import (
	"fmt"
	"runtime"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// liveHeap returns the bytes reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkEnvelopePool fails the test unless the pool is within its bound and
// holds each envelope once, cleared.
func checkEnvelopePool(t *testing.T, ep *envelopePool) {
	t.Helper()
	if len(ep.free) > maxFreeEnvelopes {
		t.Fatalf("envelope pool holds %d, its bound is %d", len(ep.free), maxFreeEnvelopes)
	}
	seen := map[*RaftEnvelope]bool{}
	for _, env := range ep.free {
		if seen[env] {
			t.Fatal("envelope pool holds an envelope twice")
		}
		seen[env] = true
		if env.RangeID != 0 || env.Msg.Entries != nil || !env.Msg.Closed.IsEmpty() || env.Msg.Snapshot != nil {
			t.Fatalf("pooled envelope still holds a message: %+v", env)
		}
	}
}

// TestIdleGlobalRangeLeaksNoEnvelopes: an idle GLOBAL range heartbeats every
// 100ms and the followers do not answer, so envelopes flow one way, leader to
// followers. With a free list per store the leader's would stay empty (an
// allocation per heartbeat) while each follower's grew by ten a second, for
// good: ~200 bytes × 10/s × 4 followers, 400 KB over the 50 virtual seconds
// measured here. One list for the cluster keeps a handful in circulation and
// the live heap flat.
func TestIdleGlobalRangeLeaksNoEnvelopes(t *testing.T) {
	h := newRecoveryHarness(t, 5, 0)
	desc, err := h.admin.CreateRange(mvcc.Key("a"), mvcc.Key("z"),
		zones.Placement{Voters: []simnet.NodeID{1, 2, 3}, NonVoters: []simnet.NodeID{4, 5}, Leaseholder: 1}, ClosedTSLead, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, 10*sim.Second, func(p *sim.Proc) error { return h.admin.WaitReady(p, desc.RangeID) })
	pool := &h.stores[1].Registry.envelopes

	h.s.RunUntil(sim.Time(10 * sim.Second))
	sent, at10 := h.net.MessagesSent, liveHeap()
	h.s.RunUntil(sim.Time(60 * sim.Second))
	at60 := liveHeap()

	if hb := h.net.MessagesSent - sent; hb < 50*10*4 {
		t.Fatalf("setup: %d messages in 50s, want at least the 2000 heartbeats of a GLOBAL range", hb)
	}
	checkEnvelopePool(t, pool)
	if len(pool.free) == 0 || len(pool.free) > 16 {
		t.Fatalf("envelope pool holds %d after 60 idle seconds, want the few a heartbeat round puts in flight", len(pool.free))
	}
	if grew := at60 - at10; grew > 64<<10 {
		t.Fatalf("live heap grew %d bytes between t=10s and t=60s of an idle range (%d -> %d), want it flat", grew, at10, at60)
	}
}

// TestDroppedRaftMessageIsNotPooledTwice: an envelope the network drops —
// refused at Send because the destination is down, or lost at the delivery
// instant because it went down meanwhile — is simply never put back. The
// pool must not see it again by another road, and stays within its bound.
func TestDroppedRaftMessageIsNotPooledTwice(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	pool := &h.stores[1].Registry.envelopes

	// Appends to n3 are in flight when it goes down, and more follow.
	h.s.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if err := r1.propose(p, putCmd(h.stores[1], "k", "v")); err != nil {
				t.Errorf("propose %d: %v", i, err)
				return
			}
		}
	})
	h.s.RunFor(2 * sim.Millisecond)
	dropped := h.net.MessagesDropped
	h.net.CrashNode(3)
	h.s.RunFor(5 * sim.Second)
	if h.net.MessagesDropped-dropped < 10 {
		t.Fatalf("setup: %d messages dropped, want the appends and heartbeats to n3", h.net.MessagesDropped-dropped)
	}
	checkEnvelopePool(t, pool)
	h.net.RestartNode(3)
	h.s.RunFor(5 * sim.Second)
	checkEnvelopePool(t, pool)
	if r3, _ := h.stores[3].Replica(desc.RangeID); r3.raft.Applied() != r1.raft.Applied() {
		t.Fatalf("n3 applied %d of %d entries after rejoining", r3.raft.Applied(), r1.raft.Applied())
	}
}

// TestTimedOutEnvelopeIsNeverReused: a sub-batch (a write and a read) reaches
// its leaseholder, which is cut off from every other node while the write
// waits to replicate. The reply cannot come back, so the attempt times out.
// Its envelope is left to the collector: the retry, which goes to the new
// leaseholder once the lease moved, travels in another envelope and returns
// the right values, and the cut-off replica, which answers into the old
// envelope once the partition heals, reaches nobody: neither the envelope
// pool nor the result space the caller sent the batch into, which keeps the
// retry's answers. Putting the envelope back at the timeout would hand it to
// the retry; answering into the caller's space would let the late reply
// overwrite them.
func TestTimedOutEnvelopeIsNeverReused(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(5 * sim.Second)
	const gateway = simnet.NodeID(4)
	ds := &DistSender{NodeID: gateway, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
	clock := h.stores[gateway].Clock
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		return ds.Send(p, &PutRequest{Key: mvcc.Key("k2"), Value: mvcc.Value("v2"), Timestamp: clock.Now()}).Err
	})

	// Every envelope of the batch a store is handed, and when n1's arrives,
	// the cut.
	var stale *BatchRequest
	served := map[*BatchRequest]simnet.NodeID{}
	for id, st := range h.stores {
		h.net.Register(id, func(m simnet.Message) {
			if req, ok := m.Payload.(*simnet.RPCRequest); ok {
				if b := req.Payload.(*BatchRequest); len(b.Reqs) == 2 {
					served[b] = id
					if id == 1 && stale == nil {
						stale = b
						for _, peer := range []simnet.NodeID{2, 3, 4} {
							h.net.Partition(1, peer)
						}
					}
				}
			}
			st.handleMessage(m)
		})
	}
	var resps [2]Response // the caller's result space
	h.run(t, 40*sim.Second, func(p *sim.Proc) error {
		ds.SendBatchInto(p, []interface{}{
			&PutRequest{Key: mvcc.Key("k1"), Value: mvcc.Value("v1"), Timestamp: clock.Now()},
			&GetRequest{Key: mvcc.Key("k2"), Timestamp: clock.Now()},
		}, resps[:])
		return nil
	})
	answered := fmt.Sprintf("%+v", resps)
	if stale == nil {
		t.Fatal("setup: the batch never reached n1")
	}
	if resps[0].Err != nil || resps[1].Err != nil || string(resps[1].Get.Value) != "v2" {
		t.Fatalf("batch after the failover: put %v, get %+v; want the put applied and v2", resps[0].Err, resps[1])
	}
	var retriedOn simnet.NodeID
	for b, id := range served {
		if b != stale {
			retriedOn = id
		}
	}
	if served[stale] != 1 || retriedOn == 0 || retriedOn == 1 {
		t.Fatalf("the timed-out envelope went to n%d and the retry's to n%d: want n1, and the retry in another envelope on a survivor", served[stale], retriedOn)
	}

	// The partition heals: n1's evaluation ends and answers into the
	// abandoned envelope, which must still be out of the sender's free list.
	for _, peer := range []simnet.NodeID{2, 3, 4} {
		h.net.Heal(1, peer)
	}
	h.s.RunFor(20 * sim.Second)
	if len(stale.Resps) != 2 || stale.Resps[0].Err == nil {
		t.Fatalf("setup: n1 answered %+v into the abandoned envelope, want the write's failure", stale.Resps)
	}
	if got := fmt.Sprintf("%+v", resps); got != answered {
		t.Fatalf("the late reply landed in the caller's result space: %s, was %s", got, answered)
	}
	for _, b := range ds.freeBatches {
		if b == stale {
			t.Fatal("the timed-out envelope is in the sender's free list")
		}
	}
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		resp := ds.Send(p, &GetRequest{Key: mvcc.Key("k1"), Timestamp: clock.Now()})
		if resp.Err != nil || string(resp.Get.Value) != "v1" {
			t.Errorf("k1 after the heal: %+v, want v1", resp)
		}
		return nil
	})
}
