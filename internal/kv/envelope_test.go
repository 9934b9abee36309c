package kv

import (
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
		zones.Placement{Voters: []simnet.NodeID{1, 2, 3}, NonVoters: []simnet.NodeID{4, 5}, Leaseholder: 1}, ClosedTSLead)
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
