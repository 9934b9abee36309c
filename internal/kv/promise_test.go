package kv

import (
	"errors"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestFollowerReadWaitsForCoveredWrite: a closed timestamp is a promise about
// a log position. The leaseholder proposes a write, and its commit is held
// back: the voters' answers to n1 are cut, while non-voter n4 still receives
// every append and its promise. Once n1's clock passes the write's timestamp
// plus the lag, the promises close the write's timestamp, but n4 has not
// applied the write, which can still commit. n4 must not serve a read at the
// write's timestamp until it has; the write then commits once the voters'
// answers flow again.
func TestFollowerReadWaitsForCoveredWrite(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	desc, err := h.admin.CreateRange(mvcc.Key("a"), mvcc.Key("z"),
		zones.Placement{Voters: []simnet.NodeID{1, 2, 3}, NonVoters: []simnet.NodeID{4}, Leaseholder: 1}, ClosedTSLag, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, 15*sim.Second, func(p *sim.Proc) error { return h.admin.WaitReady(p, desc.RangeID) })
	h.s.RunFor(sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r4, _ := h.stores[4].Replica(desc.RangeID)

	h.net.PartitionOneWay(2, 1)
	h.net.PartitionOneWay(3, 1)
	var wts hlc.Timestamp
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp := r1.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: h.stores[1].Clock.Now(), Pipelined: true})
		if resp.Err != nil {
			return resp.Err
		}
		wts = resp.Put.WriteTimestamp
		return nil
	})
	h.s.RunFor(DefaultCloseLag + 2*sim.Second)
	if r1.raft.CommitIndex() == r1.raft.LastIndex() || hasKey(r4, "k") {
		t.Fatalf("setup: the write committed (commit %d of %d) or reached n4's engine", r1.raft.CommitIndex(), r1.raft.LastIndex())
	}
	if issued := r1.closed.issued; issued.LessEq(wts) {
		t.Fatalf("setup: n1 promised only %v, the write is at %v", issued, wts)
	}
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp := r4.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: wts, FollowerRead: true})
		var fr *FollowerReadUnavailableError
		if !errors.As(resp.Err, &fr) {
			t.Errorf("n4 (closed %v) answered a read at the write's timestamp %v with %+v, %v; want it redirected",
				r4.ClosedTimestamp(), wts, resp.Get, resp.Err)
		}
		return nil
	})

	h.net.HealOneWay(2, 1)
	h.net.HealOneWay(3, 1)
	h.s.RunFor(2 * sim.Second)
	if !hasKey(r4, "k") || r4.ClosedTimestamp().LessEq(wts) {
		t.Fatalf("after the heal: n4 holds the write %v, closed %v (write at %v)", hasKey(r4, "k"), r4.ClosedTimestamp(), wts)
	}
}

// TestTransferringLeaseholderIsFenced: from proposing a lease transfer until
// the transfer is decided, the old leaseholder neither evaluates a request
// nor makes a closed-timestamp promise. A write it evaluated there would sit
// in the log behind the transfer, where the new leaseholder, serving from
// the transfer's position on, would not see it; a promise it made there
// would exceed the floor the transfer hands on.
func TestTransferringLeaseholderIsFenced(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	// Slow appends keep the transfer undecided for a while.
	for _, id := range []simnet.NodeID{2, 3} {
		h.net.SlowLink(1, id, 300*sim.Millisecond)
	}
	h.s.Spawn("transfer", func(p *sim.Proc) {
		if err := h.admin.TransferLease(p, desc.RangeID, 2); err != nil {
			t.Errorf("transfer: %v", err)
		}
	})
	h.s.RunFor(sim.Millisecond)
	floor := r1.closed.issued
	if r1.raft.CommitIndex() == r1.raft.LastIndex() {
		t.Fatal("setup: no transfer in flight")
	}
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp := r1.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: h.stores[1].Clock.Now(), Pipelined: true})
		var nl *NotLeaseholderError
		if !errors.As(resp.Err, &nl) {
			t.Errorf("n1 evaluated a write with its lease transfer in flight: %+v, %v", resp.Put, resp.Err)
		}
		return nil
	})
	h.s.RunFor(2 * sim.Second)
	if r1.isLeaseholder() || r1.closed.issued != floor {
		t.Fatalf("after the transfer: n1 leaseholder %v; promised %v past the floor %v the transfer handed on",
			r1.isLeaseholder(), r1.closed.issued, floor)
	}
}
