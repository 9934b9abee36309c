package kv

import (
	"errors"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestOnePCNotClaimedWithoutLeadership is the regression test for
// "kv: txn N committed twice": a leaseholder that does not lead Raft (the
// fresh right-hand side of a split) must redirect a one-phase commit before
// claiming it in the registry, so the coordinator's retry may commit at
// whatever timestamp it is pushed to.
func TestOnePCNotClaimedWithoutLeadership(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)

	// Raft leadership moves to n2; the lease stays on n1. (n2 hands
	// leadership back to the live leaseholder soon after, so evaluate
	// inside the window.)
	rep.raft.TransferLeadership(2)
	for i := 0; i < 1000 && rep.raft.IsLeader(); i++ {
		h.s.RunFor(sim.Millisecond)
	}
	if rep.raft.IsLeader() || !rep.isLeaseholder() || !rep.hasValidLease() {
		t.Fatalf("setup: want n1 leaseholder but not leader (leader=%v leaseholder=%v valid=%v)",
			rep.raft.IsLeader(), rep.isLeaseholder(), rep.hasValidLease())
	}

	id := st.Registry.Begin(1, 0)
	first := st.Clock.Now()
	put := &PutRequest{
		Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: first,
		Txn:       &Txn{Meta: mvcc.TxnMeta{ID: id}, ReadTimestamp: first},
		Commit1PC: true,
	}
	h.run(t, sim.Second, func(p *sim.Proc) error {
		var nle *NotLeaseholderError
		if resp := rep.evaluate(p, put); !errors.As(resp.Err, &nle) {
			t.Errorf("1PC on a non-leader: got %+v, want NotLeaseholderError", resp)
		}
		return nil
	})
	if status, _ := st.Registry.Status(id); status != mvcc.Pending {
		t.Fatalf("commit was claimed on a replica that cannot propose: status %v", status)
	}

	// Leadership returns; the retry lands at a later timestamp and commits.
	for i := 0; i < 5000 && !rep.raft.IsLeader(); i++ {
		h.s.RunFor(sim.Millisecond)
	}
	put.Timestamp = st.Clock.Now()
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp := rep.evaluate(p, put)
		if resp.Err != nil || !resp.Put.Committed {
			t.Errorf("retry with leadership: %+v", resp)
		}
		return resp.Err
	})
	if status, ts := st.Registry.Status(id); status != mvcc.Committed || !first.Less(ts) {
		t.Fatalf("retry: status %v at %v, want committed after %v", status, ts, first)
	}
}

// TestOnePCResendFindsItsOwnCommit: a one-phase commit re-sent after its
// reply was lost, unconditional as most writes are, finds the value its first
// attempt committed and answers with that commit, proposing nothing. It used
// to be moved above its own value (write too old), where the commit claim
// failed ("committed twice"), and the coordinator wrote the key again.
func TestOnePCResendFindsItsOwnCommit(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	id := st.Registry.Begin(1, 0)
	ts := st.Clock.Now()
	put := &PutRequest{
		Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: ts,
		Txn:       &Txn{Meta: mvcc.TxnMeta{ID: id}, ReadTimestamp: ts},
		Commit1PC: true,
	}
	var first, again Response
	var proposed int64
	h.run(t, sim.Second, func(p *sim.Proc) error {
		first = rep.evaluate(p, put)
		proposed = rep.Proposed[CmdPut]
		again = rep.evaluate(p, put) // the reply was lost: the DistSender re-sends
		return nil
	})
	if first.Err != nil || !first.Put.Committed {
		t.Fatalf("one-phase commit: %+v", first)
	}
	if again.Err != nil || again.Put != first.Put {
		t.Errorf("re-sent one-phase commit: %+v, want the first attempt's commit %+v", again, first.Put)
	}
	if n := rep.Proposed[CmdPut] - proposed; n != 0 {
		t.Errorf("the re-send proposed %d writes, want none", n)
	}
	if st, cts := st.Registry.Status(id); st != mvcc.Committed || cts != first.Put.WriteTimestamp {
		t.Errorf("record: %v at %v, want committed at %v", st, cts, first.Put.WriteTimestamp)
	}
}
