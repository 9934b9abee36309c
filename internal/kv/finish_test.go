package kv

import (
	"errors"
	"slices"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// A relocation's placement converges once it has published: the zone config
// rides the descriptor update, and what is left after the publish is
// finishPlacement's, which a proc of the range retries until it succeeds.

// fenceAt fences node's lease once r has proposed a placement update: a
// peer bumps node's epoch after its liveness record lapsed, and node learns
// the new epoch at once, as from its next ping's ack. The relocation that
// proposed the update then meets a fenced lease when it moves the lease,
// while node's acquisition loop reclaims it.
func (h *recoveryHarness) fenceAt(t *testing.T, r *Replica, node simnet.NodeID) {
	h.s.Spawn("fence", func(p *sim.Proc) {
		for r.Proposed[CmdDescUpdate] == 0 {
			p.Sleep(10 * sim.Microsecond)
		}
		h.nl.recs[node].Expiration = p.Now() - 1
		if !h.nl.IncrementEpoch(node, p.Now()) {
			t.Errorf("could not fence n%d", node)
		}
		h.stores[node].ackEpoch = h.nl.Epoch(node)
	})
}

// TestAmbiguousPublishKeepsConfigWithItsDescriptor: n1 proposes a
// relocation's placement update and crashes once n2 and n3 appended it, so
// the update commits under the next leader while its proposer sees
// raft.ErrProposalDropped and the relocation fails. The catalog must pair the
// new voters with the new zone config, and the range must finish the
// placement the log decided on. The config used to be registered only by a
// proposer that saw its update apply, and the next lease published the new
// voters under the old config (chaos seed 162).
func TestAmbiguousPublishKeepsConfigWithItsDescriptor(t *testing.T) {
	h := newRecoveryHarness(t, 5, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r2, _ := h.stores[2].Replica(desc.RangeID)
	r3, _ := h.stores[3].Replica(desc.RangeID)
	cfg := zones.Config{NumReplicas: 3, NumVoters: 3}
	moved := zones.Placement{Voters: []simnet.NodeID{2, 3, 4}, Leaseholder: 2}
	h.s.Spawn("crash", func(p *sim.Proc) {
		for r1.Proposed[CmdDescUpdate] == 0 || r2.raft.LastIndex() < r1.raft.LastIndex() || r3.raft.LastIndex() < r1.raft.LastIndex() {
			p.Sleep(10 * sim.Microsecond)
		}
		h.net.CrashNode(1)
		h.stores[1].Crash()
	})
	var failed error
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		failed = h.admin.Relocate(p, desc.RangeID, moved, ClosedTSLag, &cfg)
		return nil
	})
	if !errors.Is(failed, raft.ErrProposalDropped) {
		t.Fatalf("relocation returned %v, want its placement update dropped on the crashed proposer", failed)
	}
	h.s.RunFor(30 * sim.Second)

	d, _ := h.cat.LookupByID(desc.RangeID)
	got, ok := h.cat.ZoneConfig(desc.RangeID)
	if !slices.Equal(d.Voters, moved.Voters) || !ok || got.String() != cfg.String() {
		t.Fatalf("the catalog pairs voters %v with config %q (registered %v), want %v with %q",
			d.Voters, got, ok, moved.Voters, cfg)
	}
	lh, ok := h.stores[d.Leaseholder].Replica(desc.RangeID)
	if d.Leaseholder != moved.Leaseholder || !ok || !lh.raft.IsLeader() || lh.raft.IsVoter(1) {
		t.Fatalf("after the failover: lease on n%d, leading %v, n1 still a voter %v; want n%d leading a group without n1",
			d.Leaseholder, ok && lh.raft.IsLeader(), ok && lh.raft.IsVoter(1), moved.Leaseholder)
	}
}

// TestRelocationFinishesAfterItsTransferIsRefused: n1's lease is fenced while
// its relocation publishes, so the lease transfer to the new placement's
// leaseholder is refused while n1's acquisition loop reclaims the lease. The
// relocation still returns nil, and its range reaches the placement within
// one retry interval of the reclaim. The transfer used to be proposed from
// the fenced lease; the reclaim overtook it in the log, and the relocation
// failed with its placement published and half done (chaos seed 373).
func TestRelocationFinishesAfterItsTransferIsRefused(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	moved := zones.Placement{Voters: []simnet.NodeID{2, 3, 4}, Leaseholder: 2}
	h.fenceAt(t, r1, 1)
	var healed, finished sim.Time
	h.s.Spawn("watch", func(p *sim.Proc) {
		for r1.Proposed[CmdDescUpdate] == 0 || !r1.hasValidLease() {
			p.Sleep(10 * sim.Microsecond)
		}
		healed = p.Now()
		for {
			d, _ := h.cat.LookupByID(desc.RangeID)
			if r2, _ := h.stores[2].Replica(desc.RangeID); d.Leaseholder == 2 && !r2.raft.IsVoter(1) {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}
		finished = p.Now()
	})
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		if err := h.admin.Relocate(p, desc.RangeID, moved, ClosedTSLag, nil); err != nil {
			return err
		}
		if h.admin.finishing[desc.RangeID] == nil {
			return errors.New("setup: the relocation moved the lease from a fenced leaseholder")
		}
		return nil
	})
	h.s.RunFor(10 * sim.Second)
	if healed == 0 || finished == 0 {
		t.Fatalf("n1's lease valid again at %v, placement reached at %v: want both", healed, finished)
	}
	if limit := healed.Add(finishRetry + 100*sim.Millisecond); finished > limit {
		t.Fatalf("n1 reclaimed its lease at %v and the placement was reached at %v, after %v", healed, finished, limit)
	}
	if _, ok := h.stores[1].Replica(desc.RangeID); ok {
		t.Fatal("n1 keeps a replica of the relocated range")
	}
}

// TestTransferFromFencedLeaseIsRefused: a leaseholder whose lease was fenced,
// and whose acquisition loop is reclaiming it, proposes no lease transfer.
func TestTransferFromFencedLeaseIsRefused(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	rep, _ := h.stores[1].Replica(desc.RangeID)
	h.run(t, 15*sim.Second, func(p *sim.Proc) error {
		h.nl.recs[1].Expiration = p.Now() - 1
		if !h.nl.IncrementEpoch(1, p.Now()) {
			t.Fatal("could not fence n1")
		}
		for !rep.leaseAcqActive {
			p.Sleep(10 * sim.Microsecond)
		}
		if rep.hasValidLease() {
			t.Fatal("setup: n1 reclaimed its lease before the transfer")
		}
		proposed := rep.Proposed[CmdLeaseTransfer]
		err := h.admin.TransferLease(p, desc.RangeID, 2)
		if err == nil || rep.Proposed[CmdLeaseTransfer] != proposed {
			t.Fatalf("transfer from a fenced lease returned %v after proposing %d lease commands, want an error and none",
				err, rep.Proposed[CmdLeaseTransfer]-proposed)
		}
		return nil
	})
}

// TestUnfinishedColocationIsNotMerged: a merge whose colocation of the right
// range published but could not move the right range's lease (its
// leaseholder's lease was fenced) subsumes nothing. Both ranges keep
// serving, and a later merge, once the colocation finished, succeeds.
func TestUnfinishedColocationIsNotMerged(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	h.admin.Load = NewRangeLoadTracker(h.s, 0)
	lhs := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	var rhs *RangeDescriptor
	h.run(t, 15*sim.Second, func(p *sim.Proc) (err error) {
		if rhs, err = h.admin.SplitRange(p, lhs.RangeID, mvcc.Key("m")); err != nil {
			return err
		}
		return h.admin.Relocate(p, rhs.RangeID, zones.Placement{Voters: []simnet.NodeID{4, 2, 3}, Leaseholder: 4}, ClosedTSLag, nil)
	})
	r4, _ := h.stores[4].Replica(rhs.RangeID)
	h.fenceAt(t, r4, 4)
	var merged error
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		merged = h.admin.MergeRanges(p, lhs.RangeID)
		return nil
	})
	if merged == nil {
		t.Fatal("a merge whose colocation is unfinished succeeded")
	}
	if d, _ := h.cat.LookupByID(rhs.RangeID); !slices.Equal(d.Voters, lhs.Voters) {
		t.Fatalf("setup: the merge failed (%v) before its colocation published: right voters %v", merged, d.Voters)
	}
	for id, st := range h.stores {
		if r, ok := st.Replica(rhs.RangeID); ok && (r.subsumed || r.Proposed[CmdSubsume] != 0) {
			t.Fatalf("n%d's right replica was subsumed after a failed colocation", id)
		}
	}
	h.s.RunFor(5 * sim.Second)
	for _, key := range []string{"b", "x"} {
		h.run(t, 5*sim.Second, func(p *sim.Proc) error {
			d, err := h.cat.Lookup(mvcc.Key(key))
			if err != nil {
				return err
			}
			r, _ := h.stores[d.Leaseholder].Replica(d.RangeID)
			return r.evaluate(p, &PutRequest{Key: mvcc.Key(key), Value: mvcc.Value("v"), Timestamp: r.store.Clock.Now()}).Err
		})
	}
	if h.cat.Len() != 2 {
		t.Fatalf("%d ranges after the failed merge, want 2", h.cat.Len())
	}
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		return h.admin.MergeRanges(p, lhs.RangeID)
	})
	if h.cat.Len() != 1 {
		t.Fatalf("%d ranges after the second merge, want 1", h.cat.Len())
	}
}
