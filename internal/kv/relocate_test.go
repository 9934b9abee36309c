package kv

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestRelocateAgainAfterFailedConfChange fails a conf change in the middle of
// a relocation — the leaseholder is cut off while the change is in flight and
// n2 campaigns, so n2's first entry overwrites the change in the
// leaseholder's log — and relocates again once n2 has handed leadership back.
// The failed attempt leaves the descriptor as it was, so the second attempt
// starts over at "create the new replicas", and used to die there on the
// replica the first had left behind (panic: replica of r1 already on n4). Two
// ways to leave one:
//
//   - the replica's own AddLearner fails: nothing but the relocation knows
//     the replica, and it must be gone afterwards;
//   - a later change fails (here the second AddVoter): the replicas are in the
//     Raft group by then, and the next attempt adopts them.
func TestRelocateAgainAfterFailedConfChange(t *testing.T) {
	grown := zones.Placement{Voters: []simnet.NodeID{1, 2, 3, 4, 5}, Leaseholder: 1}
	for _, c := range []struct {
		name string
		// strike reports when n2 should campaign, given the leader's replica:
		// the conf change that is to fail has been proposed and has reached
		// no other replica yet.
		strike func(h *recoveryHarness, r1 *Replica) bool
		// left lists the new replicas the failed attempt must leave in place.
		left []simnet.NodeID
	}{
		// n2 hands a leadership it wins from a live leaseholder back as soon
		// as its term's no-op applies, well before a relocation started a
		// little later would look: strike once the first AddLearner, proposed
		// right after its replica is created on n4, is in flight.
		{"AddLearner fails", func(h *recoveryHarness, r1 *Replica) bool {
			_, created := h.stores[4].Replica(r1.desc.RangeID)
			return created && r1.raft.LastIndex() > r1.raft.CommitIndex()
		}, nil},
		{"AddVoter fails", func(_ *recoveryHarness, r1 *Replica) bool { return r1.raft.IsVoter(4) }, []simnet.NodeID{4, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newRecoveryHarness(t, 5, 0)
			desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
			r1, _ := h.stores[1].Replica(desc.RangeID)
			r2, _ := h.stores[2].Replica(desc.RangeID)

			h.s.Spawn("usurper", func(p *sim.Proc) {
				for !c.strike(h, r1) {
					p.Sleep(100 * sim.Microsecond)
				}
				for id := simnet.NodeID(2); id <= 5; id++ {
					h.net.Partition(1, id)
				}
				r2.raft.Campaign()
				p.Sleep(100 * sim.Millisecond)
				for id := simnet.NodeID(2); id <= 5; id++ {
					h.net.Heal(1, id)
				}
			})
			var failed error
			h.run(t, 10*sim.Second, func(p *sim.Proc) error {
				failed = h.admin.Relocate(p, desc.RangeID, grown, ClosedTSLag, nil)
				return nil
			})
			if !errors.Is(failed, raft.ErrProposalDropped) {
				t.Fatalf("relocation returned %v, want its overwritten conf change dropped", failed)
			}
			var left []simnet.NodeID
			for _, id := range []simnet.NodeID{4, 5} {
				if _, ok := h.stores[id].Replica(desc.RangeID); ok {
					left = append(left, id)
				}
			}
			if !slices.Equal(left, c.left) {
				t.Fatalf("failed relocation (%v) left new replicas on %v, want %v", failed, left, c.left)
			}
			if d, _ := h.cat.LookupByID(desc.RangeID); !slices.Equal(d.Voters, []simnet.NodeID{1, 2, 3}) {
				t.Fatalf("failed relocation changed the descriptor: voters %v", d.Voters)
			}

			h.run(t, 30*sim.Second, func(p *sim.Proc) error {
				for !r1.raft.IsLeader() { // n2 hands leadership back to the live leaseholder
					p.Sleep(100 * sim.Millisecond)
				}
				if err := h.admin.Relocate(p, desc.RangeID, grown, ClosedTSLag, nil); err != nil {
					return fmt.Errorf("second relocation: %w", err)
				}
				return r1.propose(p, putCmd(h.stores[1], "k", "v"))
			})
			h.s.RunFor(sim.Second)
			for _, id := range grown.Voters {
				r, ok := h.stores[id].Replica(desc.RangeID)
				if !ok || !r1.raft.IsVoter(id) || !slices.Equal(r.desc.Voters, grown.Voters) || !hasKey(r, "k") {
					t.Fatalf("n%d after the second relocation: replica=%v voter=%v, want a voting replica with the new descriptor and the write",
						id, ok, r1.raft.IsVoter(id))
				}
			}
		})
	}
}

// TestRelocatedReplicasJoinAsLearners: a relocation creates each new replica
// as a learner of the range's current membership, which its conf changes
// then promote. Built from the new descriptor, the new replicas counted
// themselves voters: cut off from the range's voters, three of them elected
// one of their own with an empty log, a second leader whose appends made
// the range's followers ack entries it never had.
func TestRelocatedReplicasJoinAsLearners(t *testing.T) {
	h := newRecoveryHarness(t, 6, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	for _, a := range []simnet.NodeID{1, 2, 3} {
		for _, b := range []simnet.NodeID{4, 5, 6} {
			h.net.Partition(a, b)
		}
	}
	h.s.Spawn("relocate", func(p *sim.Proc) {
		// Cut off from its new voters, the relocation cannot finish.
		_ = h.admin.Relocate(p, desc.RangeID, zones.Placement{Voters: []simnet.NodeID{4, 5, 6}, Leaseholder: 4}, ClosedTSLag, nil)
	})
	h.s.RunFor(10 * sim.Second)
	for _, id := range []simnet.NodeID{4, 5, 6} {
		if r, ok := h.stores[id].Replica(desc.RangeID); ok && r.raft.IsLeader() {
			t.Fatalf("n%d, a replica the relocation created, leads the range while cut off from its voters", id)
		}
	}
	if r, _ := h.stores[1].Replica(desc.RangeID); !r.raft.IsLeader() {
		t.Fatal("n1 lost the lead of its range")
	}
}

// TestRelocationKeepsASplitThatAppliedMeanwhile: a relocation parked on a
// conf change while its range splits publishes its placement on top of the
// split's descriptor. It used to publish the descriptor it had cloned when it
// started, one generation up, which every replica installed over the split's
// descriptor of the same generation: the left half took back the right
// half's span, and two ranges served its keys.
func TestRelocationKeepsASplitThatAppliedMeanwhile(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	grown := zones.Placement{Voters: []simnet.NodeID{1, 2, 3, 4}, Leaseholder: 1}
	relocated := sim.NewFuture[error](h.s)
	h.s.Spawn("relocate", func(p *sim.Proc) {
		relocated.Set(h.admin.Relocate(p, desc.RangeID, grown, ClosedTSLag, nil))
	})
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		// The relocation created n4's replica and waits on its AddLearner.
		for _, ok := h.stores[4].Replica(desc.RangeID); !ok; _, ok = h.stores[4].Replica(desc.RangeID) {
			p.Sleep(100 * sim.Microsecond)
		}
		if _, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("m")); err != nil {
			return fmt.Errorf("split: %w", err)
		}
		return relocated.Wait(p)
	})
	h.s.RunFor(sim.Second)
	d, _ := h.cat.LookupByID(desc.RangeID)
	descs := []*RangeDescriptor{d}
	for _, id := range grown.Voters {
		r, ok := h.stores[id].Replica(desc.RangeID)
		if !ok {
			t.Fatalf("n%d has no replica of r%d", id, desc.RangeID)
		}
		descs = append(descs, r.desc)
	}
	for i, d := range descs {
		if string(d.StartKey) != "a" || string(d.EndKey) != "m" || !slices.Equal(d.Voters, grown.Voters) {
			t.Errorf("descriptor %d of the left half (0: the catalog's) spans [%s, %s) with voters %v, want [a, m) with %v",
				i, d.StartKey, d.EndKey, d.Voters, grown.Voters)
		}
	}
}

// TestPlacementUpdateOvertakenBySplitFails: a placement update proposed
// behind a split it was derived before applies nowhere, and the relocation
// fails with the descriptor as the split left it.
func TestPlacementUpdateOvertakenBySplitFails(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r, _ := h.stores[1].Replica(desc.RangeID)
	split := sim.NewFuture[error](h.s)
	h.s.Spawn("split", func(p *sim.Proc) {
		_, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("m"))
		split.Set(err)
	})
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		p.Sleep(sim.Microsecond) // the split is proposed, not yet applied
		if r.desc.Generation != desc.Generation {
			t.Fatal("the split applied before the placement update was proposed")
		}
		placement := zones.Placement{Voters: desc.Voters, Leaseholder: 1}
		if err := publishPlacement(p, r, placement, ClosedTSLead, nil); err == nil {
			t.Error("a placement update proposed behind a split published")
		}
		return split.Wait(p)
	})
	h.s.RunFor(sim.Second)
	for _, id := range desc.Voters {
		f, _ := h.stores[id].Replica(desc.RangeID)
		if d := f.desc; string(d.EndKey) != "m" || d.Policy != desc.Policy || d.Generation != desc.Generation+1 {
			t.Errorf("n%d's left half spans [%s, %s) at generation %d with policy %v, want [a, m) at %d with %v",
				id, d.StartKey, d.EndKey, d.Generation, d.Policy, desc.Generation+1, desc.Policy)
		}
	}
}
