package kv

import (
	"fmt"
	"slices"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestRelocateAgainAfterFailedConfChange fails a conf change in the middle of
// a relocation — n2 campaigns, so the leaseholder's proposals die with its
// leadership — and relocates again once n2 has handed leadership back. The
// failed attempt leaves the descriptor as it was, so the second attempt starts
// over at "create the new replicas", and used to die there on the replica the
// first had left behind (panic: replica of r1 already on n4). Two ways to
// leave one:
//
//   - the replica's own AddLearner fails: nothing but the relocation knows
//     the replica, and it must be gone afterwards;
//   - a later change fails (here the second AddVoter): the replicas are in the
//     Raft group by then, and the next attempt adopts them.
func TestRelocateAgainAfterFailedConfChange(t *testing.T) {
	grown := zones.Placement{Voters: []simnet.NodeID{1, 2, 3, 4, 5}, Leaseholder: 1}
	for _, c := range []struct {
		name string
		// strike reports when n2 should campaign, given the leader's replica.
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
				r2.raft.Campaign()
			})
			var failed error
			h.run(t, 10*sim.Second, func(p *sim.Proc) error {
				failed = h.admin.Relocate(p, desc.RangeID, grown, ClosedTSLag, nil)
				return nil
			})
			if failed == nil {
				t.Fatal("relocation survived losing leadership")
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
