package kv

import (
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestPipelinedWriteLatchFollowsItsProposal: a pipelined write holds its
// latch until its proposal resolves, and no later. A reader queued on the
// latch wakes in the instant the write's entry applies. A step-down resolves
// nothing: the latch stays held while the entry is undecided, and the reader
// wakes when the entry, committed under the next leader, applies here.
func TestPipelinedWriteLatchFollowsItsProposal(t *testing.T) {
	for _, lose := range []bool{false, true} {
		name := "applies"
		if lose {
			name = "leadership lost"
		}
		t.Run(name, func(t *testing.T) {
			h := newRecoveryHarness(t, 3, 0)
			desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
			st := h.stores[1]
			rep, _ := st.Replica(desc.RangeID)
			h.s.RunFor(sim.Second)
			key := mvcc.Key("k")

			var res raft.ProposeResult
			var resolvedAt, readerWoke sim.Time
			readerSaw := false
			h.s.Spawn("writer", func(p *sim.Proc) {
				resp := rep.evaluate(p, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: st.Clock.Now(), Pipelined: true})
				if resp.Err != nil {
					t.Errorf("pipelined write: %v", resp.Err)
					return
				}
				if len(rep.pipelined) != 1 || !rep.keys.entries[string(key)].latched {
					t.Errorf("after the reply: %d pipelined writes, latch held %v", len(rep.pipelined), rep.keys.entries[string(key)].latched)
					return
				}
				f := rep.pipelined[0].f
				h.s.Spawn("reader", func(rp *sim.Proc) {
					rep.waitUnlatched(rp, key)
					readerWoke = rp.Now()
					readerSaw = hasKey(rep, "k")
				})
				p.Yield() // the reader queues on the latch
				if lose {
					// A vote request from a later term: the leader steps
					// down with the write in flight.
					rep.raft.Step(raft.Message{Kind: raft.MsgVote, Term: rep.raft.Term() + 1, From: 2,
						LastLogIndex: rep.raft.LastIndex(), LastLogTerm: rep.raft.Term() + 1})
					p.Yield()
					if rep.raft.IsLeader() || f.Done() || !rep.keys.entries[string(key)].latched {
						t.Errorf("after the step-down: leader %v, proposal resolved %v, latch held %v",
							rep.raft.IsLeader(), f.Done(), rep.keys.entries[string(key)].latched)
					}
				}
				res = f.Wait(p)
				resolvedAt = p.Now()
			})
			h.s.RunFor(10 * sim.Second)

			if readerWoke == 0 || readerWoke != resolvedAt {
				t.Fatalf("reader woke at %v, the proposal resolved at %v", readerWoke, resolvedAt)
			}
			if len(rep.pipelined) != 0 || rep.keys.entries[string(key)].latched {
				t.Fatalf("after resolution: %d pipelined writes, latch held %v", len(rep.pipelined), rep.keys.entries[string(key)].latched)
			}
			if res.Err != nil || !readerSaw {
				t.Fatalf("proposal %+v; reader saw the write: %v", res, readerSaw)
			}
		})
	}
}
