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
// latch wakes in the instant the write's entry applies; when the proposal
// fails because the leader stepped down, the latch is released then, and
// only then — the entry applying afterwards, under the next leader, does
// not release it a second time.
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
				if len(rep.pipelined) != 1 || !rep.latches.held[string(key)] {
					t.Errorf("after the reply: %d pipelined writes, latch held %v", len(rep.pipelined), rep.latches.held[string(key)])
					return
				}
				f := rep.pipelined[0].f
				h.s.Spawn("reader", func(rp *sim.Proc) {
					rep.latches.waitFree(rp, key)
					readerWoke = rp.Now()
					readerSaw = hasKey(rep, "k")
				})
				p.Yield() // the reader queues on the latch
				if lose {
					// A vote request from a later term: the leader steps
					// down with the write in flight.
					rep.raft.Step(raft.Message{Kind: raft.MsgVote, Term: rep.raft.Term() + 1, From: 2,
						LastLogIndex: rep.raft.LastIndex(), LastLogTerm: rep.raft.Term() + 1})
				}
				res = f.Wait(p)
				resolvedAt = p.Now()
			})
			h.s.RunFor(sim.Second)

			if readerWoke == 0 || readerWoke != resolvedAt {
				t.Fatalf("reader woke at %v, the proposal resolved at %v", readerWoke, resolvedAt)
			}
			if len(rep.pipelined) != 0 || rep.latches.held[string(key)] {
				t.Fatalf("after resolution: %d pipelined writes, latch held %v", len(rep.pipelined), rep.latches.held[string(key)])
			}
			if !lose {
				if res.Err != nil || !readerSaw {
					t.Fatalf("proposal %+v; reader saw the write: %v", res, readerSaw)
				}
				return
			}
			if res.Err != raft.ErrLeadershipLost || readerSaw {
				t.Fatalf("proposal %+v; reader saw the write: %v", res, readerSaw)
			}
			// Someone else takes the latch; the entry then commits under the
			// next leader and applies here, which must leave it held.
			h.s.Spawn("holder", func(p *sim.Proc) { rep.latches.acquire(p, key) })
			for i := 0; i < 100 && !hasKey(rep, "k"); i++ {
				h.s.RunFor(100 * sim.Millisecond)
			}
			if !hasKey(rep, "k") || rep.raft.Applied() < res.Index {
				t.Fatalf("the failed proposal's entry %d never applied here (applied %d)", res.Index, rep.raft.Applied())
			}
			if !rep.latches.held[string(key)] {
				t.Fatal("the entry applying released the latch a second time")
			}
		})
	}
}
