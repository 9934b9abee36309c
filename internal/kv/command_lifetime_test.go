package kv

import (
	"fmt"
	"testing"
	"unsafe"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestFollowersKeepTheirCommands: a leaseholder proposes commands carved from
// its replica's chunks, and every follower's log holds the leader's entries,
// command and all. After the leader proposes more than a chunk's worth and
// every log is compacted, the next proposals take commands no one was handed
// before: each command the followers applied still reads its own key and
// value, and so does every follower's engine.
func TestFollowersKeepTheirCommands(t *testing.T) {
	h := newRecoveryHarness(t, 3, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	leader, _ := h.stores[1].Replica(desc.RangeID)
	const wave = 100
	key := func(w, i int) string { return fmt.Sprintf("%c%03d", 'a'+w, i) }
	val := func(w, i int) string { return fmt.Sprintf("value %d of wave %d", i, w) }
	var proposed []*Command
	chunks := 0
	propose := func(w int) {
		h.run(t, 60*sim.Second, func(p *sim.Proc) error {
			for i := 0; i < wave; i++ {
				cmd := leader.command(*putCmd(leader.store, key(w, i), val(w, i)))
				// A command carved right after the last one shares its chunk.
				if n := len(proposed); n == 0 || uintptr(unsafe.Pointer(cmd))-uintptr(unsafe.Pointer(proposed[n-1])) != unsafe.Sizeof(command{}) {
					chunks++
				}
				proposed = append(proposed, cmd)
				if err := leader.propose(p, cmd); err != nil {
					return err
				}
			}
			return nil
		})
		// The followers learn the last commit from the next heartbeat.
		h.s.RunFor(sim.Second)
	}
	propose(0)
	if chunks < 2 {
		t.Fatalf("%d commands came from %d chunk; the test needs more than one", wave, chunks)
	}
	for id, st := range h.stores {
		r, _ := st.Replica(desc.RangeID)
		if r.raft.Applied() < r.raft.LastIndex() {
			t.Fatalf("n%d applied %d of %d", id, r.raft.Applied(), r.raft.LastIndex())
		}
		r.raft.Compact(r.raft.Applied())
	}
	propose(1)
	for j, cmd := range proposed {
		w, i := j/wave, j%wave
		if string(cmd.Key) != key(w, i) || string(cmd.Value) != val(w, i) {
			t.Errorf("command %d of wave %d reads %q = %q", i, w, cmd.Key, cmd.Value)
		}
	}
	for _, id := range []simnet.NodeID{2, 3} {
		r, _ := h.stores[id].Replica(desc.RangeID)
		for w := 0; w < 2; w++ {
			for i := 0; i < wave; i++ {
				got, _, err := r.engine.Get(mvcc.Key(key(w, i)), hlc.MaxTimestamp, mvcc.GetOptions{})
				if err != nil || string(got) != val(w, i) {
					t.Errorf("n%d reads %s = %q (%v), want %q", id, key(w, i), got, err, val(w, i))
				}
			}
		}
	}
}

// TestCommandByValueIsRejected: Raft's Propose takes any payload, so a caller
// that proposes a Command by value compiles. A replica panics on such an
// entry when it applies or persists it, rather than letting it commit
// without applying anywhere.
func TestCommandByValueIsRejected(t *testing.T) {
	e := raft.Entry{Term: 1, Index: 7, Data: Command{Kind: CmdPut}}
	for name, f := range map[string]func(){
		"apply":   func() { (&Replica{}).apply(e) },
		"persist": func() { appendWALRecord(nil, raft.HardState{}, []raft.Entry{e}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took a Command by value", name)
				}
			}()
			f()
		}()
	}
	if got := entryCommand(raft.Entry{Data: &Command{Kind: CmdSplit}}); got.Kind != CmdSplit {
		t.Errorf("entryCommand read %v", got.Kind)
	}
}

// TestProposedWriteKeepsItsOwnMeta: a pipelined write's command carries a
// copy of its transaction's meta, not the coordinator's live record, which
// moves on once the leaseholder replies (a pushed write timestamp) while the
// command sits in every replica's log until compaction. After the test
// changes the record's timestamp and anchor, the logged command still reads
// the meta it was proposed with, and every replica, applying it after the
// change, lays the intent the leaseholder evaluated.
func TestProposedWriteKeepsItsOwnMeta(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	key, anchor := mvcc.Key("k/1"), mvcc.Key("k/anchor")
	var logged []*Command
	h.net.Register(2, func(m simnet.Message) {
		if env, ok := m.Payload.(*RaftEnvelope); ok && env.RangeID == desc.RangeID {
			for _, e := range env.Msg.Entries {
				if e.Data != nil && entryCommand(e).Kind == CmdPut {
					logged = append(logged, entryCommand(e))
				}
			}
		}
		h.stores[2].handleMessage(m)
	})
	tx := GatewayTxn(st, anchor, 0)
	var proposed mvcc.TxnMeta
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		resp := rep.evaluate(p, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: tx.Meta.WriteTimestamp, Txn: &tx, Pipelined: true})
		if resp.Err != nil {
			return resp.Err
		}
		if len(rep.pipelined) != 1 {
			t.Fatalf("setup: the write left %d pipelined writes, want 1", len(rep.pipelined))
		}
		proposed = tx.Meta
		tx.Meta.WriteTimestamp = tx.Meta.WriteTimestamp.Add(sim.Second)
		tx.Meta.Key = mvcc.Key("k/elsewhere")
		p.Sleep(sim.Second)
		return nil
	})
	if len(logged) == 0 {
		t.Fatal("setup: n2 was sent no entry carrying the write")
	}
	for _, cmd := range logged {
		if cmd.Txn == nil || cmd.Txn == &tx.Meta {
			t.Errorf("the logged command's meta is %p, the coordinator's record is at %p", cmd.Txn, &tx.Meta)
			continue
		}
		if cmd.Txn.WriteTimestamp != proposed.WriteTimestamp || string(cmd.Txn.Key) != string(anchor) {
			t.Errorf("the logged command's meta reads %q at %v after the coordinator changed its record, want %q at %v", cmd.Txn.Key, cmd.Txn.WriteTimestamp, anchor, proposed.WriteTimestamp)
		}
	}
	for id, st := range h.stores {
		r, _ := st.Replica(desc.RangeID)
		if meta, ok := r.engine.GetIntent(key); !ok || string(meta.Key) != string(anchor) {
			t.Errorf("n%d holds an intent anchored at %q (found %v), want %q", id, meta.Key, ok, anchor)
		}
	}
}
