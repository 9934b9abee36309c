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
