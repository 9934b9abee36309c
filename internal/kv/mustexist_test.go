package kv

import (
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// mustExistPut is a one-phase commit of key=value by a fresh transaction
// reading at rts, conditional on a live value (MustExist).
func mustExistPut(st *Store, key, value string, rts hlc.Timestamp) *PutRequest {
	id := st.Registry.Begin(st.NodeID, 0)
	return &PutRequest{
		Key: mvcc.Key(key), Value: mvcc.Value(value), Timestamp: rts,
		Txn:       &Txn{Meta: mvcc.TxnMeta{ID: id, WriteTimestamp: rts}, ReadTimestamp: rts},
		MustExist: true, Commit1PC: true, ReadFromTS: rts,
	}
}

// TestMustExistLaysNothingWhereNoRowLives: a MustExist write over a key with
// no live value at its read timestamp — nothing ever written, a tombstone, an
// aborted holder's intent — answers Absent. It proposes nothing, claims no
// commit, gives back the lock it took and leaves the key's value as it was;
// it records the key as read at its read timestamp, so a later write below
// that timestamp lands above it.
func TestMustExistLaysNothingWhereNoRowLives(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		for _, v := range []mvcc.Value{mvcc.Value("old"), nil} {
			if resp := r.evaluate(p, &PutRequest{Key: mvcc.Key("tombstone"), Value: v, Timestamp: st.Clock.Now()}); resp.Err != nil {
				return resp.Err
			}
		}
		now := st.Clock.Now()
		holder := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(st.NodeID, 0), Key: mvcc.Key("aborted"), WriteTimestamp: now}, ReadTimestamp: now}
		if resp := r.evaluate(p, &PutRequest{Key: mvcc.Key("aborted"), Value: mvcc.Value("new"), Timestamp: now, Txn: holder}); resp.Err != nil {
			return resp.Err
		}
		st.Registry.Abort(holder.Meta.ID)
		return nil
	})
	h.s.RunFor(sim.Second)
	h.run(t, sim.Second, func(p *sim.Proc) error {
		for _, key := range []string{"nothing", "tombstone", "aborted"} {
			rts := st.Clock.Now()
			put := mustExistPut(st, key, "v", rts)
			before := proposed(r)
			resp := r.evaluate(p, put)
			if resp.Err != nil || !resp.Put.Absent || resp.Put.Committed || resp.Put.Declined1PC {
				t.Errorf("MustExist over %s: %+v (%v), want Absent", key, resp.Put, resp.Err)
			}
			if n := proposed(r) - before; n != 0 {
				t.Errorf("MustExist over %s proposed %d commands, want none", key, n)
			}
			if status, _ := st.Registry.Status(put.Txn.Meta.ID); status != mvcc.Pending {
				t.Errorf("MustExist over %s left its transaction %v, want pending", key, status)
			}
			if holder := r.keys.entries[key].holder; holder != 0 {
				t.Errorf("MustExist over %s left the key locked by %d", key, holder)
			}
			if val, _, err := r.engine.Get(mvcc.Key(key), hlc.MaxTimestamp, mvcc.GetOptions{Records: st.Registry}); err != nil || val != nil {
				t.Errorf("MustExist over %s: the key reads %q (%v), want no value", key, val, err)
			}
			later := r.evaluate(p, &PutRequest{Key: mvcc.Key(key), Value: mvcc.Value("later"), Timestamp: rts.Prev()})
			if later.Err != nil || !rts.Less(later.Put.WriteTimestamp) {
				t.Errorf("a write of %s below the read at %v landed at %v (%v), want above it", key, rts, later.Put.WriteTimestamp, later.Err)
			}
		}
		return nil
	})
}

// TestMustExistCommitsOverLiveRow: a MustExist write over a live value no
// newer than its read timestamp commits in one phase at that timestamp, one
// CmdPut; re-sent after its reply was lost, it finds its own commit and
// proposes nothing.
func TestMustExistCommitsOverLiveRow(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	h.run(t, sim.Second, func(p *sim.Proc) error {
		return r.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("old"), Timestamp: st.Clock.Now()}).Err
	})
	h.s.RunFor(sim.Second)
	rts := st.Clock.Now()
	put := mustExistPut(st, "k", "new", rts)
	puts := r.Proposed[CmdPut]
	var first, again Response
	h.run(t, sim.Second, func(p *sim.Proc) error {
		first = r.evaluate(p, put)
		again = r.evaluate(p, put) // the reply was lost: the DistSender re-sends
		return nil
	})
	if first.Err != nil || !first.Put.Committed || first.Put.WriteTimestamp != rts {
		t.Fatalf("MustExist over a live value: %+v (%v), want committed at %v", first.Put, first.Err, rts)
	}
	if n := r.Proposed[CmdPut] - puts; n != 1 {
		t.Errorf("the commit and its re-send proposed %d writes, want 1", n)
	}
	if again.Err != nil || again.Put != first.Put {
		t.Errorf("re-sent MustExist commit: %+v (%v), want the first attempt's %+v", again.Put, again.Err, first.Put)
	}
	if status, cts := st.Registry.Status(put.Txn.Meta.ID); status != mvcc.Committed || cts != rts {
		t.Errorf("record: %v at %v, want committed at %v", status, cts, rts)
	}
	if val, vts, err := r.engine.Get(mvcc.Key("k"), hlc.MaxTimestamp, mvcc.GetOptions{}); err != nil || string(val) != "new" || vts != rts {
		t.Errorf("the key reads %q at %v (%v), want \"new\" at %v", val, vts, err, rts)
	}
}

// TestMustExistDeclinesAboveReadTimestamp: a MustExist write whose key holds
// a version above its read timestamp declines, as a pushed one-phase commit
// does: nothing proposed, no commit claimed, the value untouched.
func TestMustExistDeclinesAboveReadTimestamp(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	rts := st.Clock.Now()
	put := mustExistPut(st, "k", "mine", rts)
	h.s.RunFor(sim.Millisecond)
	var resp Response
	var puts int64
	h.run(t, sim.Second, func(p *sim.Proc) error {
		if w := r.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("newer"), Timestamp: st.Clock.Now()}); w.Err != nil || !rts.Less(w.Put.WriteTimestamp) {
			t.Fatalf("setup: write at %v (%v), want above %v", w.Put.WriteTimestamp, w.Err, rts)
		}
		puts = r.Proposed[CmdPut]
		resp = r.evaluate(p, put)
		return nil
	})
	if resp.Err != nil || !resp.Put.Declined1PC || resp.Put.Committed || resp.Put.Absent {
		t.Errorf("MustExist below a newer version: %+v (%v), want declined", resp.Put, resp.Err)
	}
	if n := r.Proposed[CmdPut] - puts; n != 0 {
		t.Errorf("the declined write proposed %d writes, want none", n)
	}
	if status, _ := st.Registry.Status(put.Txn.Meta.ID); status != mvcc.Pending {
		t.Errorf("record: %v, want pending", status)
	}
	if val, _, err := r.engine.Get(mvcc.Key("k"), hlc.MaxTimestamp, mvcc.GetOptions{}); err != nil || string(val) != "newer" {
		t.Errorf("the key reads %q (%v), want \"newer\"", val, err)
	}
}
