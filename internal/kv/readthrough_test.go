package kv

import (
	"bytes"
	"errors"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// finishedIntents lays, on r, a committed value "old" and over it an intent
// "new" of a fresh transaction on each key, and returns the transactions.
func finishedIntents(t *testing.T, h *recoveryHarness, r *Replica, keys ...string) []mvcc.TxnID {
	t.Helper()
	st := r.store
	ids := make([]mvcc.TxnID, len(keys))
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		for i, key := range keys {
			if resp := r.evaluate(p, &PutRequest{Key: mvcc.Key(key), Value: mvcc.Value("old"), Timestamp: st.Clock.Now()}); resp.Err != nil {
				return resp.Err
			}
			ids[i] = st.Registry.Begin(st.NodeID, 0)
			now := st.Clock.Now()
			holder := &Txn{Meta: mvcc.TxnMeta{ID: ids[i], Key: mvcc.Key(key), WriteTimestamp: now}, ReadTimestamp: now}
			if resp := r.evaluate(p, &PutRequest{Key: mvcc.Key(key), Value: mvcc.Value("new"), Timestamp: now, Txn: holder}); resp.Err != nil {
				return resp.Err
			}
		}
		return nil
	})
	return ids
}

// proposed is how many commands r proposed, of every kind.
func proposed(r *Replica) (n int64) {
	for _, k := range r.Proposed {
		n += k
	}
	return n
}

// TestLeaseholderReadsThroughFinishedIntent: the leaseholder reads a finished
// transaction's intent through its record, at once and proposing nothing: a
// committed holder's intent is its value at the commit timestamp, and a read
// just below that timestamp, within its uncertainty interval, is uncertain of
// it; an aborted holder's intent, and one whose record was collected, is
// absent. A read of such an intent used to wait for a resolution of its own to
// apply.
func TestLeaseholderReadsThroughFinishedIntent(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	ids := finishedIntents(t, h, r, "committed", "aborted", "collected")
	cts := st.Clock.Now()
	for _, id := range []mvcc.TxnID{ids[0], ids[2]} {
		if err := st.Registry.TryCommit(id, cts); err != nil {
			t.Fatal(err)
		}
	}
	st.Registry.Abort(ids[1])
	st.Registry.GC(ids[2])
	get := func(p *sim.Proc, key string, at hlc.Timestamp, limit hlc.Timestamp) Response {
		start, before := p.Now(), proposed(r)
		req := &GetRequest{Key: mvcc.Key(key), Timestamp: at}
		if !limit.IsEmpty() {
			req.Txn = &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(st.NodeID, 0)}, ReadTimestamp: at, GlobalUncertaintyLimit: limit}
			req.Uncertainty = true
		}
		resp := r.evaluate(p, req)
		if waited, n := p.Now().Sub(start), proposed(r)-before; waited != 0 || n != 0 {
			t.Errorf("a read of %s waited %v and proposed %d commands, want neither", key, waited, n)
		}
		return resp
	}
	h.run(t, sim.Second, func(p *sim.Proc) error {
		now := st.Clock.Now()
		for _, c := range []struct{ key, val string }{{"committed", "new"}, {"aborted", "old"}, {"collected", "old"}} {
			resp := get(p, c.key, now, hlc.Timestamp{})
			if resp.Err != nil || string(resp.Get.Value) != c.val || c.val == "new" && resp.Get.Timestamp != cts {
				t.Errorf("read of %s: %q at %v (%v), want %q", c.key, resp.Get.Value, resp.Get.Timestamp, resp.Err, c.val)
			}
		}
		var ue *mvcc.UncertaintyError
		if resp := get(p, "committed", cts.Prev(), cts); !errors.As(resp.Err, &ue) || ue.ValueTimestamp != cts {
			t.Errorf("read just below the commit, within uncertainty: %+v (%v), want uncertain of the value at %v", resp.Get, resp.Err, cts)
		}
		return nil
	})
}

// TestWriteFoldsFinishedIntent: a write over a finished transaction's intent
// is one CmdPut that resolves the intent first (Command.Resolves), and no
// CmdResolveIntent: it lands above the commit timestamp, over the committed
// value. Every replica applies the same, and so does a WAL replay.
func TestWriteFoldsFinishedIntent(t *testing.T) {
	h := newRecoveryHarness(t, 3, 10*sim.Minute) // no checkpoint but n3's below: its restart replays the write
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	holder := finishedIntents(t, h, r, "k")[0]
	h.s.RunFor(sim.Second)
	h.stores[3].CheckpointNow()
	cts := st.Clock.Now()
	if err := st.Registry.TryCommit(holder, cts); err != nil {
		t.Fatal(err)
	}
	puts, resolutions := r.Proposed[CmdPut], r.Proposed[CmdResolveIntent]
	var written hlc.Timestamp
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		now := st.Clock.Now()
		w := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(st.NodeID, 0), Key: mvcc.Key("k"), WriteTimestamp: now}, ReadTimestamp: now}
		resp := r.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("newer"), Timestamp: cts.Prev(), Txn: w})
		written = resp.Put.WriteTimestamp
		return resp.Err
	})
	if n, m := r.Proposed[CmdPut]-puts, r.Proposed[CmdResolveIntent]-resolutions; n != 1 || m != 0 {
		t.Fatalf("the write proposed %d writes and %d resolutions, want one write", n, m)
	}
	if !cts.Less(written) {
		t.Errorf("the write landed at %v, want above the commit at %v", written, cts)
	}
	if v, vts, err := r.engine.Get(mvcc.Key("k"), cts, mvcc.GetOptions{}); err != nil || string(v) != "new" || vts != cts {
		t.Errorf("k at the commit timestamp reads %q at %v (%v), want the holder's new at %v", v, vts, err, cts)
	}
	h.s.RunFor(sim.Second)
	want := r.engine.AppendSnapshot(nil)
	for _, id := range []simnet.NodeID{2, 3} {
		f, _ := h.stores[id].Replica(desc.RangeID)
		if got := f.engine.AppendSnapshot(nil); !bytes.Equal(got, want) {
			t.Errorf("n%d's engine differs from the leaseholder's after the write applied", id)
		}
	}
	h.net.CrashNode(3)
	h.stores[3].Crash()
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		stats, err := h.stores[3].Recover(p)
		if err == nil && stats.ReplayedEntries == 0 {
			t.Error("the restart replayed no entry")
		}
		return err
	})
	// The replayed entries apply once the leader tells n3 they committed.
	snapshots := h.stores[3].SnapshotsApplied
	h.net.RestartNode(3)
	h.s.RunFor(sim.Second)
	f, _ := h.stores[3].Replica(desc.RangeID)
	if h.stores[3].SnapshotsApplied != snapshots {
		t.Fatal("n3 caught up through a snapshot, not its WAL")
	}
	if got := f.engine.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Error("n3's engine after its WAL replay differs from the leaseholder's")
	}
}

// TestStagingIntentBlocksAReader: a parallel commit still staging is
// pending to a reader, which waits for it to finish rather than read its
// intent through the record, and then reads the committed value.
func TestStagingIntentBlocksAReader(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	holder := finishedIntents(t, h, r, "k")[0]
	cts := st.Clock.Now()
	if err := st.Registry.TryStage(holder, cts); err != nil {
		t.Fatal(err)
	}
	read := sim.NewFuture[Response](h.s)
	h.s.Spawn("reader", func(p *sim.Proc) {
		read.Set(r.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: st.Clock.Now()}))
	})
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		if _, done := read.WaitTimeout(p, sim.Second); done {
			t.Fatal("a read of a staging transaction's intent did not wait")
		}
		if err := st.Registry.FinalizeStaged(holder); err != nil {
			return err
		}
		resp := read.Wait(p)
		if resp.Err != nil || string(resp.Get.Value) != "new" || resp.Get.Timestamp != cts {
			t.Errorf("read after the commit: %q at %v (%v), want new at %v", resp.Get.Value, resp.Get.Timestamp, resp.Err, cts)
		}
		return nil
	})
}

// TestReadWokenWithoutItsLeaseReadsNothing: a read parked on a running
// transaction's intent that wakes after its replica lost the lease answers
// NotLeaseholderError. Its engine need not hold the resolutions that let the
// holder's record go, so reading the intent through the record there would
// read a collected committed holder as aborted: the value from before it.
func TestReadWokenWithoutItsLeaseReadsNothing(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	holder := finishedIntents(t, h, r, "k")[0]
	read := sim.NewFuture[Response](h.s)
	h.s.Spawn("reader", func(p *sim.Proc) {
		read.Set(r.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: st.Clock.Now()}))
	})
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		if _, done := read.WaitTimeout(p, 100*sim.Millisecond); done {
			t.Fatal("a read of a running transaction's intent did not wait")
		}
		if err := h.admin.TransferLease(p, desc.RangeID, 2); err != nil {
			return err
		}
		if err := st.Registry.TryCommit(holder, st.Clock.Now()); err != nil {
			return err
		}
		st.Registry.GC(holder)
		var nle *NotLeaseholderError
		if resp := read.Wait(p); !errors.As(resp.Err, &nle) {
			t.Errorf("the read woken after its lease moved: %q at %v (%v), want NotLeaseholderError",
				resp.Get.Value, resp.Get.Timestamp, resp.Err)
		}
		return nil
	})
}
