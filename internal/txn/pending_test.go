package txn_test

import (
	"errors"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// seedKeys commits kvs and waits out their asynchronous intent resolution,
// which the us-east1 gateway's DistSender would otherwise count.
func (h *harness) seedKeys(t *testing.T, p *sim.Proc, kvs []mvcc.KeyValue) {
	t.Helper()
	if err := h.coord(simnet.USEast1).Run(p, func(tx *txn.Txn) error {
		return tx.PutParallel(p, kvs, nil)
	}); err != nil {
		t.Fatal(err)
	}
	p.Sleep(sim.Second)
}

// readBack returns key's committed value.
func (h *harness) readBack(t *testing.T, p *sim.Proc, key string) mvcc.Value {
	t.Helper()
	var v mvcc.Value
	if err := h.coord(simnet.USEast1).Run(p, func(tx *txn.Txn) error {
		var err error
		v, err = tx.Get(p, mvcc.Key(key))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestReadsOfPendingWritesComeFromTheBuffer: an unconditional write sends
// nothing; Get, GetForUpdate and GetParallel of a key with a pending write
// return that write's value (nil for a tombstone) without sending anything
// for the key. A read that also asks for another key sends one batch: the
// pending writes and that key's read. Once the writes have left, a read of
// one of their keys still sends nothing: the transaction knows what it wrote.
func TestReadsOfPendingWritesComeFromTheBuffer(t *testing.T) {
	h := newHarness(t, 40)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/a", "k/b", "k/c", "k/e"))
		co := h.coord(simnet.USEast1)
		ds := co.Sender
		tx := co.Begin(0)
		batches, reqs := ds.Batches, ds.BatchedReqs
		sent := func(step string, wantBatches, wantReqs int64) {
			t.Helper()
			if got := ds.Batches - batches; got != wantBatches {
				t.Errorf("%s sent %d batches, want %d", step, got, wantBatches)
			}
			if got := ds.BatchedReqs - reqs; got != wantReqs {
				t.Errorf("%s sent %d requests, want %d", step, got, wantReqs)
			}
			batches, reqs = ds.Batches, ds.BatchedReqs
		}
		for _, w := range []struct{ key, value string }{{"k/a", "new-a"}, {"k/c", "new-c"}, {"k/d", "new-d"}} {
			if err := tx.Put(p, mvcc.Key(w.key), mvcc.Value(w.value)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Put(p, mvcc.Key("k/b"), nil); err != nil {
			t.Fatal(err)
		}
		sent("Put of values and of a tombstone", 0, 0)

		if v, err := tx.Get(p, mvcc.Key("k/a")); err != nil || string(v) != "new-a" {
			t.Errorf("Get of a pending write: %q, %v", v, err)
		}
		sent("Get", 0, 0)
		if v, err := tx.GetForUpdate(p, mvcc.Key("k/b")); err != nil || v != nil {
			t.Errorf("GetForUpdate of a pending tombstone: %q, %v", v, err)
		}
		sent("GetForUpdate", 0, 0)
		vs, err := getAll(p, tx, keysOf("k/c", "k/d", "k/b"))
		if err != nil || string(vs[0]) != "new-c" || string(vs[1]) != "new-d" || vs[2] != nil {
			t.Errorf("GetParallel of pending writes: %q, %v", vs, err)
		}
		sent("GetParallel", 0, 0)

		// k/e has no pending write: its read carries the four pending writes.
		vs, err = getAll(p, tx, keysOf("k/a", "k/e", "k/b"))
		if err != nil || string(vs[0]) != "new-a" || string(vs[1]) != "v-k/e" || vs[2] != nil {
			t.Errorf("GetParallel beside pending writes: %q, %v", vs, err)
		}
		sent("GetParallel with a key to read", 1, 5)
		if v, err := tx.Get(p, mvcc.Key("k/a")); err != nil || string(v) != "new-a" {
			t.Errorf("Get of a sent write: %q, %v", v, err)
		}
		sent("Get after the writes left", 0, 0)
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ key, want string }{{"k/a", "new-a"}, {"k/b", ""}, {"k/c", "new-c"}, {"k/d", "new-d"}} {
			if got := h.readBack(t, p, w.key); string(got) != w.want {
				t.Errorf("%s = %q after commit, want %q", w.key, got, w.want)
			}
		}
	})
}

// TestScanSeesPendingWrites: a scan sends the pending writes before it
// reads, so it returns the transaction's own.
func TestScanSeesPendingWrites(t *testing.T) {
	h := newHarness(t, 41)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/s1"))
		tx := h.coord(simnet.USEast1).Begin(0)
		if err := tx.Put(p, mvcc.Key("k/s2"), mvcc.Value("mine")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(p, mvcc.Key("k/s1"), nil); err != nil {
			t.Fatal(err)
		}
		spans, err := tx.Scan(p, [][2]mvcc.Key{{mvcc.Key("k/s"), mvcc.Key("k/t")}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := spans[0]
		if len(rows) != 1 || string(rows[0].Key) != "k/s2" || string(rows[0].Value) != "mine" {
			t.Errorf("scan over pending writes returned %v, want only k/s2=mine", rows)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPendingWritesAndTheInsertCondition: the coordinator checks an
// INSERT's condition against its pending writes too. An UPDATE then an
// INSERT of one key fails before anything is sent; a DELETE then an INSERT
// of a key that exists succeeds, and the key ends up holding the INSERT's
// value.
func TestPendingWritesAndTheInsertCondition(t *testing.T) {
	h := newHarness(t, 42)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/del"))
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if err := tx.Put(p, mvcc.Key("k/upd"), mvcc.Value("updated")); err != nil {
			t.Fatal(err)
		}
		sent := co.Sender.Sent
		var cf *kv.ConditionFailedError
		err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/upd"), Value: mvcc.Value("inserted")}}, []bool{true})
		if !errors.As(err, &cf) {
			t.Errorf("INSERT of a key the transaction updated: %v, want a failed condition", err)
		}
		if co.Sender.Sent != sent {
			t.Errorf("the rejected INSERT sent %d RPCs, want 0", co.Sender.Sent-sent)
		}
		if err := tx.Put(p, mvcc.Key("k/del"), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/del"), Value: mvcc.Value("again")}}, []bool{true}); err != nil {
			t.Errorf("INSERT of a key the transaction deleted: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if got := h.readBack(t, p, "k/del"); string(got) != "again" {
			t.Errorf("k/del = %q, want the INSERT's value", got)
		}
		if got := h.readBack(t, p, "k/upd"); string(got) != "updated" {
			t.Errorf("k/upd = %q, want the UPDATE's value", got)
		}
	})
}

// TestFailedInsertLeavesEarlierWritesCommittable: a pending write of an
// earlier statement rides a later INSERT's batch. When the INSERT's own
// condition fails, the INSERT failed whole: the ride-along write landed,
// the transaction is not half applied, and it commits that write.
func TestFailedInsertLeavesEarlierWritesCommittable(t *testing.T) {
	h := newHarness(t, 43)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/dup"))
		tx := h.coord(simnet.USEast1).Begin(0)
		if err := tx.Put(p, mvcc.Key("k/a"), mvcc.Value("a")); err != nil {
			t.Fatal(err)
		}
		var cf *kv.ConditionFailedError
		err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/dup"), Value: mvcc.Value("dup")}}, []bool{true})
		if !errors.As(err, &cf) {
			t.Fatalf("INSERT of an existing key: %v, want a failed condition", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit after a failed INSERT: %v", err)
		}
		if got := h.readBack(t, p, "k/a"); string(got) != "a" {
			t.Errorf("k/a = %q, want the earlier write's value", got)
		}
		if got := h.readBack(t, p, "k/dup"); string(got) != "v-k/dup" {
			t.Errorf("k/dup = %q, want its original value", got)
		}
	})
}

// TestFailedInsertOverAPendingDeleteCannotCommit: an INSERT that rewrites a
// key an earlier DELETE left pending shares that write's one entry. When the
// INSERT's other condition fails, the shared entry has already landed with
// the INSERT's value, so the INSERT is half applied and the transaction must
// not commit — as when the DELETE's tombstone had been sent at once.
func TestFailedInsertOverAPendingDeleteCannotCommit(t *testing.T) {
	h := newHarness(t, 46)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/row", "k/dup"))
		tx := h.coord(simnet.USEast1).Begin(0)
		if err := tx.Put(p, mvcc.Key("k/row"), nil); err != nil {
			t.Fatal(err)
		}
		var cf *kv.ConditionFailedError
		err := tx.PutParallel(p, []mvcc.KeyValue{
			{Key: mvcc.Key("k/row"), Value: mvcc.Value("inserted")},
			{Key: mvcc.Key("k/dup"), Value: mvcc.Value("inserted")},
		}, []bool{true, true})
		if !errors.As(err, &cf) {
			t.Fatalf("INSERT with a duplicate key: %v, want a failed condition", err)
		}
		if err := tx.Commit(p); err == nil {
			t.Error("a transaction whose failed INSERT landed one of its writes committed")
		}
		if got := h.readBack(t, p, "k/row"); string(got) != "v-k/row" {
			t.Errorf("k/row = %q, want its original value", got)
		}
	})
}

// TestAbortedPendingWriteFailsTheReadItRode: a pending write that rides a
// read queues on another transaction's lock, and its own transaction is
// aborted meanwhile. The read fails with the write's retryable error; the
// other pending write of the batch landed and is resolved by the abort; Run
// retries, and the second attempt commits.
func TestAbortedPendingWriteFailsTheReadItRode(t *testing.T) {
	h := newHarness(t, 44)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		holder := co.Begin(0)
		if err := holder.Put(p, mvcc.Key("k/held"), mvcc.Value("h")); err != nil {
			t.Fatal(err)
		}
		if _, err := holder.Get(p, mvcc.Key("k/other")); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		var readErr error
		err := co.Run(p, func(tx *txn.Txn) error {
			attempts++
			if err := tx.Put(p, mvcc.Key("k/held"), mvcc.Value("mine")); err != nil {
				return err
			}
			if attempts == 1 {
				if err := tx.Put(p, mvcc.Key("k/first-only"), mvcc.Value("x")); err != nil {
					return err
				}
				id := tx.ID()
				h.c.Sim.Spawn("pusher", func(wp *sim.Proc) {
					wp.Sleep(10 * sim.Millisecond)
					h.c.Registry.Abort(id)
					if err := holder.Commit(wp); err != nil {
						t.Error(err)
					}
				})
			}
			_, err := tx.Get(p, mvcc.Key("k/other"))
			if attempts == 1 {
				readErr = err
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var ta *kv.TxnAbortedError
		var rt *kv.RetryableTxnError
		if !errors.As(readErr, &ta) && !errors.As(readErr, &rt) {
			t.Errorf("the read its aborted pending write rode returned %v, want a retryable error", readErr)
		}
		if attempts != 2 {
			t.Errorf("Run took %d attempts, want 2", attempts)
		}
		if got := h.readBack(t, p, "k/held"); string(got) != "mine" {
			t.Errorf("k/held = %q after the retry, want %q", got, "mine")
		}
		p.Sleep(sim.Second) // async resolution replicates to every replica
		for _, id := range h.desc.Replicas() {
			rep, _ := h.c.Stores[id].Replica(h.desc.RangeID)
			if meta, ok := rep.EngineForBulkLoad().GetIntent(mvcc.Key("k/first-only")); ok {
				t.Errorf("n%d still holds the aborted attempt's intent on k/first-only (txn %d)", id, meta.ID)
			}
		}
	})
}
