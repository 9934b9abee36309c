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

// batchCounter returns a check of the batches ds sent since the check's
// last call (or since batchCounter was called).
func batchCounter(t *testing.T, ds *kv.DistSender) func(step string, want int64) {
	last := ds.Batches
	return func(step string, want int64) {
		t.Helper()
		if got := ds.Batches - last; got != want {
			t.Errorf("%s sent %d batches, want %d", step, got, want)
		}
		last = ds.Batches
	}
}

// wantValue checks a read's result.
func wantValue(t *testing.T, step string, v mvcc.Value, err error, want string) {
	t.Helper()
	if err != nil || string(v) != want {
		t.Errorf("%s read %q, %v; want %q", step, v, err, want)
	}
}

// TestRepeatedGetSendsNothing: a point read of a key the transaction already
// read returns the value that read returned, absent keys included, and sends
// nothing for it. A read of a known and an unknown key sends the unknown
// one alone.
func TestRepeatedGetSendsNothing(t *testing.T) {
	h := newHarness(t, 50)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/a", "k/b"))
		co := h.coord(simnet.USEast1)
		sent := batchCounter(t, co.Sender)
		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/a"))
		wantValue(t, "first Get", v, err, "v-k/a")
		sent("first Get", 1)
		v, err = tx.Get(p, mvcc.Key("k/a"))
		wantValue(t, "repeated Get", v, err, "v-k/a")
		sent("repeated Get", 0)
		v, err = tx.Get(p, mvcc.Key("k/none"))
		wantValue(t, "Get of an absent key", v, err, "")
		sent("Get of an absent key", 1)
		v, err = tx.Get(p, mvcc.Key("k/none"))
		wantValue(t, "repeated Get of an absent key", v, err, "")
		sent("repeated Get of an absent key", 0)
		reqs := co.Sender.BatchedReqs
		vs, err := getAll(p, tx, keysOf("k/a", "k/b", "k/none"))
		if err != nil || string(vs[0]) != "v-k/a" || string(vs[1]) != "v-k/b" || vs[2] != nil {
			t.Errorf("GetParallel of two known keys and one unknown: %q, %v", vs, err)
		}
		sent("GetParallel", 1)
		if got := co.Sender.BatchedReqs - reqs; got != 1 {
			t.Errorf("GetParallel sent %d requests, want 1 (k/b's)", got)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockingReadOfAKnownKeySendsNothing: GetForUpdate of a key the
// transaction has read returns that read's value and sends nothing. The key's
// lock and intent arrive with the write that follows, which rides the
// transaction's next batch.
func TestLockingReadOfAKnownKeySendsNothing(t *testing.T) {
	h := newHarness(t, 51)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/x", "k/y"))
		co := h.coord(simnet.USEast1)
		sent := batchCounter(t, co.Sender)
		lh, _ := h.c.Stores[h.desc.Leaseholder].Replica(h.desc.RangeID)
		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/x"))
		wantValue(t, "Get", v, err, "v-k/x")
		sent("Get", 1)
		v, err = tx.GetForUpdate(p, mvcc.Key("k/x"))
		wantValue(t, "GetForUpdate of the read key", v, err, "v-k/x")
		sent("GetForUpdate of the read key", 0)
		if err := tx.Put(p, mvcc.Key("k/x"), mvcc.Value("mine")); err != nil {
			t.Fatal(err)
		}
		sent("Put", 0)
		if _, ok := lh.EngineForBulkLoad().GetIntent(mvcc.Key("k/x")); ok {
			t.Error("k/x holds an intent before any batch carried its write")
		}
		v, err = tx.Get(p, mvcc.Key("k/y"))
		wantValue(t, "Get of another key", v, err, "v-k/y")
		sent("Get of another key", 1)
		p.Sleep(50 * sim.Millisecond) // the pipelined write applies
		if meta, ok := lh.EngineForBulkLoad().GetIntent(mvcc.Key("k/x")); !ok || meta.ID != tx.ID() {
			t.Errorf("after the next batch k/x's intent is %v, %v; want the transaction's", meta, ok)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if got := h.readBack(t, p, "k/x"); string(got) != "mine" {
			t.Errorf("k/x = %q after commit, want %q", got, "mine")
		}
	})
}

// TestGetOfASentWriteSendsNothing: once a write has left with a batch, a
// point read of its key returns the written value (nil for a tombstone) and
// sends nothing, even for a key read before the write.
func TestGetOfASentWriteSendsNothing(t *testing.T) {
	h := newHarness(t, 52)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/a", "k/b", "k/d"))
		co := h.coord(simnet.USEast1)
		sent := batchCounter(t, co.Sender)
		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/d"))
		wantValue(t, "Get before the write", v, err, "v-k/d")
		sent("Get before the write", 1)
		for _, w := range []struct{ key, value string }{{"k/a", "new-a"}, {"k/d", "new-d"}} {
			if err := tx.Put(p, mvcc.Key(w.key), mvcc.Value(w.value)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Put(p, mvcc.Key("k/b"), nil); err != nil {
			t.Fatal(err)
		}
		v, err = tx.Get(p, mvcc.Key("k/c"))
		wantValue(t, "Get carrying the writes", v, err, "")
		sent("Get carrying the writes", 1)

		v, err = tx.Get(p, mvcc.Key("k/a"))
		wantValue(t, "Get of a sent write", v, err, "new-a")
		v, err = tx.Get(p, mvcc.Key("k/b"))
		wantValue(t, "Get of a sent tombstone", v, err, "")
		v, err = tx.GetForUpdate(p, mvcc.Key("k/d"))
		wantValue(t, "GetForUpdate of a key read then written", v, err, "new-d")
		vs, err := getAll(p, tx, keysOf("k/a", "k/b", "k/c", "k/d"))
		if err != nil || string(vs[0]) != "new-a" || vs[1] != nil || vs[2] != nil || string(vs[3]) != "new-d" {
			t.Errorf("GetParallel of known keys: %q, %v", vs, err)
		}
		sent("reads of known keys", 0)
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailedInsertLeavesTheEarlierValue: an INSERT whose condition failed
// wrote nothing, so the transaction does not remember its value. A key read
// before the INSERT still reads the earlier value without sending anything;
// a key never read is read from the leaseholder.
func TestFailedInsertLeavesTheEarlierValue(t *testing.T) {
	h := newHarness(t, 53)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/dup", "k/dup2"))
		co := h.coord(simnet.USEast1)
		sent := batchCounter(t, co.Sender)
		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/dup"))
		wantValue(t, "Get", v, err, "v-k/dup")
		sent("Get", 1)
		var cf *kv.ConditionFailedError
		for _, key := range []string{"k/dup", "k/dup2"} {
			err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key(key), Value: mvcc.Value("mine")}}, []bool{true})
			if !errors.As(err, &cf) {
				t.Fatalf("INSERT of existing %s: %v, want a failed condition", key, err)
			}
			sent("INSERT of "+key, 1)
		}
		v, err = tx.Get(p, mvcc.Key("k/dup"))
		wantValue(t, "Get of the read key after its failed INSERT", v, err, "v-k/dup")
		sent("Get of the read key after its failed INSERT", 0)
		v, err = tx.Get(p, mvcc.Key("k/dup2"))
		wantValue(t, "Get of an unread key after its failed INSERT", v, err, "v-k/dup2")
		sent("Get of an unread key after its failed INSERT", 1)
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKnownValuesSurviveAnUncertaintyRefresh: a read that meets an uncertain
// value refreshes the transaction's earlier reads to the value's timestamp.
// The refresh proved those reads unchanged up to the new read timestamp, so
// their values still answer later reads without a batch.
func TestKnownValuesSurviveAnUncertaintyRefresh(t *testing.T) {
	h := newHarness(t, 54)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/a"))
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/a"))
		wantValue(t, "Get", v, err, "v-k/a")
		// A write committed just after the transaction began lies inside its
		// uncertainty interval.
		if err := co.Run(p, func(other *txn.Txn) error {
			return other.Put(p, mvcc.Key("k/u"), mvcc.Value("uncertain"))
		}); err != nil {
			t.Fatal(err)
		}
		before := tx.ReadTimestamp()
		v, err = tx.Get(p, mvcc.Key("k/u"))
		wantValue(t, "Get of the uncertain value", v, err, "uncertain")
		if !before.Less(tx.ReadTimestamp()) {
			t.Fatalf("read timestamp stayed at %v: the test no longer meets an uncertain value", before)
		}
		sent := batchCounter(t, co.Sender)
		v, err = tx.Get(p, mvcc.Key("k/a"))
		wantValue(t, "Get of the key read before the refresh", v, err, "v-k/a")
		v, err = tx.Get(p, mvcc.Key("k/u"))
		wantValue(t, "Get of the key read after the refresh", v, err, "uncertain")
		sent("reads after the refresh", 0)
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLostUpdateRestarts: T1 reads x=10, T2 commits x=20, and T1's
// GetForUpdate of x returns the 10 it read, sending nothing. T1's write of
// x then lands above T2's, the commit's refresh of T1's read fails, and Run
// restarts T1, which reads 20: the result is 20+, not 10+.
func TestLostUpdateRestarts(t *testing.T) {
	h := newHarness(t, 55)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		x := mvcc.Key("k/x")
		if err := co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, x, mvcc.Value("10")) }); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second)
		attempts := 0
		err := co.Run(p, func(tx *txn.Txn) error {
			attempts++
			if _, err := tx.Get(p, x); err != nil {
				return err
			}
			if attempts == 1 {
				if err := co.Run(p, func(t2 *txn.Txn) error { return t2.Put(p, x, mvcc.Value("20")) }); err != nil {
					t.Fatal(err)
				}
			}
			sent := batchCounter(t, co.Sender)
			v, err := tx.GetForUpdate(p, x)
			if err != nil {
				return err
			}
			sent("GetForUpdate of the read key", 0)
			if attempts == 1 && string(v) != "10" {
				t.Errorf("first attempt's GetForUpdate read %q, want the 10 its Get read", v)
			}
			return tx.Put(p, x, append(v, '+'))
		})
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 2 {
			t.Errorf("Run took %d attempts, want 2", attempts)
		}
		if got := h.readBack(t, p, "k/x"); string(got) != "20+" {
			t.Errorf("x = %q, want %q", got, "20+")
		}
	})
}

// TestDuplicateOnAStaleSnapshotRestarts: T1 reads the next row number n,
// then T2 takes n (writes n+1 and inserts row n) and commits. T1's INSERT of
// row n meets T2's row above T1's read timestamp. That is not a duplicate T1
// may report: its read of the counter no longer holds at T2's timestamp, so
// the refresh fails and T1 restarts, reads n+1 and inserts that row.
func TestDuplicateOnAStaleSnapshotRestarts(t *testing.T) {
	h := newHarness(t, 56)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		next := mvcc.Key("k/next")
		if err := co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, next, mvcc.Value("1")) }); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second)
		attempts := 0
		var firstErr error
		err := co.Run(p, func(tx *txn.Txn) error {
			attempts++
			n, err := tx.Get(p, next)
			if err != nil {
				return err
			}
			m := mvcc.Value{n[0] + 1}
			if attempts == 1 {
				if err := co.Run(p, func(t2 *txn.Txn) error {
					if err := t2.Put(p, next, m); err != nil {
						return err
					}
					return t2.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/row-" + string(n)), Value: mvcc.Value("t2")}}, []bool{true})
				}); err != nil {
					t.Fatal(err)
				}
			}
			err = tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/row-" + string(n)), Value: mvcc.Value("t1")}}, []bool{true})
			if attempts == 1 {
				firstErr = err
			}
			if err != nil {
				return err
			}
			return tx.Put(p, next, m)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var rt *kv.RetryableTxnError
		if !errors.As(firstErr, &rt) {
			t.Errorf("INSERT of a row taken above the read timestamp: %v, want a retryable error", firstErr)
		}
		if attempts != 2 {
			t.Errorf("Run took %d attempts, want 2", attempts)
		}
		for _, w := range []struct{ key, want string }{{"k/row-1", "t2"}, {"k/row-2", "t1"}, {"k/next", "3"}} {
			if got := h.readBack(t, p, w.key); string(got) != w.want {
				t.Errorf("%s = %q, want %q", w.key, got, w.want)
			}
		}
	})
}

// TestDuplicateAboveTheReadTimestampIsReported: an INSERT meets a row
// committed above the transaction's read timestamp, and the refresh of the
// transaction's reads to that row's timestamp succeeds. The row is then a
// duplicate the transaction may see: the INSERT fails with it, and the read
// timestamp moves up to it.
func TestDuplicateAboveTheReadTimestampIsReported(t *testing.T) {
	h := newHarness(t, 57)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/elsewhere"))
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if _, err := tx.Get(p, mvcc.Key("k/elsewhere")); err != nil {
			t.Fatal(err)
		}
		if err := co.Run(p, func(t2 *txn.Txn) error {
			return t2.Put(p, mvcc.Key("k/taken"), mvcc.Value("t2"))
		}); err != nil {
			t.Fatal(err)
		}
		err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/taken"), Value: mvcc.Value("t1")}}, []bool{true})
		var cf *kv.ConditionFailedError
		if !errors.As(err, &cf) {
			t.Fatalf("INSERT of a row committed after the read: %v, want a failed condition", err)
		}
		if tx.ReadTimestamp().Less(cf.Existing) {
			t.Errorf("read timestamp %v below the duplicate's %v", tx.ReadTimestamp(), cf.Existing)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}
