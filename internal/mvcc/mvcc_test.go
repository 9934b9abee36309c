package mvcc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"mrdb/internal/hlc"
)

func ts(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }

func k(s string) Key   { return Key(s) }
func v(s string) Value { return Value(s) }

func mustPut(t *testing.T, e *Engine, key, val string, at int64, txn *TxnMeta) {
	t.Helper()
	if _, err := e.Put(k(key), v(val), ts(at), txn); err != nil {
		t.Fatalf("Put(%s@%d): %v", key, at, err)
	}
}

func TestPutGetBasic(t *testing.T) {
	e := NewEngine(1)
	mustPut(t, e, "a", "v1", 10, nil)
	mustPut(t, e, "a", "v2", 20, nil)

	val, vts, err := e.Get(k("a"), ts(15), GetOptions{})
	if err != nil || string(val) != "v1" || vts != ts(10) {
		t.Fatalf("Get@15 = %q@%v err=%v", val, vts, err)
	}
	val, _, _ = e.Get(k("a"), ts(25), GetOptions{})
	if string(val) != "v2" {
		t.Fatalf("Get@25 = %q", val)
	}
	val, _, _ = e.Get(k("a"), ts(5), GetOptions{})
	if val != nil {
		t.Fatalf("Get@5 should see nothing, got %q", val)
	}
	val, _, _ = e.Get(k("missing"), ts(100), GetOptions{})
	if val != nil {
		t.Fatal("missing key returned value")
	}
}

func TestTombstone(t *testing.T) {
	e := NewEngine(1)
	mustPut(t, e, "a", "v1", 10, nil)
	if _, err := e.Put(k("a"), nil, ts(20), nil); err != nil {
		t.Fatal(err)
	}
	val, _, _ := e.Get(k("a"), ts(25), GetOptions{})
	if val != nil {
		t.Fatalf("deleted key visible: %q", val)
	}
	val, _, _ = e.Get(k("a"), ts(15), GetOptions{})
	if string(val) != "v1" {
		t.Fatal("old version hidden by later tombstone")
	}
}

func TestWriteTooOld(t *testing.T) {
	e := NewEngine(1)
	mustPut(t, e, "a", "v1", 20, nil)
	_, err := e.Put(k("a"), v("v0"), ts(10), nil)
	var wto *WriteTooOldError
	if !errors.As(err, &wto) {
		t.Fatalf("expected WriteTooOldError, got %v", err)
	}
	if !ts(20).Less(wto.ActualTimestamp) {
		t.Fatalf("ActualTimestamp %v not above existing", wto.ActualTimestamp)
	}
	// Writing at exactly the existing timestamp also fails.
	if _, err := e.Put(k("a"), v("x"), ts(20), nil); err == nil {
		t.Fatal("write at equal timestamp should fail")
	}
}

func TestIntentVisibility(t *testing.T) {
	e := NewEngine(1)
	txn := &TxnMeta{ID: 7, Epoch: 0}
	if _, err := e.Put(k("a"), v("prov"), ts(10), txn); err != nil {
		t.Fatal(err)
	}
	if e.IntentCount() != 1 {
		t.Fatalf("IntentCount = %d", e.IntentCount())
	}

	// Other readers at ts >= 10 block on the intent.
	_, _, err := e.Get(k("a"), ts(15), GetOptions{})
	var wie *WriteIntentError
	if !errors.As(err, &wie) || wie.Txn.ID != 7 {
		t.Fatalf("expected WriteIntentError{txn 7}, got %v", err)
	}
	// Readers below the intent timestamp don't see or block on it.
	val, _, err := e.Get(k("a"), ts(5), GetOptions{})
	if err != nil || val != nil {
		t.Fatalf("reader below intent: %q, %v", val, err)
	}
	// The owning transaction reads its own write.
	val, _, err = e.Get(k("a"), ts(15), GetOptions{Txn: txn})
	if err != nil || string(val) != "prov" {
		t.Fatalf("read-your-writes: %q, %v", val, err)
	}
}

func TestIntentWriteConflict(t *testing.T) {
	e := NewEngine(1)
	t1 := &TxnMeta{ID: 1}
	t2 := &TxnMeta{ID: 2}
	if _, err := e.Put(k("a"), v("x"), ts(10), t1); err != nil {
		t.Fatal(err)
	}
	_, err := e.Put(k("a"), v("y"), ts(20), t2)
	var wie *WriteIntentError
	if !errors.As(err, &wie) {
		t.Fatalf("expected WriteIntentError, got %v", err)
	}
	// Non-transactional writers also block.
	if _, err := e.Put(k("a"), v("z"), ts(20), nil); err == nil {
		t.Fatal("non-txn write over intent should fail")
	}
	// The owner can rewrite its own intent, advancing its timestamp.
	if _, err := e.Put(k("a"), v("x2"), ts(30), t1); err != nil {
		t.Fatal(err)
	}
	meta, ok := e.GetIntent(k("a"))
	if !ok || meta.WriteTimestamp != ts(30) {
		t.Fatalf("intent after rewrite: %v %v", meta, ok)
	}
	if e.IntentCount() != 1 {
		t.Fatalf("IntentCount = %d after rewrite", e.IntentCount())
	}
}

func TestResolveIntentCommit(t *testing.T) {
	e := NewEngine(1)
	txn := &TxnMeta{ID: 9}
	if _, err := e.Put(k("a"), v("val"), ts(10), txn); err != nil {
		t.Fatal(err)
	}
	// Commit at a pushed timestamp.
	if err := e.ResolveIntent(k("a"), 9, Committed, ts(12)); err != nil {
		t.Fatal(err)
	}
	if e.IntentCount() != 0 {
		t.Fatal("intent not cleared")
	}
	val, vts, err := e.Get(k("a"), ts(15), GetOptions{})
	if err != nil || string(val) != "val" || vts != ts(12) {
		t.Fatalf("after commit: %q@%v err=%v", val, vts, err)
	}
	// Idempotent re-resolution.
	if err := e.ResolveIntent(k("a"), 9, Committed, ts(12)); err != nil {
		t.Fatal(err)
	}
}

func TestResolveIntentAbort(t *testing.T) {
	e := NewEngine(1)
	mustPut(t, e, "a", "base", 5, nil)
	txn := &TxnMeta{ID: 9}
	if _, err := e.Put(k("a"), v("prov"), ts(10), txn); err != nil {
		t.Fatal(err)
	}
	if err := e.ResolveIntent(k("a"), 9, Aborted, hlc.Timestamp{}); err != nil {
		t.Fatal(err)
	}
	val, _, err := e.Get(k("a"), ts(15), GetOptions{})
	if err != nil || string(val) != "base" {
		t.Fatalf("after abort: %q err=%v", val, err)
	}
}

func TestUncertaintyInterval(t *testing.T) {
	e := NewEngine(1)
	mustPut(t, e, "a", "new", 100, nil)

	// Read at 90 with uncertainty through 110: must observe the value.
	_, _, err := e.Get(k("a"), ts(90), GetOptions{UncertaintyLimit: ts(110)})
	var ue *UncertaintyError
	if !errors.As(err, &ue) {
		t.Fatalf("expected UncertaintyError, got %v", err)
	}
	if ue.ValueTimestamp != ts(100) {
		t.Fatalf("ValueTimestamp = %v", ue.ValueTimestamp)
	}
	if ue.FutureTime {
		t.Fatal("FutureTime set without LocalLimit")
	}

	// Future-time flag: local clock (95) behind the value (100).
	_, _, err = e.Get(k("a"), ts(90), GetOptions{UncertaintyLimit: ts(110), LocalLimit: ts(95)})
	if !errors.As(err, &ue) || !ue.FutureTime {
		t.Fatalf("expected future-time uncertainty, got %v", err)
	}

	// Value outside the interval: invisible, no error.
	val, _, err := e.Get(k("a"), ts(90), GetOptions{UncertaintyLimit: ts(99)})
	if err != nil || val != nil {
		t.Fatalf("outside uncertainty: %q, %v", val, err)
	}

	// Stale reads disable uncertainty entirely.
	val, _, err = e.Get(k("a"), ts(90), GetOptions{})
	if err != nil || val != nil {
		t.Fatalf("no-uncertainty read: %q, %v", val, err)
	}
}

func TestUncertainIntentBlocks(t *testing.T) {
	e := NewEngine(1)
	txn := &TxnMeta{ID: 3}
	if _, err := e.Put(k("a"), v("x"), ts(100), txn); err != nil {
		t.Fatal(err)
	}
	// Intent above read ts but within uncertainty: blocks.
	_, _, err := e.Get(k("a"), ts(90), GetOptions{UncertaintyLimit: ts(110)})
	var wie *WriteIntentError
	if !errors.As(err, &wie) {
		t.Fatalf("expected WriteIntentError, got %v", err)
	}
	// Intent above the uncertainty limit: invisible.
	val, _, err := e.Get(k("a"), ts(90), GetOptions{UncertaintyLimit: ts(95)})
	if err != nil || val != nil {
		t.Fatalf("intent above uncertainty: %q, %v", val, err)
	}
}

func TestScan(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		mustPut(t, e, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i), 10, nil)
	}
	e.Put(k("k03"), nil, ts(20), nil)

	kvs, err := e.Scan(k("k02"), k("k07"), ts(30), 0, GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key))
	}
	want := []string{"k02", "k04", "k05", "k06"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}

	// Limit.
	kvs, _ = e.Scan(k("k00"), nil, ts(30), 3, GetOptions{})
	if len(kvs) != 3 {
		t.Fatalf("limited scan returned %d", len(kvs))
	}

	// Scan hits an intent.
	if _, err := e.Put(k("k05"), v("locked"), ts(25), &TxnMeta{ID: 4}); err != nil {
		t.Fatal(err)
	}
	_, err = e.Scan(k("k00"), nil, ts(30), 0, GetOptions{})
	var wie *WriteIntentError
	if !errors.As(err, &wie) || string(wie.Key) != "k05" {
		t.Fatalf("scan over intent: %v", err)
	}
}

func TestEpochIsolation(t *testing.T) {
	e := NewEngine(1)
	txn := &TxnMeta{ID: 6, Epoch: 0}
	if _, err := e.Put(k("a"), v("old-epoch"), ts(10), txn); err != nil {
		t.Fatal(err)
	}
	// After a restart the txn re-reads at epoch 1: old intent invisible.
	reader := &TxnMeta{ID: 6, Epoch: 1}
	val, _, err := e.Get(k("a"), ts(15), GetOptions{Txn: reader})
	if err != nil || val != nil {
		t.Fatalf("old-epoch intent visible: %q %v", val, err)
	}
	// New epoch rewrites the intent.
	if _, err := e.Put(k("a"), v("new-epoch"), ts(20), reader); err != nil {
		t.Fatal(err)
	}
	val, _, _ = e.Get(k("a"), ts(25), GetOptions{Txn: reader})
	if string(val) != "new-epoch" {
		t.Fatalf("got %q", val)
	}
}

func TestGC(t *testing.T) {
	e := NewEngine(1)
	for i := int64(1); i <= 10; i++ {
		mustPut(t, e, "a", fmt.Sprintf("v%d", i), i*10, nil)
	}
	if n := e.chain(k("a")).len(); n != 10 {
		t.Fatalf("versions = %d", n)
	}
	collected := e.GC(ts(55))
	if collected != 4 {
		t.Fatalf("collected %d, want 4", collected)
	}
	// Reads at or above the threshold are unaffected.
	val, _, _ := e.Get(k("a"), ts(55), GetOptions{})
	if string(val) != "v5" {
		t.Fatalf("Get@55 after GC = %q", val)
	}
	val, _, _ = e.Get(k("a"), ts(200), GetOptions{})
	if string(val) != "v10" {
		t.Fatalf("Get@200 after GC = %q", val)
	}
}

func TestResolveCommitBelowExistingFails(t *testing.T) {
	e := NewEngine(1)
	txn := &TxnMeta{ID: 8}
	if _, err := e.Put(k("a"), v("x"), ts(10), txn); err != nil {
		t.Fatal(err)
	}
	mustPut := func(at int64) {
		if _, err := e.Put(k("b"), v("y"), ts(at), nil); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(50)
	_ = mustPut
	// Simulate an illegal resolution below an existing committed version
	// on the same key: first commit a newer version is impossible while
	// the intent exists, so resolve at a normal ts then check the guard
	// by direct call.
	if err := e.ResolveIntent(k("a"), 8, Committed, ts(12)); err != nil {
		t.Fatal(err)
	}
	txn2 := &TxnMeta{ID: 9}
	if _, err := e.Put(k("a"), v("z"), ts(20), txn2); err != nil {
		t.Fatal(err)
	}
	if err := e.ResolveIntent(k("a"), 9, Committed, ts(5)); err == nil {
		t.Fatal("commit below existing version should error")
	}
}

// Property: for any interleaving of non-transactional writes at distinct
// ascending timestamps, a read at time T returns the value with the largest
// timestamp <= T.
func TestQuickSnapshotSemantics(t *testing.T) {
	f := func(writes []uint8, readAt uint8) bool {
		e := NewEngine(3)
		type w struct {
			ts  int64
			val string
		}
		var log []w
		next := int64(1)
		for _, x := range writes {
			next += int64(x%7) + 1
			val := fmt.Sprintf("v@%d", next)
			if _, err := e.Put(k("key"), v(val), ts(next), nil); err != nil {
				return false
			}
			log = append(log, w{next, val})
		}
		rts := int64(readAt)
		var want string
		for _, entry := range log {
			if entry.ts <= rts {
				want = entry.val
			}
		}
		got, _, err := e.Get(k("key"), ts(rts), GetOptions{})
		if err != nil {
			return false
		}
		if want == "" {
			return got == nil
		}
		return string(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: scans return keys in strictly ascending order with no
// duplicates, for arbitrary key sets.
func TestQuickScanOrdered(t *testing.T) {
	f := func(keys [][]byte) bool {
		e := NewEngine(4)
		for i, key := range keys {
			if len(key) == 0 {
				continue
			}
			e.Put(key, v(fmt.Sprintf("%d", i)), ts(int64(i)+1), nil)
		}
		kvs, err := e.Scan(nil, nil, ts(1<<40), 0, GetOptions{})
		if err != nil {
			return false
		}
		for i := 1; i < len(kvs); i++ {
			if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
