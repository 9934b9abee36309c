package mvcc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mrdb/internal/hlc"
)

// rowKey is a 31-byte key shaped like the SQL layer's.
func rowKey(i int) Key { return Key(fmt.Sprintf("/t/usertable/1/eu1/user%08d", i)) }

// TestHeapCostPerKey: every replica of a range holds every key, so what a
// key costs the heap — and how many objects the collector must visit for
// it — is paid five to seven times per row. A single-version key is one
// node in the engine's chunks beside the skiplist's pointer-free arena,
// value cells and index; with a version slice per key it was one object and
// 176 bytes, and with a node, a key copy and a chain object per key four
// objects and 317 bytes.
func TestHeapCostPerKey(t *testing.T) {
	const n = 10000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rowKey(i)
	}
	if len(keys[0]) != 31 {
		t.Fatalf("key is %d bytes, the bounds below are for 31", len(keys[0]))
	}
	val := Value("one value shared by every key")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(1)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if _, err := e.Put(keys[i], val, ts(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(after.HeapObjects-before.HeapObjects) / n
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.2f heap objects and %.0f bytes per key", objects, bytes)
	if objects > 0.1 {
		t.Errorf("%.2f heap objects per key, want <= 0.1", objects)
	}
	if bytes > 180 {
		t.Errorf("%.0f heap bytes per key, want <= 180", bytes)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(keys)
}

// TestWritePathAllocs: a committed write links one node from the engine's
// chunks, and an intent laid and resolved on a key finds the chain without
// allocating, so each rounds to nothing: on one hot key, on fresh keys, and
// over 1000 keys as their chains grow from one version to four. That sweep
// costs 0.016 objects per write, the node chunks and the skiplist's own
// growth; with a version slice per key it cost 0.76.
func TestWritePathAllocs(t *testing.T) {
	const n = 1000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rowKey(i)
	}
	val := v("y")
	// testing.AllocsPerRun would round 0.76 objects per put down to 0, so
	// the sweep counts its objects itself, the way AllocsPerRun does: on one
	// proc, after a warm-up sweep on an engine of its own.
	var fresh *Engine
	sweep := func() {
		fresh = NewEngine(2)
		for at := int64(1); at <= 4; at++ {
			for _, key := range keys {
				if _, err := fresh.Put(key, val, ts(at), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (4 * n)
	t.Logf("%.4f objects per write", per)
	if per > 0.02 {
		t.Errorf("Put on fresh keys, then on chains of 1-4 versions, allocates %.3f objects per write", per)
	}
	for i := 0; i < n; i += 97 {
		if got := fresh.chain(keys[i]).len(); got != 4 {
			t.Fatalf("key %d holds %d versions, want 4", i, got)
		}
	}

	e := NewEngine(1)
	for i := 0; i < n; i++ {
		if _, err := e.Put(keys[i], v("x"), ts(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	key := keys[500]
	at := int64(1)
	if a := testing.AllocsPerRun(200, func() {
		at++
		if _, err := e.Put(key, val, ts(at), nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Put on an existing key allocates %.0f", a)
	}
	txn := &TxnMeta{ID: 7, Key: key}
	if a := testing.AllocsPerRun(200, func() {
		at++
		if _, err := e.Put(key, val, ts(at), txn); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.GetIntent(key); !ok {
			t.Fatal("intent not found")
		}
		if err := e.ResolveIntent(key, txn.ID, Committed, hlc.Timestamp{}); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("intent + resolve on an existing key allocates %.0f", a)
	}
}

// TestGCReleasesCollectedValues: GC unlinks the versions it collects and
// clears their values before their nodes go to the free list, so neither a
// chain nor the free list keeps a collected value reachable; the next writes
// reuse the freed nodes, and a Scan result taken before GC still reads its
// own values after they have.
func TestGCReleasesCollectedValues(t *testing.T) {
	const keys = 10
	e := NewEngine(1)
	for at := int64(1); at <= 8; at++ {
		for i := 0; i < keys; i++ {
			if _, err := e.Put(rowKey(i), v(fmt.Sprintf("%d@%d", i, at)), ts(at*10), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	old, err := e.Scan(nil, nil, ts(35), 0, GetOptions{})
	if err != nil || len(old) != keys {
		t.Fatalf("scan before GC: %d rows, %v", len(old), err)
	}
	if got := e.GC(ts(55)); got != 4*keys {
		t.Fatalf("GC collected %d versions, want %d", got, 4*keys)
	}
	it := e.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		n := 0
		for v := it.Ptr().head; v != nil; v = v.next {
			if at := v.ts.WallTime / 10; at < 5 || string(v.val) != fmt.Sprintf("%s@%d", it.Key()[len(it.Key())-1:], at) {
				t.Errorf("%s: chain holds %q at %v after GC", it.Key(), v.val, v.ts)
			}
			n++
		}
		if n != 4 {
			t.Errorf("%s: %d versions after GC, want 4", it.Key(), n)
		}
	}
	free := 0
	for v := e.free; v != nil; v = v.next {
		if v.val != nil {
			t.Errorf("a free node holds %q", v.val)
		}
		free++
	}
	if free != 4*keys {
		t.Fatalf("%d nodes on the free list, want %d", free, 4*keys)
	}
	// The next writes link the freed nodes, not new ones.
	for at := int64(9); at <= 12; at++ {
		for i := 0; i < keys; i++ {
			if _, err := e.Put(rowKey(i), v("new"), ts(at*10), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.free != nil {
		t.Error("writes after GC left freed nodes unused")
	}
	for i, kv := range old {
		if want := fmt.Sprintf("%d@3", i); string(kv.Value) != want || kv.Timestamp != ts(30) {
			t.Errorf("row %d read before GC: %q at %v, want %q", i, kv.Value, kv.Timestamp, want)
		}
	}
}

// TestCopyToOverHeldSpanRoundTrips: CopyTo into an engine that already holds
// the span (a merge absorbing the copy its range kept since the split)
// replaces each chain in its cell; the result is the source byte for byte,
// and so is what a fresh engine loads from its stream.
func TestCopyToOverHeldSpanRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomEngine(rng, 300)
	dst := NewEngine(2)
	src.CopyTo(dst, nil, nil)
	// Age dst: other versions, and intents on keys src holds none on.
	it := dst.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		c := it.Ptr()
		tail := c.head
		for tail != nil && tail.next != nil {
			tail = tail.next
		}
		dst.appendVersion(c, tail, ts(0), v("stale"))
		if c.intent == nil && rng.Intn(2) == 0 {
			c.intent = &intentRecord{txn: TxnMeta{ID: 99}}
			dst.intents++
		}
	}
	src.CopyTo(dst, nil, nil)
	want := src.AppendSnapshot(nil)
	if got := dst.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatal("CopyTo over a held span left something of the old contents")
	}
	if dst.IntentCount() != src.IntentCount() {
		t.Fatalf("intent count %d, want %d", dst.IntentCount(), src.IntentCount())
	}
	loaded := loadFresh(t, want)
	if got := loaded.AppendSnapshot(nil); !bytes.Equal(got, want) {
		t.Fatal("LoadSnapshot(AppendSnapshot()) is not the identity")
	}
	if loaded.IntentCount() != src.IntentCount() {
		t.Fatalf("loaded intent count %d, want %d", loaded.IntentCount(), src.IntentCount())
	}
}

// BenchmarkEngineLoad20k is the bulk load a workload's setup pays on every
// replica: 20 000 new keys in shuffled order, one version each.
func BenchmarkEngineLoad20k(b *testing.B) {
	const n = 20000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rowKey(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	val := v("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(int64(i))
		for _, j := range order {
			if _, err := e.Put(keys[j], val, ts(1), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnginePutResolve is a transactional write on a loaded replica:
// an intent laid on an existing key, found again, and committed. The GC
// sweep every 16 rounds keeps chains from growing with b.N.
func BenchmarkEnginePutResolve(b *testing.B) {
	const n = 20000
	e := NewEngine(1)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rowKey(i)
		if _, err := e.Put(keys[i], v("x"), ts(1), nil); err != nil {
			b.Fatal(err)
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	val := v("0123456789abcdef0123456789abcdef")
	txn := &TxnMeta{ID: 7, Key: keys[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(16*n) == 16*n-1 {
			e.GC(ts(int64(1 + i/n)))
		}
		key, at := keys[order[i%n]], ts(int64(2+i/n))
		if _, err := e.Put(key, val, at, txn); err != nil {
			b.Fatal(err)
		}
		if _, ok := e.GetIntent(key); !ok {
			b.Fatal("intent not found")
		}
		if err := e.ResolveIntent(key, txn.ID, Committed, hlc.Timestamp{}); err != nil {
			b.Fatal(err)
		}
	}
}
