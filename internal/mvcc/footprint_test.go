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
// object (its version slice) beside the engine's pointer-free arena, value
// cells and index; with a node, a key copy and a chain object per key it was
// four objects and 317 bytes.
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
	if objects > 1.3 {
		t.Errorf("%.2f heap objects per key, want <= 1.3", objects)
	}
	if bytes > 220 {
		t.Errorf("%.0f heap bytes per key, want <= 220", bytes)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(keys)
}

// TestWritePathAllocs: a committed write to a key the engine holds, and an
// intent laid and resolved on one, find the chain without allocating; what
// remains is the version slice's amortized growth, which rounds to nothing.
func TestWritePathAllocs(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		if _, err := e.Put(rowKey(i), v("x"), ts(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	key, val := rowKey(500), v("y")
	at := int64(1)
	if n := testing.AllocsPerRun(200, func() {
		at++
		if _, err := e.Put(key, val, ts(at), nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Put on an existing key allocates %.0f", n)
	}
	txn := &TxnMeta{ID: 7, Key: key}
	if n := testing.AllocsPerRun(200, func() {
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
	}); n != 0 {
		t.Errorf("intent + resolve on an existing key allocates %.0f", n)
	}
}

// TestCopyToOverHeldSpanRoundTrips: CopyTo into an engine that already holds
// the span (a merge absorbing, a split forwarding) replaces each chain in
// its cell; the result is the source byte for byte, and so is what a fresh
// engine loads from its stream.
func TestCopyToOverHeldSpanRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomEngine(rng, 300)
	dst := NewEngine(2)
	src.CopyTo(dst, nil, nil)
	// Age dst: other versions, and intents on keys src holds none on.
	it := dst.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		c := it.Ptr()
		c.vals = append(c.vals, version{ts: ts(0), val: v("stale")})
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
