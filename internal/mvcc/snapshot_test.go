package mvcc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mrdb/internal/hlc"
)

// randomEngine fills an engine with multi-version chains, tombstones, empty
// (non-nil) values and intents, some of them with nil or empty anchor keys.
func randomEngine(rng *rand.Rand, keys int) *Engine {
	e := NewEngine(rng.Int63())
	val := func() Value {
		switch rng.Intn(4) {
		case 0:
			return nil // tombstone
		case 1:
			return Value{}
		}
		b := make(Value, 1+rng.Intn(24))
		rng.Read(b)
		return b
	}
	for i := 0; i < keys; i++ {
		key := Key(fmt.Sprintf("k%04d/%x", i, rng.Intn(1<<16)))
		at := int64(1)
		for n := rng.Intn(4); n > 0; n-- {
			at += 1 + rng.Int63n(1e9)
			if _, err := e.Put(key, val(), hlc.Timestamp{WallTime: at, Logical: int32(rng.Intn(3))}, nil); err != nil {
				panic(err)
			}
		}
		if rng.Intn(3) == 0 {
			txn := &TxnMeta{ID: TxnID(rng.Uint64()), Epoch: int32(rng.Intn(5))}
			switch rng.Intn(3) {
			case 0:
				txn.Key = Key{}
			case 1:
				txn.Key = Key(fmt.Sprintf("anchor%d", i))
			}
			if _, err := e.Put(key, val(), hlc.Timestamp{WallTime: at + 1 + rng.Int63n(1e9)}, txn); err != nil {
				panic(err)
			}
		}
	}
	return e
}

func loadFresh(t *testing.T, stream []byte) *Engine {
	t.Helper()
	e := NewEngine(99)
	if err := e.LoadSnapshot(stream); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return e
}

// TestSnapshotStreamRoundTrip: writing an engine out and loading the bytes
// into a fresh one is the identity — nil and empty values stay distinct, the
// counters match — and encoding is deterministic: the same contents give the
// same bytes whichever engine holds them.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomEngine(rng, rng.Intn(40))
		stream := src.AppendSnapshot(nil)
		if again := src.AppendSnapshot(nil); !bytes.Equal(stream, again) {
			t.Fatalf("seed %d: two encodings of one engine differ", seed)
		}
		prefix := []byte("header")
		if got := src.AppendSnapshot(prefix); !bytes.Equal(got[len(prefix):], stream) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("seed %d: AppendSnapshot did not append", seed)
		}
		dst := loadFresh(t, stream)
		if !reflect.DeepEqual(src.Snapshot(), dst.Snapshot()) {
			t.Fatalf("seed %d: loaded engine differs from its source", seed)
		}
		if dst.IntentCount() != src.IntentCount() || dst.list.Len() != src.list.Len() {
			t.Fatalf("seed %d: counts: intents %d vs %d, keys %d vs %d", seed,
				dst.IntentCount(), src.IntentCount(), dst.list.Len(), src.list.Len())
		}
		if !bytes.Equal(dst.AppendSnapshot(nil), stream) {
			t.Fatalf("seed %d: re-encoding the loaded engine gives other bytes", seed)
		}
	}
}

// TestSnapshotKeepsEmptyValuesApartFromTombstones: Snapshot's deep copy
// keeps an empty committed or intent value empty and non-nil and a
// tombstone nil. Copying with append(Value(nil), v...) turned the first
// into the second.
func TestSnapshotKeepsEmptyValuesApartFromTombstones(t *testing.T) {
	e := NewEngine(1)
	for _, w := range []struct {
		key string
		val Value
		txn *TxnMeta
	}{
		{"empty", Value{}, nil},
		{"tombstone", nil, nil},
		{"empty-intent", Value{}, &TxnMeta{ID: 1, Key: k("empty-intent")}},
		{"tombstone-intent", nil, &TxnMeta{ID: 2, Key: k("tombstone-intent")}},
	} {
		if _, err := e.Put(k(w.key), w.val, ts(10), w.txn); err != nil {
			t.Fatalf("Put(%s): %v", w.key, err)
		}
	}
	got := map[string]Value{}
	for _, sk := range e.Snapshot() {
		if sk.Intent != nil {
			got[string(sk.Key)] = sk.Intent.Val
		} else {
			got[string(sk.Key)] = sk.Versions[0].Val
		}
	}
	for _, key := range []string{"empty", "empty-intent"} {
		if v, ok := got[key]; !ok || v == nil || len(v) != 0 {
			t.Errorf("%s: snapshot value %#v, want empty and non-nil", key, v)
		}
	}
	for _, key := range []string{"tombstone", "tombstone-intent"} {
		if v, ok := got[key]; !ok || v != nil {
			t.Errorf("%s: snapshot value %#v, want a nil tombstone", key, v)
		}
	}
}

// TestLoadSnapshotRejectsDamagedStreams: every strict prefix of a stream and
// a stream with trailing bytes are errors, never a panic or a partial load
// reported as success.
func TestLoadSnapshotRejectsDamagedStreams(t *testing.T) {
	stream := randomEngine(rand.New(rand.NewSource(7)), 12).AppendSnapshot(nil)
	for n := 0; n < len(stream); n++ {
		if err := NewEngine(1).LoadSnapshot(stream[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", n, len(stream))
		}
	}
	if err := NewEngine(1).LoadSnapshot(append(stream[:len(stream):len(stream)], 0)); err == nil {
		t.Fatal("trailing byte loaded without error")
	}
}

// TestCopyToTwiceKeepsCountsExact: CopyTo lands on keys dst already holds
// when a merge absorbs a span whose copy its engine kept since the split, or
// a split's copy is repeated. A per-engine key counter incremented on every copy
// over-counts there (it used to size Snapshot, and as a stream's count prefix
// would make the stream unloadable); so did the intent counter.
func TestCopyToTwiceKeepsCountsExact(t *testing.T) {
	src := NewEngine(1)
	for i := 0; i < 20; i++ {
		mustPut(t, src, fmt.Sprintf("k%02d", i), "v", int64(10+i), nil)
	}
	mustPut(t, src, "k05", "provisional", 100, &TxnMeta{ID: 7, Key: k("k05")})
	mustPut(t, src, "k15", "provisional", 100, &TxnMeta{ID: 8, Key: k("k15")})

	dst := NewEngine(2)
	src.CopyTo(dst, k("k00"), k("k10"))
	src.CopyTo(dst, k("k00"), k("k10"))
	loaded := loadFresh(t, dst.AppendSnapshot(nil))
	if got := len(loaded.Snapshot()); got != 10 {
		t.Fatalf("loaded %d keys, want 10", got)
	}
	if !reflect.DeepEqual(loaded.Snapshot(), dst.Snapshot()) {
		t.Fatal("loaded engine differs from the copied-into one")
	}
	if dst.IntentCount() != 1 || loaded.IntentCount() != 1 {
		t.Fatalf("intent counts %d (copied-into) and %d (loaded), want 1", dst.IntentCount(), loaded.IntentCount())
	}
	if got := len(dst.Snapshot()); got != 10 || cap(dst.Snapshot()) != 10 {
		t.Fatalf("Snapshot sized for %d keys, holds %d, want 10", cap(dst.Snapshot()), got)
	}
}
