package kv

import (
	"testing"
	"unsafe"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// sameString reports whether a and b share their bytes: one string, not two
// equal ones.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestSecondWriteOfAKeyMakesNoKeyString: a leaseholder makes a string of a
// key the first time a transaction locks it, and names the key with that
// string from then on. A transaction's second write of the key takes its
// lock and latch without allocating, and the latch its pipelined write holds
// is the lock entry's string.
func TestSecondWriteOfAKeyMakesNoKeyString(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	key := mvcc.Key("k/1")
	tx := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(1, 0)}}
	write := func(p *sim.Proc, v string) {
		tx.ReadTimestamp = st.Clock.Now()
		resp := rep.evaluate(p, &PutRequest{Key: key, Value: mvcc.Value(v), Timestamp: tx.ReadTimestamp, Txn: tx, Pipelined: true})
		if resp.Err != nil {
			t.Fatalf("write %s: %v", v, resp.Err)
		}
	}
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		write(p, "v1")
		p.Sleep(sim.Second) // the write applies and releases its latch
		entry, ok := rep.lockTable[string(key)]
		if !ok || entry.holder != tx.Meta.ID {
			t.Fatalf("after the first write the lock table holds %+v (found %v), want the transaction's lock", entry, ok)
		}
		if n := testing.AllocsPerRun(100, func() {
			k, err := rep.acquireLock(p, key, tx)
			if err != nil {
				t.Fatal(err)
			}
			rep.latches.acquire(p, k)
			rep.latches.release(k)
		}); n != 0 {
			t.Errorf("locking and latching a key locked before allocates %.0f objects, want 0", n)
		}
		write(p, "v2")
		if len(rep.pipelined) != 1 {
			t.Fatalf("the second write left %d pipelined writes, want 1", len(rep.pipelined))
		}
		if w := rep.pipelined[0]; !sameString(w.latched, entry.key) {
			t.Errorf("the second write's latch %q is a string of its own, not its lock entry's", w.latched)
		}
		for k := range rep.latches.held {
			if !sameString(k, entry.key) {
				t.Errorf("the latch table holds %q as a string of its own, not the lock entry's", k)
			}
		}
		p.Sleep(sim.Second)
		return nil
	})
}

// TestReadOfALockedKeyMakesNoCacheString: a read of a key the leaseholder
// has locked before records it in the timestamp cache under the lock
// entry's string, making none of its own.
func TestReadOfALockedKeyMakesNoCacheString(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	locked, other := mvcc.Key("k/locked"), mvcc.Key("k/other")
	tx := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(1, 0)}}
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		tx.ReadTimestamp = st.Clock.Now()
		if resp := rep.evaluate(p, &PutRequest{Key: locked, Value: mvcc.Value("v"), Timestamp: tx.ReadTimestamp, Txn: tx}); resp.Err != nil {
			t.Fatalf("write: %v", resp.Err)
		}
		for _, key := range []mvcc.Key{locked, other} {
			if _, ok := rep.tscache.reads[string(key)]; ok {
				t.Fatalf("setup: %s is in the timestamp cache before its read", key)
			}
			tx.ReadTimestamp = st.Clock.Now()
			if resp := rep.evaluate(p, &GetRequest{Key: key, Timestamp: tx.ReadTimestamp, Txn: tx}); resp.Err != nil {
				t.Fatalf("read of %s: %v", key, resp.Err)
			}
		}
		entry := rep.lockTable[string(locked)]
		if e, ok := rep.tscache.reads[string(locked)]; !ok || !sameString(e.key, entry.key) {
			t.Errorf("the read of the locked key is cached under a string of its own (found %v), not its lock entry's", ok)
		}
		if e, ok := rep.tscache.reads[string(other)]; !ok || e.key != string(other) {
			t.Errorf("the read of an unlocked key is not cached under its own string (found %v)", ok)
		}
		return nil
	})
}
