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
// key the first time the key needs an entry in its key table, and names the
// key's lock and latch with that string from then on. A transaction's second
// write of the key takes its lock and latch without allocating, and leaves
// the entry under the string the first write made.
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
		entry, ok := rep.keys.entries[string(key)]
		if !ok || entry.holder != tx.Meta.ID || entry.latched {
			t.Fatalf("after the first write the key table holds %+v (found %v), want the transaction's lock and no latch", entry, ok)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := rep.acquireLock(p, key, tx); err != nil {
				t.Fatal(err)
			}
			rep.latch(p, key)
			rep.unlatch(key)
		}); n != 0 {
			t.Errorf("locking and latching a key locked before allocates %.0f objects, want 0", n)
		}
		write(p, "v2")
		if len(rep.pipelined) != 1 {
			t.Fatalf("the second write left %d pipelined writes, want 1", len(rep.pipelined))
		}
		if e := rep.keys.entries[string(key)]; !e.latched || !sameString(e.key, entry.key) {
			t.Errorf("the second write's latch (held %v) is not under the string its first write made", e.latched)
		}
		if len(rep.keys.entries) != 1 {
			t.Errorf("the key table holds %d entries, want the key's one", len(rep.keys.entries))
		}
		p.Sleep(sim.Second)
		return nil
	})
}

// TestReadOfALockedKeyMakesNoCacheString: a read of a key the leaseholder
// has locked before is recorded in the key's entry, making no string of its
// own; a read of a key without an entry makes the key's one string.
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
		entry := rep.keys.entries[string(locked)]
		if _, ok := rep.keys.entries[string(other)]; ok || !entry.read.IsEmpty() {
			t.Fatalf("setup: a read is recorded before the reads (other's entry: %v)", ok)
		}
		for _, key := range []mvcc.Key{locked, other} {
			tx.ReadTimestamp = st.Clock.Now()
			if resp := rep.evaluate(p, &GetRequest{Key: key, Timestamp: tx.ReadTimestamp, Txn: tx}); resp.Err != nil {
				t.Fatalf("read of %s: %v", key, resp.Err)
			}
		}
		if e := rep.keys.entries[string(locked)]; e.read.IsEmpty() || !sameString(e.key, entry.key) {
			t.Errorf("the read of the locked key is not recorded under its lock's string (read %v)", e.read)
		}
		if e, ok := rep.keys.entries[string(other)]; !ok || e.read.IsEmpty() || e.key != string(other) {
			t.Errorf("the read of an unlocked key is not recorded under its own string (found %v)", ok)
		}
		return nil
	})
}
