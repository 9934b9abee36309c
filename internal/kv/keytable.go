package kv

import (
	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/slab"
)

// keyTable is what a leaseholder knows of each key it orders requests on: its
// write latch, its unreplicated lock and its newest read. A write lands above
// every read the leaseholder served (paper §6.1: "leaseholders also advance
// the timestamp of writes above the timestamp of any previously served
// reads"), and readers block on the locks of running writers (§6.2).
//
// A write holds the key's latch from evaluation through Raft application, so
// no read slips between them; reads only wait for latches, since evaluation
// is instantaneous under the cooperative scheduler. The lock is the
// transaction-lifetime mutex of SELECT FOR UPDATE and of every transactional
// write; it only orders writers. The floor is the read every key is assumed
// to have had (inherit, span reads, the store loop). A key's string is carved
// from the table's chunks when the key first needs an entry, and an entry
// lives while anything in it does (sweep); a key swept and needed again costs
// a carve, not a heap object.
type keyTable struct {
	floor hlc.Timestamp
	// floorReader raised the floor to where it is, as an entry's reader read
	// it (0 when unknown or when several read at floor: no self-exemption
	// then).
	floorReader mvcc.TxnID
	// entries holds each key's entry by value, under the entry's own string.
	entries map[string]keyEntry
	// names holds the bytes of the entries' strings (slab.String). A chunk
	// lives while a string carved from it names an entry, here or in the
	// table a split moved the entry to.
	names slab.Of[byte]
	// latched counts the held latches: a span read with none to wait out
	// looks at no entry.
	latched int
}

type keyEntry struct {
	// key is the entry's own map key, carved from its table's names: an
	// update re-stores the entry under it, where converting the caller's
	// []byte again would allocate.
	key string
	// waiters are the processes queued on the latch, woken first in, first
	// out; queueing one allocates nothing.
	waiters sim.Line
	// read is the newest read served on the key; reader read it (0 when
	// unknown or when several read at read: no self-exemption then).
	read   hlc.Timestamp
	reader mvcc.TxnID
	// holder holds the key's lock (0: none).
	holder  mvcc.TxnID
	latched bool
}

func newKeyTable() keyTable { return keyTable{entries: map[string]keyEntry{}} }

// entry returns key's entry, with its string carved if the table has none
// yet. Lookups index the map with string(key) in place, which converts
// without copying.
func (t *keyTable) entry(key mvcc.Key) keyEntry {
	e, ok := t.entries[string(key)]
	if !ok {
		e.key = slab.String(&t.names, key)
	}
	return e
}

// --- Latches ---

// wait queues p on key's held latch until the next wake.
func (t *keyTable) wait(p *sim.Proc, key mvcc.Key) {
	e := t.entries[string(key)]
	e.waiters.Join(p)
	t.entries[e.key] = e
	p.Await()
}

// wakeNext wakes the first waiter queued on key's latch, if any.
func (t *keyTable) wakeNext(key mvcc.Key) {
	e := t.entries[string(key)]
	if e.waiters.Empty() {
		return
	}
	e.waiters.WakeFirst()
	t.entries[e.key] = e
}

// latch takes key's exclusive latch, parking p while another writer holds it
// or a split fences the key.
func (r *Replica) latch(p *sim.Proc, key mvcc.Key) {
	t := &r.keys
	for {
		for r.fenced(key) {
			r.fenceLifted.Wait(p)
		}
		if e := t.entry(key); !e.latched {
			e.latched = true
			t.entries[e.key] = e
			t.latched++
			return
		}
		t.wait(p, key)
		if r.fenced(key) {
			// A release woke p, which now parks on the fence: hand the wake
			// on, as a reader does, so the key's queue keeps draining.
			t.wakeNext(key)
		}
	}
}

// unlatch frees key's latch and wakes the next waiter.
func (r *Replica) unlatch(key mvcc.Key) {
	t := &r.keys
	e := t.entries[string(key)]
	if !e.latched {
		panic("kv: releasing unheld latch")
	}
	e.latched = false
	t.entries[e.key] = e
	t.latched--
	t.wakeNext(key)
}

// waitUnlatched parks p until no writer holds key's latch (read-side wait),
// then wakes the next waiter too: several readers may proceed, and a queued
// writer re-checks and re-queues if a reader got in first.
func (r *Replica) waitUnlatched(p *sim.Proc, key mvcc.Key) {
	for r.keys.entries[string(key)].latched {
		r.keys.wait(p, key)
	}
	r.keys.wakeNext(key)
}

// fenced reports whether a split this replica proposed fences key.
func (r *Replica) fenced(key mvcc.Key) bool {
	return r.fence != nil && string(key) >= string(r.fence)
}

// waitSpanUnlatched parks p until no writer holds the latch of a key in
// [start, end) (end nil: unbounded), waiting out the smallest such key first
// so that the wake-up order does not depend on map iteration.
func (r *Replica) waitSpanUnlatched(p *sim.Proc, start, end mvcc.Key) {
	for r.keys.latched > 0 {
		var first string
		found := false
		for k, e := range r.keys.entries {
			if e.latched && k >= string(start) && (end == nil || k < string(end)) && (!found || k < first) {
				first, found = k, true
			}
		}
		if !found {
			return
		}
		r.waitUnlatched(p, mvcc.Key(first))
	}
}

// --- Locks ---

// unlock gives back txn's lock on key, if it holds it: a write that laid
// nothing leaves the key as it found it (Replica.acquireLock takes it).
func (t *keyTable) unlock(key mvcc.Key, txn mvcc.TxnID) {
	if e, ok := t.entries[string(key)]; ok && e.holder == txn {
		e.holder = 0
		t.entries[e.key] = e
	}
}

// --- Reads ---

// recordRead notes a read of key at ts by txn (0 for non-transactional).
func (t *keyTable) recordRead(key mvcc.Key, ts hlc.Timestamp, txn mvcc.TxnID) {
	if ts.LessEq(t.floor) {
		if ts.Equal(t.floor) && txn != t.floorReader {
			// Another reader at the floor: nobody gets its exemption.
			t.floorReader = 0
		}
		return
	}
	e := t.entry(key)
	switch {
	case e.read.Less(ts):
		e.read, e.reader = ts, txn
	case e.read.Equal(ts) && e.reader != txn:
		// Two readers at the same timestamp: nobody gets an exemption.
		e.reader = 0
	default:
		return
	}
	t.entries[e.key] = e
}

// raiseFloor ratchets the floor to ts, never backwards, as a read by txn (0:
// none, as the store loop's). A scan raises it to its read timestamp (span
// precision is traded for simplicity; ranges in mrdb are small).
func (t *keyTable) raiseFloor(ts hlc.Timestamp, txn mvcc.TxnID) {
	switch {
	case t.floor.Less(ts):
		t.floor, t.floorReader = ts, txn
	case t.floor.Equal(ts) && t.floorReader != txn:
		t.floorReader = 0
	}
}

// maxRead returns the newest read of key, the floor if that is newer, and
// whether the read is writer's own (in which case the writer may write AT
// the timestamp rather than above it). A key's read at the floor ties with
// it: the exemption is writer's only if both are its own.
func (t *keyTable) maxRead(key mvcc.Key, writer mvcc.TxnID) (hlc.Timestamp, bool) {
	ts, reader := t.floor, t.floorReader
	if e, ok := t.entries[string(key)]; ok {
		switch {
		case ts.Less(e.read):
			ts, reader = e.read, e.reader
		case ts.Equal(e.read) && e.reader != reader:
			reader = 0
		}
	}
	return ts, writer != 0 && reader == writer
}

// newestRead is the newest read the table knows of, the floor included: no
// read served here lies above it, so a lease transfer starts the next lease
// there (CockroachDB ships such a read summary with the transfer).
func (t *keyTable) newestRead() hlc.Timestamp {
	ts := t.floor
	for _, e := range t.entries {
		ts = ts.Max(e.read)
	}
	return ts
}

// --- The one lifetime rule ---

// sweep raises the floor to ts and drops every entry nothing keeps: no latch
// is held or waited for, its lock's holder is none or has finished, and its
// read is at or below the floor. A finished holder's lock is taken without a
// wait whether its entry is there or not, and a read at or below the floor
// pushes no write the floor does not, so dropping an entry changes nothing.
// (A read at the floor by another than the floor's reader would: it takes
// the floor's exemption away as it goes, as it would have in maxRead.)
func (t *keyTable) sweep(ts hlc.Timestamp, reg *TxnRegistry) {
	t.raiseFloor(ts, 0)
	for k, e := range t.entries {
		if e.latched || !e.waiters.Empty() || t.floor.Less(e.read) {
			continue
		}
		if e.holder != 0 {
			if st, _ := reg.Status(e.holder); st == mvcc.Pending {
				continue
			}
		}
		if e.read.Equal(t.floor) && e.reader != t.floorReader {
			t.floorReader = 0
		}
		delete(t.entries, k)
	}
}

// moveSpan moves the entries of the keys desc contains to dst, whole, but
// for a latched one. The leaseholder that proposed the split fenced the span
// and waited its latches out, so a latch still held here is a deposed
// leaseholder's pipelined write: its entry resolved before the split's, and
// its release (releaseOne, a later event) looks for it in this table.
func (t *keyTable) moveSpan(desc *RangeDescriptor, dst *keyTable) {
	for k, e := range t.entries {
		if !e.latched && desc.ContainsKey(mvcc.Key(k)) {
			dst.entries[k] = e
			delete(t.entries, k)
		}
	}
}
