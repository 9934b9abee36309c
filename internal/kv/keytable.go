package kv

import (
	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
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
// to have had (inherit, span reads, the store loop). A key's string is made
// when the key first needs an entry, and an entry lives while anything in it
// does (sweep).
type keyTable struct {
	floor hlc.Timestamp
	// entries holds each key's entry by value, under the entry's own string.
	entries map[string]keyEntry
	// latched counts the held latches: a span read with none to wait out
	// looks at no entry.
	latched int
}

type keyEntry struct {
	// key is the entry's own map key: an update re-stores the entry under
	// it, where converting the caller's []byte again would allocate.
	key string
	// waiters are queued on the latch, woken first in, first out.
	waiters []*sim.Cond
	// read is the newest read served on the key; reader read it (0 when
	// unknown or when several read at read: no self-exemption then).
	read   hlc.Timestamp
	reader mvcc.TxnID
	// holder holds the key's lock (0: none).
	holder  mvcc.TxnID
	latched bool
}

func newKeyTable() keyTable { return keyTable{entries: map[string]keyEntry{}} }

// entry returns key's entry, with its string made if the table has none yet.
// Lookups index the map with string(key) in place, which converts without
// copying.
func (t *keyTable) entry(key mvcc.Key) keyEntry {
	e, ok := t.entries[string(key)]
	if !ok {
		e.key = string(key)
	}
	return e
}

// --- Latches ---

// wait queues p on key's held latch until the next wake.
func (t *keyTable) wait(p *sim.Proc, key mvcc.Key) {
	c := sim.NewCond(p.Sim())
	e := t.entries[string(key)]
	e.waiters = append(e.waiters, c)
	t.entries[e.key] = e
	c.Wait(p)
}

// wakeNext wakes the first waiter queued on key's latch, if any.
func (t *keyTable) wakeNext(key mvcc.Key) {
	e := t.entries[string(key)]
	if len(e.waiters) == 0 {
		return
	}
	next := e.waiters[0]
	e.waiters = e.waiters[1:]
	if len(e.waiters) == 0 {
		e.waiters = nil
	}
	t.entries[e.key] = e
	next.Broadcast()
}

// Every latch operation reaches its entry through the replica that owns the
// key now (owner): a write evaluated before a split but applied after it
// holds its latch on the right half, where its entry moved, so a read there
// waits it out and its release wakes the right half's waiters.

// latch takes key's exclusive latch, parking p while another writer holds it.
func (r *Replica) latch(p *sim.Proc, key mvcc.Key) {
	for {
		t := &r.owner(key).keys
		if e := t.entry(key); !e.latched {
			e.latched = true
			t.entries[e.key] = e
			t.latched++
			return
		}
		t.wait(p, key)
	}
}

// unlatch frees key's latch and wakes the next waiter.
func (r *Replica) unlatch(key mvcc.Key) {
	t := &r.owner(key).keys
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
	t := &r.owner(key).keys
	for t.entries[string(key)].latched {
		t.wait(p, key)
		t = &r.owner(key).keys
	}
	t.wakeNext(key)
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

// --- Reads ---

// recordRead notes a read of key at ts by txn (0 for non-transactional).
func (t *keyTable) recordRead(key mvcc.Key, ts hlc.Timestamp, txn mvcc.TxnID) {
	if ts.LessEq(t.floor) {
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

// raiseFloor ratchets the floor to ts, never backwards. A scan raises it to
// its read timestamp (span precision is traded for simplicity; ranges in
// mrdb are small).
func (t *keyTable) raiseFloor(ts hlc.Timestamp) {
	t.floor = t.floor.Max(ts)
}

// maxRead returns the newest read of key, the floor if that is newer, and
// whether the read is writer's own (in which case the writer may write AT
// the timestamp rather than above it).
func (t *keyTable) maxRead(key mvcc.Key, writer mvcc.TxnID) (hlc.Timestamp, bool) {
	if e, ok := t.entries[string(key)]; ok && t.floor.Less(e.read) {
		return e.read, writer != 0 && e.reader == writer
	}
	return t.floor, false
}

// --- The one lifetime rule ---

// sweep raises the floor to ts and drops every entry nothing keeps: no latch
// is held or waited for, its lock's holder is none or has finished, and its
// read is at or below the floor. A finished holder's lock is taken without a
// wait whether its entry is there or not, and a read at or below the floor
// pushes no write the floor does not, so dropping an entry changes nothing.
func (t *keyTable) sweep(ts hlc.Timestamp, reg *TxnRegistry) {
	t.raiseFloor(ts)
	for k, e := range t.entries {
		if e.latched || len(e.waiters) > 0 || t.floor.Less(e.read) {
			continue
		}
		if e.holder != 0 {
			if st, _ := reg.Status(e.holder); st == mvcc.Pending {
				continue
			}
		}
		delete(t.entries, k)
	}
}

// moveSpan moves the entries of the keys desc contains to dst, whole.
func (t *keyTable) moveSpan(desc *RangeDescriptor, dst *keyTable) {
	for k, e := range t.entries {
		if desc.ContainsKey(mvcc.Key(k)) {
			dst.entries[k] = e
			delete(t.entries, k)
			if e.latched {
				t.latched--
				dst.latched++
			}
		}
	}
}
