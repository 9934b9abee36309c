package kv

import (
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestSplitRightHalfKeepsLeftReads: the right half of a split starts with its
// floor at the split timestamp (proposal time + MaxOffset). A split whose
// commit is slow lets the left half serve reads of right-span keys above that
// timestamp before it applies; the right half keeps those reads with their
// keys, so a later write to such a key lands above the read, as it would have
// without the split.
func TestSplitRightHalfKeepsLeftReads(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	lhs, _ := st.Replica(desc.RangeID)
	key := mvcc.Key("m")
	var splitAt, readAt, wrote hlc.Timestamp
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		// Cut the leaseholder off from its followers: the split's entry
		// cannot commit until the links heal.
		h.net.Partition(1, 2)
		h.net.Partition(1, 3)
		splitAt = st.Clock.Now().Add(st.Clock.MaxOffset())
		var rdesc *RangeDescriptor
		var splitErr error
		done := sim.NewWaitGroup(h.s)
		done.Add(1)
		h.s.Spawn("split", func(sp *sim.Proc) {
			defer done.Done()
			rdesc, splitErr = h.admin.SplitRange(sp, desc.RangeID, mvcc.Key("h"))
		})
		p.Sleep(2 * st.Clock.MaxOffset())
		// The split is proposed but not applied: the left half still owns
		// the key, and serves a read of it above the split timestamp.
		readAt = st.Clock.Now()
		if !splitAt.Less(readAt) {
			t.Fatalf("setup: read at %v is not above the split timestamp %v", readAt, splitAt)
		}
		if resp := lhs.evaluate(p, &GetRequest{Key: key, Timestamp: readAt}); resp.Err != nil {
			return fmt.Errorf("read on the left half before the split applied: %v", resp.Err)
		}
		h.net.Heal(1, 2)
		h.net.Heal(1, 3)
		done.Wait(p)
		if splitErr != nil {
			return splitErr
		}
		rhs, _ := st.Replica(rdesc.RangeID)
		resp := rhs.evaluate(p, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: splitAt.Prev()})
		if resp.Err != nil {
			return resp.Err
		}
		wrote = resp.Put.WriteTimestamp
		return nil
	})
	if !readAt.Less(wrote) {
		t.Fatalf("the right half wrote %q at %v, at or below the read the left half served at %v (split timestamp %v)",
			key, wrote, readAt, splitAt)
	}
}

// TestStoreLoopDropsDeadEntries: a leaseholder's key table keeps an entry
// only while something in it lives. Many transactions lock distinct keys and
// commit; one store-loop turn then leaves only the entries of a pending
// lock holder, a held latch, a latch's queued waiter and a read above the
// floor, and once those end, the next turn leaves only the read.
func TestStoreLoopDropsDeadEntries(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	const committed = 50
	pendingKey, latchedKey, queuedKey, readKey := mvcc.Key("k/pending"), mvcc.Key("k/latched"), mvcc.Key("k/queued"), mvcc.Key("k/read")
	put := func(p *sim.Proc, key mvcc.Key, tx *Txn) {
		t.Helper()
		tx.ReadTimestamp = st.Clock.Now()
		if resp := rep.evaluate(p, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: tx.ReadTimestamp, Txn: tx}); resp.Err != nil {
			t.Fatalf("write of %s: %v", key, resp.Err)
		}
	}
	live := func(want ...mvcc.Key) {
		t.Helper()
		if len(rep.keys.entries) != len(want) {
			t.Errorf("the key table holds %d entries, want %d (%s)", len(rep.keys.entries), len(want), want)
		}
		for _, k := range want {
			if _, ok := rep.keys.entries[string(k)]; !ok {
				t.Errorf("the entry of %s was dropped while it lives", k)
			}
		}
	}
	h.run(t, 20*sim.Second, func(p *sim.Proc) error {
		for i := 0; i < committed; i++ {
			tx := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(1, 0)}}
			put(p, mvcc.Key(fmt.Sprintf("k/done/%03d", i)), tx)
			if err := st.Registry.TryCommit(tx.Meta.ID, tx.ReadTimestamp); err != nil {
				return err
			}
		}
		pending := &Txn{Meta: mvcc.TxnMeta{ID: st.Registry.Begin(1, 0)}}
		put(p, pendingKey, pending)
		// A read the store loop's floor will cover, and one above it.
		stale := rep.closed.issue(st.Clock.Now())
		for _, q := range []*GetRequest{{Key: mvcc.Key("k/stale"), Timestamp: stale.Add(sim.Millisecond)}, {Key: readKey, Timestamp: st.Clock.Now()}} {
			if resp := rep.evaluate(p, q); resp.Err != nil {
				return resp.Err
			}
		}
		p.Sleep(sim.Second)
		rep.closed.issue(st.Clock.Now())
		if !rep.closed.issued.Less(rep.keys.entries[string(readKey)].read) {
			t.Fatalf("setup: the read of %s is not above the promise %v", readKey, rep.closed.issued)
		}
		// A writer holds latchedKey; queuedKey's writer released its latch,
		// which woke one of two queued readers, and the store loop turns in
		// that instant, before the woken reader wakes the other.
		rep.latch(p, latchedKey)
		rep.latch(p, queuedKey)
		readers := sim.NewWaitGroup(h.s)
		readers.Add(2)
		for i := 0; i < 2; i++ {
			h.s.Spawn("reader", func(rp *sim.Proc) {
				defer readers.Done()
				rep.waitUnlatched(rp, queuedKey)
			})
		}
		p.Yield()
		if n := len(rep.keys.entries[string(queuedKey)].waiters); n != 2 {
			t.Fatalf("setup: %d readers queued on %s, want 2", n, queuedKey)
		}
		if len(rep.keys.entries) != committed+5 {
			t.Fatalf("setup: the key table holds %d entries, want %d", len(rep.keys.entries), committed+5)
		}
		rep.unlatch(queuedKey)
		st.CheckpointNow()
		live(pendingKey, latchedKey, queuedKey, readKey)

		readers.Wait(p)
		rep.unlatch(latchedKey)
		if err := st.Registry.TryCommit(pending.Meta.ID, pending.ReadTimestamp); err != nil {
			return err
		}
		st.CheckpointNow()
		live(readKey)
		return nil
	})
}
