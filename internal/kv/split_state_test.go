package kv

import (
	"errors"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestSplitCarriesUnreplicatedLocks: a SELECT FOR UPDATE lock on a key
// follows the key to the right-hand range of a split. Transaction A locks a
// right-half key, the range splits, and transaction B's locking read of the
// key must queue until A commits, as it would have without the split.
func TestSplitCarriesUnreplicatedLocks(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	ds := &DistSender{NodeID: 1, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
	key := mvcc.Key("m")
	a := GatewayTxn(st, key, 0)
	var b *Txn
	var bResp Response
	var committedAt, bDoneAt sim.Time
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		if r := ds.Send(p, &GetRequest{Key: key, Timestamp: a.ReadTimestamp, Txn: a, ForUpdate: true}); r.Err != nil {
			return r.Err
		}
		if _, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		b = GatewayTxn(st, key, 0)
		done := sim.NewWaitGroup(h.s)
		done.Add(1)
		h.s.Spawn("b", func(bp *sim.Proc) {
			defer done.Done()
			bResp = ds.Send(bp, &GetRequest{Key: key, Timestamp: b.ReadTimestamp, Txn: b, ForUpdate: true})
			bDoneAt = bp.Now()
		})
		p.Sleep(500 * sim.Millisecond)
		committedAt = p.Now()
		if err := st.Registry.TryCommit(a.Meta.ID, a.Meta.WriteTimestamp); err != nil {
			return err
		}
		done.Wait(p)
		return nil
	})
	if bResp.Err != nil {
		t.Fatalf("B's locking read: %v", bResp.Err)
	}
	if bDoneAt < committedAt {
		t.Fatalf("B's locking read returned at %v, before A committed at %v: A's lock did not survive the split", bDoneAt, committedAt)
	}
}

// TestResolveIntentChecksRangeBounds: after a split, the left-hand replica
// keeps a stale copy of the right half. A resolution of a right-half key
// that reaches it must be refused with RangeKeyMismatchError, not answered
// from that copy (which holds no intent laid after the split, so the intent
// would stay); routed through the DistSender, it resolves the intent on the
// right-hand range.
func TestResolveIntentChecksRangeBounds(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	left, _ := st.Replica(desc.RangeID)
	ds := &DistSender{NodeID: 1, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
	key := mvcc.Key("m")
	tx := GatewayTxn(st, key, 0)
	var direct, routed Response
	var right *RangeDescriptor
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		var err error
		if right, err = h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		put := ds.Send(p, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: tx.Meta.WriteTimestamp, Txn: tx})
		if put.Err != nil {
			return put.Err
		}
		if err := st.Registry.TryCommit(tx.Meta.ID, put.Put.WriteTimestamp); err != nil {
			return err
		}
		resolve := &ResolveIntentRequest{Key: key, TxnID: tx.Meta.ID, Status: mvcc.Committed, CommitTS: put.Put.WriteTimestamp}
		direct = left.evaluate(p, resolve)
		routed = ds.Send(p, resolve)
		return nil
	})
	var mismatch *RangeKeyMismatchError
	if !errors.As(direct.Err, &mismatch) {
		t.Errorf("resolution evaluated on the left-hand replica after the split: %+v", direct)
	}
	if routed.Err != nil {
		t.Fatalf("routed resolution: %v", routed.Err)
	}
	for _, id := range []simnet.NodeID{1, 2, 3} {
		r, ok := h.stores[id].Replica(right.RangeID)
		if !ok {
			t.Fatalf("n%d has no right-hand replica", id)
		}
		if _, ok := r.engine.GetIntent(key); ok {
			t.Errorf("n%d: intent on %q survived its resolution", id, key)
		}
	}
}

// TestScanRoutedOnAStaleDescriptor: a scan routed on a range's descriptor
// before a split, and evaluated after it, is refused by the left half, which
// no longer holds its whole span. The DistSender divides the scan again
// against the fresh descriptors and returns every row exactly once, none from
// the left engine's copy of the right half.
func TestScanRoutedOnAStaleDescriptor(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	ds := &DistSender{NodeID: 1, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
	keys := []string{"c", "f", "k", "p", "t"}
	var scan Response
	var retries int64
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		for _, k := range keys {
			if r := ds.Send(p, &PutRequest{Key: mvcc.Key(k), Value: mvcc.Value("old-" + k), Timestamp: st.Clock.Now()}); r.Err != nil {
				return r.Err
			}
		}
		// A write holds a latch in the span while the scan arrives on the
		// whole range…
		rep.latch(p, mvcc.Key("m"))
		done := sim.NewWaitGroup(h.s)
		done.Add(1)
		h.s.Spawn("scan", func(sp *sim.Proc) {
			defer done.Done()
			// Read a second ahead, so the writes made during the wait
			// lie below the scan's timestamp.
			ts := st.Clock.Now().Add(sim.Second)
			scan = ds.Send(sp, &ScanRequest{StartKey: mvcc.Key("b"), EndKey: mvcc.Key("y"), Timestamp: ts})
		})
		p.Sleep(10 * sim.Millisecond)
		retries = ds.Retries
		// …and the range splits in the middle of it before the latch frees.
		// Writes after the split land on the right half only; the left
		// engine's copy keeps the old values.
		if _, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		for _, k := range []string{"k", "t"} {
			if r := ds.Send(p, &PutRequest{Key: mvcc.Key(k), Value: mvcc.Value("new-" + k), Timestamp: st.Clock.Now()}); r.Err != nil {
				return r.Err
			}
		}
		rep.unlatch(mvcc.Key("m"))
		done.Wait(p)
		retries = ds.Retries - retries
		return nil
	})
	if scan.Err != nil {
		t.Fatalf("scan: %v", scan.Err)
	}
	if retries == 0 {
		t.Fatal("the scan was never refused: it no longer meets the split")
	}
	want := map[string]string{"c": "old-c", "f": "old-f", "k": "new-k", "p": "old-p", "t": "new-t"}
	if len(scan.Scan.Rows) != len(keys) {
		t.Errorf("scan returned %d rows, want %d: %v", len(scan.Scan.Rows), len(keys), scan.Scan.Rows)
	}
	for i, row := range scan.Scan.Rows {
		if i < len(keys) && (string(row.Key) != keys[i] || string(row.Value) != want[keys[i]]) {
			t.Errorf("row %d: %s=%s, want %s=%s", i, row.Key, row.Value, keys[i], want[keys[i]])
		}
	}
}
