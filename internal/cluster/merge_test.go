package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestScanAcrossMerge is the merge-side mirror of TestScanAcrossSplit: a
// range is split twice and then merged back while reads and writes keep
// flowing. A scan continued past a boundary that merges away between its
// two halves, and full scans racing the merges
// themselves, must return exactly the rows a quiesced cluster returns — no
// duplicates, no holes, no stale pre-merge copies.
func TestScanAcrossMerge(t *testing.T) {
	c := New(Config{Seed: 47, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "mg")
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("mg/%03d", i)) }
	const rows = 12
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		for i := 0; i < rows; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("v-%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
		}
		// Split twice: [mg/, 004), [004, 008), [008, mg0).
		mid, err := c.Admin.SplitRange(p, desc.RangeID, key(4))
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if _, err := c.Admin.SplitRange(p, mid.RangeID, key(8)); err != nil {
			t.Errorf("second split: %v", err)
			return
		}

		// Traffic during the merges: a writer that keeps overwriting key 9
		// (on the right-most range, the one subsumed twice), and scanners
		// that must always see exactly 12 ordered rows.
		stop := false
		writes := 0
		wg := sim.NewWaitGroup(c.Sim)
		wg.Add(1)
		c.Sim.Spawn("merge-writer", func(wp *sim.Proc) {
			defer wg.Done()
			wco := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
			for !stop {
				writes++
				v := mvcc.Value(fmt.Sprintf("w-%d", writes))
				if err := wco.Run(wp, func(tx *txn.Txn) error {
					return tx.Put(wp, key(9), v)
				}); err != nil {
					t.Errorf("write under merge: %v", err)
					return
				}
				wp.Sleep(20 * sim.Millisecond)
			}
		})
		fullScans := 0
		wg.Add(1)
		c.Sim.Spawn("merge-scanner", func(wp *sim.Proc) {
			defer wg.Done()
			sco := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
			for !stop {
				var got []mvcc.KeyValue
				if err := sco.Run(wp, func(tx *txn.Txn) error {
					spans, err := tx.Scan(wp, [][2]mvcc.Key{{mvcc.Key("mg/"), mvcc.Key("mg0")}}, 0)
					if err == nil {
						got = spans[0]
					}
					return err
				}); err != nil {
					t.Errorf("scan under merge: %v", err)
					return
				}
				fullScans++
				if len(got) != rows {
					t.Errorf("scan under merge: %d rows, want %d", len(got), rows)
					return
				}
				for i, r := range got {
					if !bytes.Equal(r.Key, key(i)) {
						t.Errorf("scan under merge: row %d is %q, want %q", i, r.Key, key(i))
						return
					}
				}
				wp.Sleep(30 * sim.Millisecond)
			}
		})

		// A scan whose boundary disappears mid-scan: read the first 6 rows
		// (ending inside the middle range), let both merges run, then
		// continue just past the last row read.
		var head []mvcc.KeyValue
		if err := co.Run(p, func(tx *txn.Txn) error {
			spans, err := tx.Scan(p, [][2]mvcc.Key{{mvcc.Key("mg/"), mvcc.Key("mg0")}}, 6)
			if err == nil {
				head = spans[0]
			}
			return err
		}); err != nil {
			t.Errorf("head scan: %v", err)
			return
		}
		if len(head) != 6 {
			t.Errorf("head scan: %d rows, want 6", len(head))
			return
		}
		resume := append(append(mvcc.Key(nil), head[5].Key...), 0)

		// Merge everything back under the traffic: first [004,008)+[008,mg0),
		// then [mg/,004)+[004,mg0).
		if err := c.Admin.MergeRanges(p, mid.RangeID); err != nil {
			t.Errorf("merge right pair: %v", err)
			return
		}
		if err := c.Admin.MergeRanges(p, desc.RangeID); err != nil {
			t.Errorf("merge left pair: %v", err)
			return
		}
		merged, err := c.Catalog.Lookup(key(0))
		if err != nil || merged.RangeID != desc.RangeID || merged.EndKey == nil ||
			!bytes.Equal(merged.EndKey, mvcc.Key("mg0")) {
			t.Errorf("post-merge descriptor: %v %v", merged, err)
			return
		}

		// Finish the held scan across the now-vanished boundaries.
		var tail []mvcc.KeyValue
		if err := co.Run(p, func(tx *txn.Txn) error {
			spans, err := tx.Scan(p, [][2]mvcc.Key{{resume, mvcc.Key("mg0")}}, 0)
			if err == nil {
				tail = spans[0]
			}
			return err
		}); err != nil {
			t.Errorf("resumed scan: %v", err)
			return
		}
		combined := append(append([]mvcc.KeyValue(nil), head...), tail...)
		if len(combined) != rows {
			t.Errorf("resumed scan across merge: %d rows total, want %d", len(combined), rows)
		}
		for i, r := range combined {
			if i < len(combined) && !bytes.Equal(r.Key, key(i)) {
				t.Errorf("resumed scan row %d: %q, want %q", i, r.Key, key(i))
			}
		}

		p.Sleep(2 * sim.Second)
		stop = true
		wg.Wait(p)
		if fullScans == 0 || writes == 0 {
			t.Errorf("traffic never overlapped the merges: scans=%d writes=%d", fullScans, writes)
		}

		// Quiesced reference scan: identical row set, and key 9 holds the
		// writer's last confirmed value.
		var ref []mvcc.KeyValue
		if err := co.Run(p, func(tx *txn.Txn) error {
			spans, err := tx.Scan(p, [][2]mvcc.Key{{mvcc.Key("mg/"), mvcc.Key("mg0")}}, 0)
			if err == nil {
				ref = spans[0]
			}
			return err
		}); err != nil {
			t.Errorf("quiesced scan: %v", err)
			return
		}
		if len(ref) != rows {
			t.Errorf("quiesced scan: %d rows, want %d", len(ref), rows)
			return
		}
		if want := fmt.Sprintf("w-%d", writes); string(ref[9].Value) != want {
			t.Errorf("key 9 after merges = %q, want %q (last confirmed write)", ref[9].Value, want)
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

// TestStaleRouteAfterMerge pins the stale-catalog safety property: a sender
// that still routes with the pre-merge descriptor (defunct range ID, old
// leaseholder) must get RangeKeyMismatchError — never stale rows — and a
// refreshed lookup through the shared catalog must then return the data the
// merged range owns.
func TestStaleRouteAfterMerge(t *testing.T) {
	c := New(Config{Seed: 48, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "st")
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("st/%03d", i)) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		for i := 0; i < 8; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("v-%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
		}
		rhs, err := c.Admin.SplitRange(p, desc.RangeID, key(4))
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		// Capture the route a stale cache would hold, then merge it away.
		staleID, staleLease := rhs.RangeID, rhs.Leaseholder
		if err := c.Admin.MergeRanges(p, desc.RangeID); err != nil {
			t.Errorf("merge: %v", err)
			return
		}
		// The post-merge write the stale route must not miss.
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, key(6), mvcc.Value("post-merge"))
		}); err != nil {
			t.Error(err)
			return
		}
		// Stale-routed RPC: old range ID straight at the old leaseholder.
		raw, rpcErr := c.Net.SendRPC(p, gw, staleLease, &kv.BatchRequest{
			RangeID: staleID,
			Reqs: []interface{}{&kv.GetRequest{
				Key:       key(6),
				Timestamp: c.Stores[gw].Clock.Now(),
			}},
		}, 0)
		if rpcErr != nil {
			t.Errorf("stale route rpc: %v", rpcErr)
			return
		}
		resp := raw.(*kv.BatchRequest).Resps[0]
		var rkm *kv.RangeKeyMismatchError
		if resp.Err == nil || !errors.As(resp.Err, &rkm) {
			t.Errorf("stale route: err = %v, want RangeKeyMismatchError", resp.Err)
		}
		if resp.Get.ServedBy != 0 {
			t.Errorf("stale route returned data: %+v", resp.Get)
		}
		// The DistSender path (fresh catalog lookup + mismatch retry) serves
		// the post-merge value.
		var got mvcc.Value
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, key(6))
			got = v
			return err
		}); err != nil || string(got) != "post-merge" {
			t.Errorf("refreshed read: %q %v, want post-merge", got, err)
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}
