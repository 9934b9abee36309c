package cluster

import (
	"fmt"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestRangeSplit exercises Admin.SplitRange: data lands on both sides, the
// catalog routes correctly, and reads/writes keep working on both halves.
func TestRangeSplit(t *testing.T) {
	c := New(Config{Seed: 41, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "sp")
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("sp/%03d", i)) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		for i := 0; i < 10; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("v%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
		}
		newDesc, err := c.Admin.SplitRange(p, desc.RangeID, key(5))
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		// Catalog routes each half correctly.
		left, err := c.Catalog.Lookup(key(2))
		if err != nil || left.RangeID != desc.RangeID {
			t.Errorf("left lookup: %v %v", left, err)
		}
		right, err := c.Catalog.Lookup(key(7))
		if err != nil || right.RangeID != newDesc.RangeID {
			t.Errorf("right lookup: %v %v", right, err)
		}
		// All data readable on both halves; writes work on both.
		for i := 0; i < 10; i++ {
			var got mvcc.Value
			if err := co.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, key(i))
				got = v
				return err
			}); err != nil || string(got) != fmt.Sprintf("v%d", i) {
				t.Errorf("key %d after split: %q %v", i, got, err)
			}
		}
		if err := co.Run(p, func(tx *txn.Txn) error {
			if err := tx.Put(p, key(2), mvcc.Value("left-after")); err != nil {
				return err
			}
			return tx.Put(p, key(8), mvcc.Value("right-after"))
		}); err != nil {
			t.Errorf("cross-split txn: %v", err)
		}
		var got mvcc.Value
		co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, key(8))
			got = v
			return err
		})
		if string(got) != "right-after" {
			t.Errorf("right half write lost: %q", got)
		}
		// Splitting again inside the right half works too.
		if _, err := c.Admin.SplitRange(p, newDesc.RangeID, key(8)); err != nil {
			t.Errorf("second split: %v", err)
		}
		// Invalid split keys are rejected.
		if _, err := c.Admin.SplitRange(p, desc.RangeID, mvcc.Key("zz")); err == nil {
			t.Error("split outside range accepted")
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

// TestScanAcrossSplit is the regression test for the cross-range scan hole:
// the DistSender divides a scan by range, and a replica answers only for a
// span it holds whole. Before the fix, the left replica's engine (which
// retains a stale copy of the right half's data from the split) answered for
// the whole span, so a scan could return rows the range no longer owns and
// miss writes that landed on the right-hand range after the split.
func TestScanAcrossSplit(t *testing.T) {
	c := New(Config{Seed: 43, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "sc")
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("sc/%03d", i)) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		for i := 0; i < 12; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("old-%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
		}
		// Split twice: [sc/, 004), [004, 008), [008, sc0).
		mid, err := c.Admin.SplitRange(p, desc.RangeID, key(4))
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if _, err := c.Admin.SplitRange(p, mid.RangeID, key(8)); err != nil {
			t.Errorf("second split: %v", err)
			return
		}
		// Overwrite rows on both sides AFTER the splits: the left replica's
		// engine still holds the pre-split copies of the right-half keys,
		// so an untruncated scan would return these rows stale.
		if err := co.Run(p, func(tx *txn.Txn) error {
			for _, i := range []int{2, 5, 9} {
				if err := tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("new-%d", i))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Error(err)
			return
		}
		want := func(i int) string {
			if i == 2 || i == 5 || i == 9 {
				return fmt.Sprintf("new-%d", i)
			}
			return fmt.Sprintf("old-%d", i)
		}
		// Full-span scan must return every row exactly once, in order,
		// with the post-split values.
		var rows []mvcc.KeyValue
		if err := co.Run(p, func(tx *txn.Txn) error {
			var err error
			rows, err = tx.Scan(p, mvcc.Key("sc/"), mvcc.Key("sc0"), 0)
			return err
		}); err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if len(rows) != 12 {
			t.Errorf("scan across splits: got %d rows, want 12", len(rows))
		}
		for i, r := range rows {
			if i < 12 && (string(r.Key) != string(key(i)) || string(r.Value) != want(i)) {
				t.Errorf("row %d: got %q=%q, want %q=%q", i, r.Key, r.Value, key(i), want(i))
			}
		}
		// MaxRows cutting across the split boundary: 6 rows spans the first
		// two ranges and must stop exactly at 6.
		if err := co.Run(p, func(tx *txn.Txn) error {
			var err error
			rows, err = tx.Scan(p, mvcc.Key("sc/"), mvcc.Key("sc0"), 6)
			return err
		}); err != nil {
			t.Errorf("limited scan: %v", err)
			return
		}
		if len(rows) != 6 {
			t.Errorf("limited scan: got %d rows, want 6", len(rows))
		}
		for i, r := range rows {
			if string(r.Key) != string(key(i)) || string(r.Value) != want(i) {
				t.Errorf("limited row %d: got %q=%q, want %q=%q", i, r.Key, r.Value, key(i), want(i))
			}
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

// TestSplitFollowerReads verifies the right-hand range serves stale reads
// from followers after a split (closed timestamps carry over).
func TestSplitFollowerReads(t *testing.T) {
	c := New(Config{Seed: 42, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	desc := regionalRange(t, c, "sf")
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("sf/zz"), mvcc.Value("right-side"))
		}); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Admin.SplitRange(p, desc.RangeID, mvcc.Key("sf/m")); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * sim.Second) // close lag + propagation
		asia := txn.NewCoordinator(c.Stores[c.GatewayFor(simnet.AsiaNE1)], c.Senders[c.GatewayFor(simnet.AsiaNE1)])
		start := p.Now()
		v, served, err := asia.ExactStaleRead(p, mvcc.Key("sf/zz"), asia.Store.Clock.Now().Add(-4*sim.Second))
		if err != nil || string(v) != "right-side" {
			t.Errorf("stale read after split: %q %v", v, err)
			return
		}
		loc, _ := c.Topo.LocalityOf(served)
		if loc.Region != simnet.AsiaNE1 {
			t.Errorf("served by %s, want local follower", loc.Region)
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("stale read took %v", d)
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
}
