package cluster

import (
	"fmt"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestSplitQueue verifies the allocator loop's size trigger divides
// oversized ranges, records every such split in both the aggregate and the
// per-range decision counters, never merges the halves back (no split/merge
// flapping), and that data and routing stay correct afterwards.
func TestSplitQueue(t *testing.T) {
	c := New(Config{Seed: 61, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	regionalRange(t, c, "q")
	stop := c.Admin.StartLoadQueue(kv.LoadConfig{SplitKeys: 20, Interval: 2 * sim.Second})
	defer stop()
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("q/%04d", i)) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		const n = 80
		for i := 0; i < n; i++ {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key(i), mvcc.Value(fmt.Sprintf("v%d", i)))
			}); err != nil {
				t.Error(err)
				return
			}
		}
		// Let the split queue catch up (80 keys / 20 per range => >= 4).
		p.Sleep(30 * sim.Second)
		if c.Admin.Splits < 2 {
			t.Errorf("split queue performed %d splits, want >= 2", c.Admin.Splits)
		}
		if c.Catalog.Len() < 3 {
			t.Errorf("catalog has %d ranges", c.Catalog.Len())
		}
		if c.Admin.LoadSplits != 0 {
			t.Errorf("%d load-based splits with no load tracked, want 0", c.Admin.LoadSplits)
		}
		// Size splits show up in mrdb_internal.ranges' decisions column.
		var decided int64
		for _, d := range c.Catalog.All() {
			decided += c.Admin.Decisions(d.RangeID).Splits
		}
		if decided != c.Admin.Splits {
			t.Errorf("per-range decisions record %d splits, Admin.Splits = %d", decided, c.Admin.Splits)
		}
		// Cold tail: every range is idle, so the merge step considers each
		// adjacent pair; the size guard must refuse to rebuild a range that
		// would split again.
		splits, ranges := c.Admin.Splits, c.Catalog.Len()
		p.Sleep(60 * sim.Second)
		if c.Admin.Merges != 0 || c.Admin.Splits != splits || c.Catalog.Len() != ranges {
			t.Errorf("split/merge flapping over the cold tail: merges=%d splits %d -> %d ranges %d -> %d",
				c.Admin.Merges, splits, c.Admin.Splits, ranges, c.Catalog.Len())
		}
		// Every key still readable and writable.
		for i := 0; i < n; i++ {
			var got mvcc.Value
			if err := co.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, key(i))
				got = v
				return err
			}); err != nil || string(got) != fmt.Sprintf("v%d", i) {
				t.Errorf("key %d after splits: %q %v", i, got, err)
				return
			}
		}
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, key(5), mvcc.Value("rewritten"))
		}); err != nil {
			t.Errorf("write after splits: %v", err)
		}
	})
	c.Sim.RunFor(30 * 60 * sim.Second)
	if nerr := c.ApplyErrors(); nerr != 0 {
		t.Fatalf("%d apply errors", nerr)
	}
}
