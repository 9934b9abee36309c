package txn_test

import (
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// newOrderShape returns the keys of a New-Order with lines order lines over
// five ranges: its district, order and new-order rows (3), and one order line
// and one stock row per line (2 × lines).
func (h *harness) newOrderShape(t *testing.T, lines int) []mvcc.Key {
	t.Helper()
	for _, span := range []string{"d/", "o/", "n/", "l/", "s/"} {
		h.homedRange(t, span, span[:1]+"0", simnet.USEast1, nil, kv.ClosedTSLag)
	}
	keys := keysOf("d/1", "o/1", "n/1")
	for i := 0; i < lines; i++ {
		keys = append(keys, mvcc.Key(fmt.Sprintf("l/%02d", i)), mvcc.Key(fmt.Sprintf("s/%02d", i)))
	}
	return keys
}

// proposed sums, over every replica in the cluster, the commands of kind k
// proposed so far.
func (h *harness) proposed(k kv.CommandKind) int64 {
	var n int64
	for _, st := range h.c.Stores {
		c := st.Counts()
		n += c.Proposed[k]
	}
	return n
}

// checkResolved fails unless no replica of any range holds an intent on
// keys, and every replica reads want[i] on keys[i] at ts.
func (h *harness) checkResolved(t *testing.T, keys []mvcc.Key, ts hlc.Timestamp, want func(i int) string) {
	t.Helper()
	for _, id := range h.c.Topo.Nodes() {
		st := h.c.Stores[id]
		for i, k := range keys {
			desc, err := h.c.Catalog.Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := st.Replica(desc.RangeID)
			if !ok {
				continue
			}
			eng := r.EngineForBulkLoad()
			if _, ok := eng.GetIntent(k); ok {
				t.Errorf("n%d: intent on %s left after resolution", id, k)
			}
			v, _, err := eng.Get(k, ts, mvcc.GetOptions{})
			if err != nil || string(v) != want(i) {
				t.Errorf("n%d: %s reads %q (%v) at %v, want %q", id, k, v, err, ts, want(i))
			}
		}
	}
}

// TestResolutionIsOneCommandPerRange: a transaction shaped like a New-Order
// of ten lines writes 23 keys over five ranges. Its intents resolve in one
// command per range — five, beside its one transaction record — whether it
// commits or aborts, and the resolution reaches every replica: no intent is
// left anywhere, and each key reads the committed value (or, after the
// abort, the value before it).
func TestResolutionIsOneCommandPerRange(t *testing.T) {
	h := newHarness(t, 41)
	keys := h.newOrderShape(t, 10)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		count := func(step func()) (resolves, records int64) {
			r0, t0 := h.proposed(kv.CmdResolveIntent), h.proposed(kv.CmdTxnRecord)
			step()
			p.Sleep(sim.Second) // asynchronous resolution, applied on every replica
			return h.proposed(kv.CmdResolveIntent) - r0, h.proposed(kv.CmdTxnRecord) - t0
		}

		tx := co.Begin(0)
		resolves, records := count(func() {
			for _, k := range keys {
				if err := tx.Put(p, k, mvcc.Value("v1-"+string(k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		})
		if resolves != 5 || records != 1 {
			t.Errorf("commit proposed %d resolutions and %d records, want 5 and 1", resolves, records)
		}
		st, commitTS := h.c.Registry.Status(tx.ID())
		if st != mvcc.Committed {
			t.Fatalf("transaction %v", st)
		}
		h.checkResolved(t, keys, commitTS, func(i int) string { return "v1-" + string(keys[i]) })

		tx = co.Begin(0)
		resolves, records = count(func() {
			for _, k := range keys {
				if err := tx.Put(p, k, mvcc.Value("v2-"+string(k))); err != nil {
					t.Fatal(err)
				}
			}
			// A read sends the pending writes, so the abort has intents to
			// resolve.
			if _, err := tx.Get(p, mvcc.Key("k/x")); err != nil {
				t.Fatal(err)
			}
			tx.Abort(p)
		})
		if resolves != 5 || records != 1 {
			t.Errorf("abort proposed %d resolutions and %d records, want 5 and 1", resolves, records)
		}
		h.checkResolved(t, keys, h.c.Stores[1].Clock.Now(), func(i int) string { return "v1-" + string(keys[i]) })
	})
}
