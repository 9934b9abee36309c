package txn_test

import (
	"errors"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestSpanRefreshSeesEveryRange: a span refresh checks every range its span
// overlaps. A transaction scans [k/c, k0) across a split at k/m, then reads
// k/b, which another transaction wrote inside its uncertainty interval
// together with k/n, on the scan's right half. Refreshing the scan to k/b's
// timestamp meets k/n, so the read restarts the transaction: a refresh that
// checked only the range of the span's start key would let it commit a scan
// that missed k/n. A refresh that succeeds raises the read floor of every
// range it checked, so a later write to k/n at the refreshed timestamp lands
// above it.
func TestSpanRefreshSeesEveryRange(t *testing.T) {
	h := newHarness(t, 58)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/c", "k/x"))
		if _, err := h.c.Admin.SplitRange(p, h.desc.RangeID, mvcc.Key("k/m")); err != nil {
			t.Fatal(err)
		}
		co := h.coord(simnet.USEast1)
		span := func(tx *txn.Txn, want int) {
			t.Helper()
			if rows, err := tx.Scan(p, mvcc.Key("k/c"), mvcc.Key("k0"), 0); err != nil || len(rows) != want {
				t.Fatalf("scan across the split: %d rows, %v; want %d", len(rows), err, want)
			}
		}

		tx := co.Begin(0)
		span(tx, 2)
		if err := co.Run(p, func(other *txn.Txn) error {
			return other.PutParallel(p, writesOf("k/b", "k/n"), nil)
		}); err != nil {
			t.Fatal(err)
		}
		var retry *kv.RetryableTxnError
		if _, err := tx.Get(p, mvcc.Key("k/b")); !errors.As(err, &retry) {
			t.Errorf("read of an uncertain value written with a key the scan covers: %v, want a restart; Commit: %v", err, tx.Commit(p))
		} else {
			tx.Abort(p)
		}

		tx = co.Begin(0)
		span(tx, 3)
		if err := co.Run(p, func(other *txn.Txn) error {
			return other.Put(p, mvcc.Key("k/a"), mvcc.Value("uncertain"))
		}); err != nil {
			t.Fatal(err)
		}
		before := tx.ReadTimestamp()
		if _, err := tx.Get(p, mvcc.Key("k/a")); err != nil {
			t.Fatal(err)
		}
		refreshed := tx.ReadTimestamp()
		if !before.Less(refreshed) {
			t.Fatalf("read timestamp stayed at %v: the test no longer meets an uncertain value", before)
		}
		resp := co.Sender.Send(p, &kv.PutRequest{Key: mvcc.Key("k/n"), Value: mvcc.Value("late"), Timestamp: refreshed})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if !refreshed.Less(resp.Put.WriteTimestamp) {
			t.Errorf("write on the scan's right half landed at %v, not above the refreshed read at %v",
				resp.Put.WriteTimestamp, refreshed)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNegotiationSeesOnlyItsRangesIntents: a split leaves the left engine a
// copy of the right half, intents included, and the right range resolves
// them without touching the copy. Bounded-staleness negotiation over both
// halves must read each range's intents within its own bounds: 20 s after
// the writer committed, the negotiated timestamp lies past its intent.
func TestNegotiationSeesOnlyItsRangesIntents(t *testing.T) {
	h := newHarness(t, 59)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if err := tx.Put(p, mvcc.Key("k/n"), mvcc.Value("v")); err != nil {
			t.Fatal(err)
		}
		// The write rides the transaction's next read.
		if _, err := tx.Get(p, mvcc.Key("k/a")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.c.Admin.SplitRange(p, h.desc.RangeID, mvcc.Key("k/m")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		committed := co.Store.Clock.Now()
		p.Sleep(20 * sim.Second)
		ts, err := co.Sender.NegotiateBoundedStaleness(p, [][2]mvcc.Key{{mvcc.Key("k/"), mvcc.Key("k0")}})
		if err != nil {
			t.Fatal(err)
		}
		if !committed.Less(ts) {
			t.Errorf("negotiated %v at %v: held below the resolved intent's copy (committed by %v)", ts, p.Now(), committed)
		}
	})
}
