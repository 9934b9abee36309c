package txn_test

import (
	"fmt"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestRefreshIsOneRPCPerRange: a commit refresh sends every read span of
// the transaction as one batch, one RPC per range the spans touch: four
// spans on one range cost one RPC, three spans on three ranges three, and
// six spans on three ranges three. A refresh's RPCs are what its commit sends
// beyond the same commit whose write was not pushed, which refreshes
// nothing. The write goes to a range of its own, where no scan raised the
// read floor (TestScanDoesNotPushItsOwnWrite has one that did).
func TestRefreshIsOneRPCPerRange(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func(p *sim.Proc) {
		for _, at := range []string{"k/p", "k/h"} {
			if _, err := h.c.Admin.SplitRange(p, h.desc.RangeID, mvcc.Key(at)); err != nil {
				t.Fatal(err)
			}
		}
		h.homedRange(t, "w/", "w0", simnet.USEast1, nil, kv.ClosedTSLag)
		co := h.coord(simnet.USEast1)
		run := 0
		// commitSent scans spans, writes one key, pushed above the reads by
		// another transaction's read when pushed is set, and returns the RPCs
		// the commit sent.
		commitSent := func(spans [][2]mvcc.Key, pushed bool) int64 {
			run++
			w := mvcc.Key(fmt.Sprintf("w/%03d", run))
			tx := co.Begin(0)
			if _, err := tx.Scan(p, spans, 0); err != nil {
				t.Fatal(err)
			}
			if pushed {
				other := co.Begin(0)
				if _, err := other.Get(p, w); err != nil {
					t.Fatal(err)
				}
				if err := other.Commit(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.PutParallel(p, []mvcc.KeyValue{{Key: w, Value: mvcc.Value("v")}}, []bool{true}); err != nil {
				t.Fatal(err)
			}
			if got := tx.ReadTimestamp().Less(tx.WriteTimestamp()); got != pushed {
				t.Fatalf("the write was pushed: %v, want %v", got, pushed)
			}
			p.Sleep(sim.Second) // the write replicates
			sent := co.Sender.Sent
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
			sent = co.Sender.Sent - sent
			p.Sleep(sim.Second) // the resolution lands
			return sent
		}
		span := func(from, to string) [2]mvcc.Key { return [2]mvcc.Key{mvcc.Key(from), mvcc.Key(to)} }
		for _, c := range []struct {
			name  string
			spans [][2]mvcc.Key
			want  int64
		}{
			{"four spans on one range", [][2]mvcc.Key{span("k/a", "k/b"), span("k/b", "k/c"), span("k/c", "k/d"), span("k/d", "k/e")}, 1},
			{"three spans on three ranges", [][2]mvcc.Key{span("k/a", "k/b"), span("k/i", "k/j"), span("k/q", "k/r")}, 3},
			{"six spans on three ranges", [][2]mvcc.Key{span("k/a", "k/b"), span("k/c", "k/d"), span("k/i", "k/j"), span("k/k", "k/l"), span("k/q", "k/r"), span("k/s", "k/t")}, 3},
		} {
			if got := commitSent(c.spans, true) - commitSent(c.spans, false); got != c.want {
				t.Errorf("%s: the commit refresh sent %d RPCs, want %d", c.name, got, c.want)
			}
		}
	})
}

// TestScanDoesNotPushItsOwnWrite: a transaction that scans a span and then
// writes a key of the same range, which no one else read, writes at its read
// timestamp and commits there, refreshing nothing: the range's read floor,
// which the scan raised, remembers who raised it and exempts its writes, as a
// key's newest read exempts its reader's. A second scan at the same timestamp
// by another transaction takes the exemption away. The write used to be
// pushed one logical tick above its own scan.
func TestScanDoesNotPushItsOwnWrite(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		span := [][2]mvcc.Key{{mvcc.Key("k/a"), mvcc.Key("k/b")}}
		tx := co.Begin(0)
		if _, err := tx.Scan(p, span, 0); err != nil {
			t.Fatal(err)
		}
		read := tx.ReadTimestamp()
		if err := tx.PutParallel(p, []mvcc.KeyValue{{Key: mvcc.Key("k/w"), Value: mvcc.Value("v")}}, []bool{true}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if got := tx.WriteTimestamp(); got != read || tx.ReadTimestamp() != read {
			t.Errorf("scan at %v, then a write of its range: committed with read %v and write %v, want both at the scan's",
				read, tx.ReadTimestamp(), got)
		}
	})
}

// TestRewriteOfOwnIntentIsNotPushed: a transaction that writes a key twice
// lands the second write on its own intent, at its own timestamp, not above
// it, so it commits where it read and its commit sends no RefreshRequest
// (commit refreshes only a read timestamp below the write timestamp). The
// rewrite used to be pushed one logical tick above the intent, and a
// New-Order that ordered one item twice refreshed every read span at commit.
func TestRewriteOfOwnIntentIsNotPushed(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if _, err := tx.Get(p, mvcc.Key("k/r")); err != nil {
			t.Fatal(err)
		}
		read := tx.ReadTimestamp()
		// Each write is sent with the read after it, so the second one
		// meets the intent the first one laid.
		for i, next := range []string{"k/s", "k/t"} {
			if err := tx.Put(p, mvcc.Key("k/w"), mvcc.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Get(p, mvcc.Key(next)); err != nil {
				t.Fatal(err)
			}
		}
		if got := tx.WriteTimestamp(); got != read {
			t.Fatalf("read at %v, then a key written twice: write timestamp %v, want the read's", read, got)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if tx.ReadTimestamp() != read || tx.WriteTimestamp() != read {
			t.Errorf("committed with read %v and write %v, want both at %v", tx.ReadTimestamp(), tx.WriteTimestamp(), read)
		}
	})
}
