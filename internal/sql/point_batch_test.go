package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// A statement's point reads are one batch per phase: every tuple in every
// candidate partition goes out together, the tuples a locality-optimized
// search missed locally go to each remote partition as one batch, and the
// rows a non-storing secondary index names are read as one more batch.

// sentBy returns the RPCs the session's DistSender sent while fn ran.
func sentBy(s *Session, fn func()) int64 {
	before := s.Coord.Sender.Sent
	fn()
	return s.Coord.Sender.Sent - before
}

// TestOrderStatusLinesAreOneBatch: the benchmark's Order-Status reads a
// customer, its district's next order ID, the order and the order's 15
// lines, the last with ol_number IN (0, …, 14) on a REGIONAL BY ROW table
// whose region is computed from the warehouse. The region is pinned, so the
// 15 primary keys live in one range and cost one RPC, not one each: the
// transaction is 4 batches before its commit, one per statement.
func TestOrderStatusLinesAreOneBatch(t *testing.T) {
	h := newSQLHarness(951)
	h.run(t, func(p *sim.Proc) {
		var lines []string
		for n := 0; n < 15; n++ {
			lines = append(lines, fmt.Sprintf("(1, 2, 5, %d, %d, 1, 2.5)", n, 100+n))
		}
		s := h.tpccSession(t, p,
			`INSERT INTO district (d_w_id, d_id, d_tax, d_ytd, d_next_o_id) VALUES (1, 2, 0.07, 0.0, 6)`,
			`INSERT INTO customer (c_w_id, c_d_id, c_id, c_name, c_balance, c_ytd_payment, c_payment_cnt) VALUES (1, 2, 3, 'cust', 0.0, 0.0, 0)`,
			`INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (1, 2, 5, 3, 0, 15)`,
			`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES `+strings.Join(lines, ", "),
		)
		const lineNums = "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14"
		st := func(text string, args ...Datum) tpccStmt { return tpccStmt{s.MustPrepare(text), args} }
		var sent int64
		per, results, _ := runTPCCTxn(t, p, s, "Order-Status", []tpccStmt{
			st(`SELECT c_balance, c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, int64(1), int64(2), int64(3)),
			st(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, int64(1), int64(2)),
			st(`SELECT * FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`, int64(1), int64(2), int64(5)),
			st(`SELECT * FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (`+lineNums+`)`, int64(1), int64(2), int64(5)),
		}, func(i int) func() {
			before := s.Coord.Sender.Sent
			return func() { sent = s.Coord.Sender.Sent - before }
		})
		for i, res := range results[:3] {
			if len(res.Rows) != 1 {
				t.Errorf("Order-Status statement %d read %d rows, want 1", i, len(res.Rows))
			}
		}
		if n := len(results[3].Rows); n != 15 {
			t.Errorf("Order-Status read %d lines, want 15", n)
		}
		if sent != 1 {
			t.Errorf("Order-Status's 15 line lookups sent %d RPCs, want 1", sent)
		}
		if got := fmt.Sprint(per); got != "[1 1 1 1]" {
			t.Errorf("Order-Status batches per statement %s, want [1 1 1 1]", got)
		}
	})
}

// insertHomed inserts users rows homed in the given regions, then waits
// out intent resolution and the uncertainty interval of the writes.
func insertHomed(t *testing.T, p *sim.Proc, s *Session, homes map[int]simnet.Region) {
	t.Helper()
	ids := make([]int, 0, len(homes))
	for id := range homes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var vals []string
	for _, id := range ids {
		vals = append(vals, fmt.Sprintf("(%d, 'u%d@x.com', 'user-%d', '%s')", id, id, id, homes[id]))
	}
	mustExec(t, p, s, `INSERT INTO users (id, email, name, crdb_region) VALUES `+strings.Join(vals, ", "))
	p.Sleep(sim.Second)
}

// TestLOSMissResolvesInOneRemoteRound: a multi-tuple locality-optimized
// search whose tuples all miss the gateway's partition sends them to every
// remote partition at once. Rows homed in different remote regions resolve
// in about the slowest needed region's round trip, not in the sum of one
// search per tuple, and tuples that one region answers do not wait for a
// slower region.
func TestLOSMissResolvesInOneRemoteRound(t *testing.T) {
	h := newSQLHarness(952)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		us := h.sessions[simnet.USEast1]
		insertHomed(t, p, us, map[int]simnet.Region{
			1: simnet.USEast1, 2: simnet.AsiaNE1, 3: simnet.USEast1, 4: simnet.USEast1, 5: simnet.EuropeW2,
		})
		eu := h.sessions[simnet.EuropeW2]
		toUS := h.c.Topo.RegionRTT(simnet.EuropeW2, simnet.USEast1)
		toAsia := h.c.Topo.RegionRTT(simnet.EuropeW2, simnet.AsiaNE1)
		elapsed := func(q string, want int) sim.Duration {
			t.Helper()
			start := p.Now()
			res := mustExec(t, p, eu, q)
			if len(res.Rows) != want {
				t.Errorf("%s: %d rows, want %d", q, len(res.Rows), want)
			}
			return p.Now().Sub(start)
		}
		// near allows for the network's jitter and the local probe.
		near := func(d, rtt sim.Duration) bool { return d >= rtt*9/10 && d <= rtt*6/5 }
		elapsed(`SELECT name FROM users WHERE id = 5`, 1) // warm the gateway's caches

		// us-east1 holds 1 and 3, asia-northeast1 holds 2: the slowest
		// needed region is asia-northeast1. One search per tuple would
		// take at least 2*toUS + toAsia.
		if d := elapsed(`SELECT name FROM users WHERE id IN (1, 2, 3)`, 3); !near(d, toAsia) {
			t.Errorf("3-tuple miss over two remote regions took %v, want about %v (the slowest region's round trip); one search per tuple takes %v",
				d, toAsia, 2*toUS+toAsia)
		}
		// Both rows are in us-east1: the statement returns on its answer,
		// without waiting for asia-northeast1's misses.
		if d := elapsed(`SELECT name FROM users WHERE id IN (3, 4)`, 2); !near(d, toUS) {
			t.Errorf("2-tuple miss found in us-east1 took %v, want about %v", d, toUS)
		}
		// A tuple found nowhere waits for every region.
		if d := elapsed(`SELECT name FROM users WHERE id IN (1, 99)`, 1); d < toAsia*9/10 {
			t.Errorf("a miss in every region returned after %v, before asia-northeast1 (%v) answered", d, toAsia)
		}
	})
}

// TestSecondaryIndexFollowUpsAreOneBatch: a non-storing secondary index
// holds only primary keys, so its rows take a second read. Whatever the
// number of rows, that read is one batch: a point lookup of N unique
// entries in a pinned partition costs two RPCs, and a scan of such an index
// returning N rows costs the scan and one batch, not N+1 sequential RPCs.
func TestSecondaryIndexFollowUpsAreOneBatch(t *testing.T) {
	h := newSQLHarness(953)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		us := h.sessions[simnet.USEast1]
		const n = 6
		homes := map[int]simnet.Region{}
		for id := 1; id <= n; id++ {
			homes[id] = simnet.USEast1
		}
		insertHomed(t, p, us, homes)

		var res *Result
		sent := sentBy(us, func() {
			res = mustExec(t, p, us, `SELECT name FROM users WHERE email IN ('u1@x.com', 'u2@x.com', 'u3@x.com', 'u4@x.com') AND crdb_region = 'us-east1'`)
		})
		if len(res.Rows) != 4 {
			t.Errorf("point lookup through the email index read %d rows, want 4", len(res.Rows))
		}
		if sent != 2 {
			t.Errorf("point lookup of 4 email entries sent %d RPCs, want 2 (entries, then rows)", sent)
		}

		tbl, _, err := us.table("users")
		if err != nil {
			t.Fatal(err)
		}
		plan := &readPlan{t: tbl, index: tbl.Indexes[1], regions: []simnet.Region{simnet.USEast1}}
		if covering(tbl, plan.index) {
			t.Fatalf("index %s stores rows", plan.index.Name)
		}
		var rows []tableRow
		if err := us.RunTxn(p, func(tx *txn.Txn) error {
			var err error
			sent = sentBy(us, func() { rows, err = us.fetchRows(p, txnFetcher{tx}, plan) })
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if len(rows) != n {
			t.Errorf("scan of the email index read %d rows, want %d", len(rows), n)
		}
		for _, row := range rows {
			if row.vals == nil || row.region != simnet.USEast1 {
				t.Errorf("scan of the email index returned %+v", row)
			}
		}
		if sent != 2 {
			t.Errorf("scan of a non-storing index returning %d rows sent %d RPCs, want 2 (the scan, then one batch)", n, sent)
		}
	})
}

// TestMultiKeyFirstReadRefreshesOnce: a multi-tuple SELECT that is its
// transaction's first read and meets one uncertain value is one batch, so
// the leaseholder may not bump that one key's read timestamp on its own.
// The coordinator moves the read timestamp to the value (the refresh has no
// earlier reads to check, so it sends nothing) and re-reads every key at it:
// two RPCs of three reads each, and no restart.
func TestMultiKeyFirstReadRefreshesOnce(t *testing.T) {
	h := newSQLHarness(954)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		mustExec(t, p, s, `INSERT INTO kvt (k, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
		p.Sleep(sim.Second)
		ds := s.Coord.Sender
		tx := s.Coord.Begin(0)
		// A write committed just after the transaction began lies inside its
		// uncertainty interval.
		mustExec(t, p, s, `UPDATE kvt SET v = 'uncertain' WHERE k = 2`)
		before, restarts := tx.ReadTimestamp(), s.Coord.Restarts
		sent, reqs := ds.Sent, ds.BatchedReqs
		res, err := s.ExecTxn(p, tx, `SELECT v FROM kvt WHERE k IN (1, 2, 3)`)
		if err != nil {
			t.Fatal(err)
		}
		if !before.Less(tx.ReadTimestamp()) {
			t.Fatalf("read timestamp stayed at %v: the test no longer meets an uncertain value", before)
		}
		if got := fmt.Sprint(res.Rows); got != "[[a] [uncertain] [c]]" {
			t.Errorf("rows %s, want [[a] [uncertain] [c]]", got)
		}
		if got, want := ds.Sent-sent, int64(2); got != want {
			t.Errorf("uncertain first read sent %d RPCs, want %d (the batch, then its re-read)", got, want)
		}
		if got, want := ds.BatchedReqs-reqs, int64(6); got != want {
			t.Errorf("uncertain first read sent %d requests, want %d (every key read twice)", got, want)
		}
		if s.Coord.Restarts != restarts {
			t.Errorf("uncertain first read restarted the transaction")
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}
