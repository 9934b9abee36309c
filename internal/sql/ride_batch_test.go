package sql

import (
	"fmt"
	"reflect"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// tpccTables is the TPC-C schema of internal/workload (which the benchmark
// runs): item is GLOBAL, every other table REGIONAL BY ROW with its region
// computed from the warehouse column.
func tpccTables() []string {
	region := func(col string) string {
		return fmt.Sprintf("crdb_region crdb_internal_region AS (region_from_warehouse(%s)) STORED", col)
	}
	return []string{
		`CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT) LOCALITY GLOBAL`,
		fmt.Sprintf(`CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING, w_tax FLOAT, w_ytd FLOAT, %s) LOCALITY REGIONAL BY ROW`, region("w_id")),
		fmt.Sprintf(`CREATE TABLE district (d_w_id INT, d_id INT, d_tax FLOAT, d_ytd FLOAT, d_next_o_id INT, %s, PRIMARY KEY (d_w_id, d_id)) LOCALITY REGIONAL BY ROW`, region("d_w_id")),
		fmt.Sprintf(`CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_name STRING, c_balance FLOAT, c_ytd_payment FLOAT, c_payment_cnt INT, %s, PRIMARY KEY (c_w_id, c_d_id, c_id)) LOCALITY REGIONAL BY ROW`, region("c_w_id")),
		fmt.Sprintf(`CREATE TABLE history (h_w_id INT, h_seq INT, h_amount FLOAT, %s, PRIMARY KEY (h_w_id, h_seq)) LOCALITY REGIONAL BY ROW`, region("h_w_id")),
		fmt.Sprintf(`CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_carrier_id INT, o_ol_cnt INT, %s, PRIMARY KEY (o_w_id, o_d_id, o_id)) LOCALITY REGIONAL BY ROW`, region("o_w_id")),
		fmt.Sprintf(`CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, %s, PRIMARY KEY (no_w_id, no_d_id, no_o_id)) LOCALITY REGIONAL BY ROW`, region("no_w_id")),
		fmt.Sprintf(`CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount FLOAT, %s, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) LOCALITY REGIONAL BY ROW`, region("ol_w_id")),
		fmt.Sprintf(`CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd INT, %s, PRIMARY KEY (s_w_id, s_i_id)) LOCALITY REGIONAL BY ROW`, region("s_w_id")),
	}
}

// tpccSession creates the TPC-C schema from the us-east1 session, loads rows
// and returns the session, once the loads' intent resolution (which the
// gateway's DistSender counts) is over.
func (h *sqlHarness) tpccSession(t *testing.T, p *sim.Proc, rows ...string) *Session {
	t.Helper()
	s := h.sessions[simnet.USEast1]
	mustExec(t, p, s, `CREATE DATABASE tpcc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
	s.Database = "tpcc"
	for _, stmt := range tpccTables() {
		mustExec(t, p, s, stmt)
	}
	for _, row := range rows {
		mustExec(t, p, s, row)
	}
	p.Sleep(sim.Second)
	return s
}

// tpccStmt is one of benchmark/workloads.go's prepared statements with its
// arguments.
type tpccStmt struct {
	ps   *Prepared
	args []Datum
}

// runTPCCTxn runs stmts as one transaction and returns the batches each
// statement sent, its result, and the cross-region RPCs the commit sent.
// around, when set, is called before statement i and the function it
// returns after it.
func runTPCCTxn(t *testing.T, p *sim.Proc, s *Session, name string, stmts []tpccStmt, around func(i int) func()) ([]int64, []*Result, int64) {
	t.Helper()
	ds := s.Coord.Sender
	var per []int64
	var results []*Result
	var wan int64
	if err := s.RunTxn(p, func(tx *txn.Txn) error {
		per, results = per[:0], results[:0]
		for i, st := range stmts {
			after := func() {}
			if around != nil {
				after = around(i)
			}
			before := ds.Batches
			res, err := s.ExecPreparedTxn(p, tx, st.ps, st.args...)
			after()
			if err != nil {
				return err
			}
			per, results = append(per, ds.Batches-before), append(results, res)
		}
		wan = ds.WANRPCs
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return per, results, ds.WANRPCs - wan
}

// TestUpdateWritesRideTheNextBatch counts the KV batches each statement of
// the benchmark's TPC-C Payment and one-line New-Order sends, from the start
// of the transaction up to just before its commit. An UPDATE's locking read
// is one batch; its write waits and rides the next statement's batch, and
// the SELECT d_next_o_id that follows UPDATE district reads the pending
// write and sends nothing. UPDATE stock reads the row SELECT s_quantity
// has just read, so its locking read sends nothing either: New-Order costs
// 5 + 3 per line. Sending every write at once, Payment costs 7 batches
// (2+2+2+1) and New-Order 12 (7 + 5 per line); with writes riding the next
// batch but every read sent, New-Order costs 5 + 4 per line.
func TestUpdateWritesRideTheNextBatch(t *testing.T) {
	h := newSQLHarness(940)
	h.run(t, func(p *sim.Proc) {
		s := h.tpccSession(t, p,
			`INSERT INTO item (i_id, i_name, i_price) VALUES (7, 'item-7', 2.5)`,
			`INSERT INTO warehouse (w_id, w_name, w_tax, w_ytd) VALUES (1, 'wh-1', 0.05, 0.0)`,
			`INSERT INTO district (d_w_id, d_id, d_tax, d_ytd, d_next_o_id) VALUES (1, 2, 0.07, 0.0, 3001)`,
			`INSERT INTO customer (c_w_id, c_d_id, c_id, c_name, c_balance, c_ytd_payment, c_payment_cnt) VALUES (1, 2, 3, 'cust', 0.0, 0.0, 0)`,
			`INSERT INTO stock (s_w_id, s_i_id, s_quantity, s_ytd) VALUES (1, 7, 50, 0)`,
		)
		st := func(text string, args ...Datum) tpccStmt { return tpccStmt{s.MustPrepare(text), args} }
		batches := func(name string, stmts []tpccStmt) ([]int64, []*Result) {
			per, results, _ := runTPCCTxn(t, p, s, name, stmts, nil)
			return per, results
		}

		payment, _ := batches("Payment", []tpccStmt{
			st(`UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2`, 1.5, int64(1)),
			st(`UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3`, 1.5, int64(1), int64(2)),
			st(`UPDATE customer SET c_balance = c_balance - $1, c_ytd_payment = c_ytd_payment + $2, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = $3 AND c_d_id = $4 AND c_id = $5`,
				1.5, 1.5, int64(1), int64(2), int64(3)),
			st(`INSERT INTO history (h_w_id, h_seq, h_amount) VALUES ($1, $2, $3)`, int64(1), int64(1), 1.5),
		})
		if want := []int64{1, 1, 1, 1}; !reflect.DeepEqual(payment, want) {
			t.Errorf("Payment batches per statement = %v, want %v", payment, want)
		}
		p.Sleep(sim.Second) // Payment's intent resolution

		newOrder, results := batches("New-Order", []tpccStmt{
			st(`SELECT w_tax FROM warehouse WHERE w_id = $1`, int64(1)),
			st(`UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2`, int64(1), int64(2)),
			st(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, int64(1), int64(2)),
			st(`SELECT c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, int64(1), int64(2), int64(3)),
			st(`INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES ($1, $2, $3, $4, $5, $6)`,
				int64(1), int64(2), int64(3001), int64(3), int64(0), int64(1)),
			st(`INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES ($1, $2, $3)`, int64(1), int64(2), int64(3001)),
			st(`SELECT i_price FROM item WHERE i_id = $1`, int64(7)),
			st(`SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2`, int64(1), int64(7)),
			st(`UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`, int64(45), int64(5), int64(1), int64(7)),
			st(`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`,
				int64(1), int64(2), int64(3001), int64(0), int64(7), int64(5), 12.5),
		})
		if want := []int64{1, 1, 0, 1, 1, 1, 1, 1, 0, 1}; !reflect.DeepEqual(newOrder, want) {
			t.Errorf("New-Order batches per statement = %v, want %v", newOrder, want)
		}
		if rows := results[2].Rows; len(rows) != 1 || rows[0][0] != int64(3002) {
			t.Errorf("SELECT d_next_o_id after UPDATE district read %v, want 3002", rows)
		}

		res := mustExec(t, p, s, `SELECT d_next_o_id, d_ytd FROM district WHERE d_w_id = 1 AND d_id = 2`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(3002) || res.Rows[0][1] != 1.5 {
			t.Errorf("district after Payment and New-Order: %v", res.Rows)
		}
		res = mustExec(t, p, s, `SELECT s_quantity FROM stock WHERE s_w_id = 1 AND s_i_id = 7`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(45) {
			t.Errorf("stock after New-Order: %v", res.Rows)
		}
	})
}

// TestRemoteStockWriteReplicatesFirst runs the benchmark's New-Order with one
// remote stock line from us-east1: warehouse 2 is homed there, and line 1
// takes its stock from warehouse 4 in europe-west2. The remote stock write
// rides line 1's INSERT order_line. Its range's quorum is in europe-west2,
// so the write replicates before the leaseholder replies: with that
// leaseholder's links to its followers slowed for the statement, the write
// is on a quorum of the range's voters when the statement returns. Every
// statement sends the batches it sent before, and the commit, which no
// longer proves the remote write, sends nothing across regions.
func TestRemoteStockWriteReplicatesFirst(t *testing.T) {
	h := newSQLHarness(941)
	h.run(t, func(p *sim.Proc) {
		s := h.tpccSession(t, p,
			`INSERT INTO item (i_id, i_name, i_price) VALUES (7, 'item-7', 2.5), (8, 'item-8', 4.0)`,
			`INSERT INTO warehouse (w_id, w_name, w_tax, w_ytd) VALUES (2, 'wh-2', 0.05, 0.0)`,
			`INSERT INTO district (d_w_id, d_id, d_tax, d_ytd, d_next_o_id) VALUES (2, 1, 0.07, 0.0, 3001)`,
			`INSERT INTO customer (c_w_id, c_d_id, c_id, c_name, c_balance, c_ytd_payment, c_payment_cnt) VALUES (2, 1, 3, 'cust', 0.0, 0.0, 0)`,
			`INSERT INTO stock (s_w_id, s_i_id, s_quantity, s_ytd) VALUES (2, 7, 50, 0), (4, 8, 60, 0)`,
		)
		stock, _ := h.catalog.Table("tpcc", "stock")
		desc, err := h.c.Catalog.Lookup(IndexPrefix(stock, stock.Primary().ID, simnet.EuropeW2))
		if err != nil {
			t.Fatal(err)
		}
		lh, _ := h.c.Stores[desc.Leaseholder].Replica(desc.RangeID)
		st := func(text string, args ...Datum) tpccStmt { return tpccStmt{s.MustPrepare(text), args} }
		line := func(n, item, stockWH, qty int64) []tpccStmt {
			return []tpccStmt{
				st(`SELECT i_price FROM item WHERE i_id = $1`, item),
				st(`SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2`, stockWH, item),
				st(`UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`, qty, int64(5), stockWH, item),
				st(`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`,
					int64(2), int64(1), int64(3001), n, item, int64(5), 12.5),
			}
		}
		stmts := []tpccStmt{
			st(`SELECT w_tax FROM warehouse WHERE w_id = $1`, int64(2)),
			st(`UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2`, int64(2), int64(1)),
			st(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, int64(2), int64(1)),
			st(`SELECT c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, int64(2), int64(1), int64(3)),
			st(`INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES ($1, $2, $3, $4, $5, $6)`,
				int64(2), int64(1), int64(3001), int64(3), int64(0), int64(2)),
			st(`INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES ($1, $2, $3)`, int64(2), int64(1), int64(3001)),
		}
		stmts = append(stmts, line(0, 7, 2, 45)...)
		stmts = append(stmts, line(1, 8, 4, 55)...)
		remoteInsert := len(stmts) - 1
		onQuorum := 0
		per, _, commitWAN := runTPCCTxn(t, p, s, "New-Order", stmts, func(i int) func() {
			if i != remoteInsert {
				return func() {}
			}
			for _, v := range desc.Voters {
				if v != desc.Leaseholder {
					h.c.Net.SlowLink(desc.Leaseholder, v, 300*sim.Millisecond)
				}
			}
			return func() {
				last := lh.Raft().LastIndex()
				onQuorum = 0
				for _, v := range desc.Voters {
					if r, ok := h.c.Stores[v].Replica(desc.RangeID); ok && r.Raft().LastIndex() >= last {
						onQuorum++
					}
					h.c.Net.HealLink(desc.Leaseholder, v)
				}
				if lh.Raft().Applied() != last {
					t.Errorf("the leaseholder had applied %d of %d entries when the statement returned", lh.Raft().Applied(), last)
				}
			}
		})
		if want := []int64{1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1}; !reflect.DeepEqual(per, want) {
			t.Errorf("New-Order batches per statement = %v, want %v", per, want)
		}
		if onQuorum <= len(desc.Voters)/2 {
			t.Errorf("the remote stock write was on %d of %d voters when its statement returned, want a quorum", onQuorum, len(desc.Voters))
		}
		if commitWAN != 0 {
			t.Errorf("the commit sent %d cross-region RPCs, want 0", commitWAN)
		}
		res := mustExec(t, p, s, `SELECT s_quantity FROM stock WHERE s_w_id = 4 AND s_i_id = 8`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(55) {
			t.Errorf("remote stock after New-Order: %v", res.Rows)
		}
	})
}
