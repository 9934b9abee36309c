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
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE tpcc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "tpcc"
		for _, stmt := range tpccTables() {
			mustExec(t, p, s, stmt)
		}
		for _, stmt := range []string{
			`INSERT INTO item (i_id, i_name, i_price) VALUES (7, 'item-7', 2.5)`,
			`INSERT INTO warehouse (w_id, w_name, w_tax, w_ytd) VALUES (1, 'wh-1', 0.05, 0.0)`,
			`INSERT INTO district (d_w_id, d_id, d_tax, d_ytd, d_next_o_id) VALUES (1, 2, 0.07, 0.0, 3001)`,
			`INSERT INTO customer (c_w_id, c_d_id, c_id, c_name, c_balance, c_ytd_payment, c_payment_cnt) VALUES (1, 2, 3, 'cust', 0.0, 0.0, 0)`,
			`INSERT INTO stock (s_w_id, s_i_id, s_quantity, s_ytd) VALUES (1, 7, 50, 0)`,
		} {
			mustExec(t, p, s, stmt)
		}
		p.Sleep(sim.Second) // the loads' intent resolution, which the gateway's DistSender counts

		// benchmark/workloads.go's statements.
		type stmt struct {
			ps   *Prepared
			args []Datum
		}
		st := func(text string, args ...Datum) stmt { return stmt{s.MustPrepare(text), args} }
		ds := s.Coord.Sender
		// batches runs stmts as one transaction and returns the batches each
		// statement sent and its result.
		batches := func(name string, stmts []stmt) ([]int64, []*Result) {
			var per []int64
			var results []*Result
			if err := s.RunTxn(p, func(tx *txn.Txn) error {
				per, results = per[:0], results[:0]
				for _, st := range stmts {
					before := ds.Batches
					res, err := s.ExecPreparedTxn(p, tx, st.ps, st.args...)
					if err != nil {
						return err
					}
					per, results = append(per, ds.Batches-before), append(results, res)
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return per, results
		}

		payment, _ := batches("Payment", []stmt{
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

		newOrder, results := batches("New-Order", []stmt{
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
