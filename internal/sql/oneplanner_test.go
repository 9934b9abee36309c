package sql

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// planArmCase is one statement text and the argument sets it is planned
// with; the first set derives the prepared statement's shape, every set is
// then bound to that shape.
type planArmCase struct {
	db, text string
	args     [][]Datum
}

// planOf plans a prepared statement's read (or loads its insert shape)
// and renders every field of the result the arms must agree on.
func planOf(t *testing.T, s *Session, ps *Prepared, args []Datum) string {
	t.Helper()
	if err := s.bind(ps, args); err != nil {
		t.Fatal(err)
	}
	defer func() { s.phArgs = nil }()
	var table string
	var where *Where
	limit := 0
	switch st := ps.Stmt.(type) {
	case *Select:
		table, where, limit = st.Table, st.Where, st.Limit
	case *Update:
		table, where = st.Table, st.Where
	case *Delete:
		table, where = st.Table, st.Where
	case *Insert:
		tbl, _, err := s.table(st.Table)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := s.insertShape(ps, tbl)
		if err != nil {
			t.Fatalf("%s: %v", Fingerprint(ps.Stmt), err)
		}
		return fmt.Sprintf("cols=%v defaults=%d computed=%d fromDefault=%v", ci.cols, len(ci.defaults), len(ci.computed), ci.fromDefault)
	}
	tbl, db, err := s.table(table)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.planPrepared(ps, tbl, db, where, limit)
	if err != nil {
		t.Fatalf("%s %v: %v", Fingerprint(ps.Stmt), args, err)
	}
	if plan.regionPinned && plan.los {
		t.Errorf("%s %v: a pinned partition set uses locality-optimized search", Fingerprint(ps.Stmt), args)
	}
	return fmt.Sprintf("index=%s lookups=%#v regions=%v regionPinned=%v los=%v filterRedundant=%v cols=%#v",
		plan.index.Name, plan.lookups, plan.regions, plan.regionPinned, plan.los, plan.filterRedundant, plan.cols)
}

// TestPlanParityAcrossCacheArms: a statement's plan is the same field for
// field — index, lookups, regions, regionPinned, los, filterRedundant and
// the decoded columns — whether the prepared statement reused its shape
// (hit), derived it again after a catalog change (miss), or a fresh ad-hoc
// statement derived its own, from every gateway. The texts are the
// benchmark's YCSB and TPC-C statements plus an IN list, a computed region
// (one argument does not evaluate to a region, so the reused computed shape
// must search), a REGIONAL BY ROW search, a duplicate index and a WHERE
// clause that constrains one column twice.
func TestPlanParityAcrossCacheArms(t *testing.T) {
	h := newSQLHarness(931)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		for _, stmt := range []string{
			`CREATE DATABASE ycsb PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
			`CREATE DATABASE ycsbg PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
			`CREATE DATABASE tpcc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
		} {
			mustExec(t, p, s, stmt)
		}
		for db, stmts := range map[string][]string{
			"ycsb": {
				`CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, field0 STRING) LOCALITY REGIONAL BY ROW`,
				`CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE, name STRING) LOCALITY REGIONAL BY ROW`,
				`CREATE TABLE dup_codes (code STRING PRIMARY KEY, v STRING) WITH DUPLICATE INDEXES`,
			},
			"ycsbg": {`CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, field0 STRING) LOCALITY GLOBAL`},
			"tpcc":  tpccTables(),
		} {
			s.Database = db
			for _, stmt := range stmts {
				mustExec(t, p, s, stmt)
			}
		}

		const lineNums = "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14"
		w := func(args ...Datum) []Datum { return args }
		cases := []planArmCase{
			// benchmark/workloads.go: YCSB on REGIONAL BY ROW and GLOBAL.
			{"ycsb", `SELECT field0 FROM usertable WHERE ycsb_key = $1`, [][]Datum{w("user000000001"), w("user000000002")}},
			{"ycsb", `UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1`, [][]Datum{w("user000000001", "v")}},
			{"ycsbg", `SELECT field0 FROM usertable WHERE ycsb_key = $1`, [][]Datum{w("user000000001")}},
			{"ycsbg", `UPSERT INTO usertable (ycsb_key, field0) VALUES ($1, $2)`, [][]Datum{w("user000000001", "v")}},
			// benchmark/workloads.go: TPC-C.
			{"tpcc", `SELECT w_tax FROM warehouse WHERE w_id = $1`, [][]Datum{w(int64(1)), w(int64(2)), w(true)}},
			{"tpcc", `UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2`, [][]Datum{w(int64(1), int64(2))}},
			{"tpcc", `SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`, [][]Datum{w(int64(1), int64(2)), w(nil, int64(2))}},
			{"tpcc", `SELECT c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, [][]Datum{w(int64(1), int64(2), int64(3))}},
			{"tpcc", `INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES ($1, $2, $3, $4, $5, $6)`, [][]Datum{w(int64(1), int64(2), int64(3), int64(4), int64(0), int64(5))}},
			{"tpcc", `INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES ($1, $2, $3)`, [][]Datum{w(int64(1), int64(2), int64(3))}},
			{"tpcc", `SELECT i_price FROM item WHERE i_id = $1`, [][]Datum{w(int64(7))}},
			{"tpcc", `SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2`, [][]Datum{w(int64(1), int64(7))}},
			{"tpcc", `UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`, [][]Datum{w(int64(50), int64(5), int64(1), int64(7))}},
			{"tpcc", `INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`, [][]Datum{w(int64(1), int64(2), int64(3), int64(0), int64(7), int64(5), 2.5)}},
			{"tpcc", `UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2`, [][]Datum{w(1.5, int64(1))}},
			{"tpcc", `UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3`, [][]Datum{w(1.5, int64(1), int64(2))}},
			{"tpcc", `UPDATE customer SET c_balance = c_balance - $1, c_ytd_payment = c_ytd_payment + $2, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = $3 AND c_d_id = $4 AND c_id = $5`, [][]Datum{w(1.5, 1.5, int64(1), int64(2), int64(3))}},
			{"tpcc", `INSERT INTO history (h_w_id, h_seq, h_amount) VALUES ($1, $2, $3)`, [][]Datum{w(int64(1), int64(9), 1.5)}},
			{"tpcc", `SELECT c_balance, c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`, [][]Datum{w(int64(1), int64(2), int64(3))}},
			{"tpcc", `SELECT * FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`, [][]Datum{w(int64(1), int64(2), int64(3))}},
			{"tpcc", `SELECT * FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (` + lineNums + `)`, [][]Datum{w(int64(1), int64(2), int64(3))}},
			// IN list, REGIONAL BY ROW search, pinned region, scan, LIMIT.
			{"ycsb", `SELECT name FROM users WHERE id IN (1, 2, 3)`, [][]Datum{nil}},
			{"ycsb", `SELECT name FROM users WHERE email = $1`, [][]Datum{w("a@x.com")}},
			{"ycsb", `SELECT name FROM users WHERE id = $1 AND crdb_region = $2`, [][]Datum{w(int64(1), "asia-northeast1"), w(int64(1), int64(5))}},
			{"ycsb", `SELECT name FROM users WHERE name = $1 LIMIT 5`, [][]Datum{w("alice")}},
			{"ycsb", `DELETE FROM users WHERE id = $1`, [][]Datum{w(int64(4))}},
			// Duplicate indexes: each gateway reads its own pinned copy.
			{"ycsb", `SELECT v FROM dup_codes WHERE code = $1`, [][]Datum{w("GO")}},
			{"ycsb", `SELECT v FROM dup_codes WHERE v = $1`, [][]Datum{w("x")}},
			// TestPlanConstraintIntersection's repeated column: never reused.
			{"ycsb", `SELECT name FROM users WHERE id IN (1, 2) AND id = $1`, [][]Datum{w(int64(2)), w(int64(3))}},
		}
		for _, r := range h.c.Regions() {
			gs := h.sessions[r]
			for _, c := range cases {
				gs.Database = c.db
				ps := gs.MustPrepare(c.text)
				planOf(t, gs, ps, c.args[0])
				cacheable := true
				if st, ok := ps.Stmt.(*Select); ok {
					cacheable = cacheableWhere(st.Where)
				}
				for _, args := range c.args {
					delta := shapeDelta(h.catalog)
					hit := planOf(t, gs, ps, args)
					if hits, _ := delta(); cacheable && hits != 1 {
						t.Errorf("%s: first arm made %d hits, want 1", c.text, hits)
					}
					h.catalog.Bump()
					delta = shapeDelta(h.catalog)
					miss := planOf(t, gs, ps, args)
					if _, misses := delta(); misses != 1 {
						t.Errorf("%s: second arm made %d misses, want 1", c.text, misses)
					}
					fresh := planOf(t, gs, newPrepared(ps.Stmt), args)
					if hit != miss || hit != fresh {
						t.Errorf("gateway %s, %s %v: plans differ across arms\n  hit: %s\n miss: %s\nfresh: %s",
							r, c.text, args, hit, miss, fresh)
					}
				}
			}
		}

		// A reused computed-region shape whose value does not evaluate
		// searches, gateway first, with LOS: what a fresh derivation picks.
		s.Database = "tpcc"
		ps := s.MustPrepare(`SELECT w_tax FROM warehouse WHERE w_id = $1`)
		planOf(t, s, ps, w(int64(1)))
		delta := shapeDelta(h.catalog)
		if got := planOf(t, s, ps, w(true)); !strings.Contains(got, "regions=[us-east1 ") || !strings.Contains(got, "regionPinned=false los=true") {
			t.Errorf("non-evaluating computed region: %s", got)
		}
		if hits, _ := delta(); hits != 1 {
			t.Errorf("non-evaluating computed region made %d hits, want 1", hits)
		}

		// An INSERT naming an unknown column fails the same way whether it
		// is prepared or ad hoc.
		s.Database = "ycsb"
		var errs []string
		for i := 0; i < 2; i++ {
			_, err := s.Exec(p, `INSERT INTO users (id, bogus) VALUES (1, 2)`)
			errs = append(errs, fmt.Sprint(err))
		}
		_, err := s.ExecPrepared(p, s.MustPrepare(`INSERT INTO users (id, bogus) VALUES ($1, $2)`), int64(1), int64(2))
		errs = append(errs, fmt.Sprint(err))
		if want := `sql: unknown column "bogus"`; errs[0] != want || errs[1] != want || errs[2] != want {
			t.Errorf("unknown-column INSERT errors (ad hoc, ad hoc, prepared) = %q, want %q each", errs, want)
		}
	})
}

// indexDump scans every partition of every index of t and renders each
// live entry as key (with the table prefix cut, so two tables with the same
// DDL compare) and value bytes, sorted.
func indexDump(t *testing.T, p *sim.Proc, s *Session, tbl *Table) []string {
	t.Helper()
	db, _ := s.Catalog.Database(tbl.DB)
	tablePrefix := len(fmt.Sprintf("/t%06d", tbl.ID))
	var out []string
	err := s.Coord.Run(p, func(tx *txn.Txn) error {
		out = out[:0]
		for _, idx := range tbl.Indexes {
			for _, region := range partitionsOf(tbl, db) {
				start, end := IndexSpan(tbl, idx.ID, region)
				kvs, err := tx.Scan(p, start, end, 0)
				if err != nil {
					return err
				}
				for _, kv := range kvs {
					out = append(out, fmt.Sprintf("%q = %x", kv.Key[tablePrefix:], kv.Value))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", tbl.Name, err)
	}
	sort.Strings(out)
	return out
}

// TestIndexEntriesFromOneEncoder: every producer of index entries lays
// down the same bytes for the same row. On a REGIONAL BY ROW table with a
// primary, a unique and a non-unique secondary index, and on a duplicate-
// indexes variant: a bulk-loaded row equals an INSERTed one; a CREATE INDEX
// backfill equals INSERTs made after the index existed; and an UPDATE of
// indexed columns leaves exactly the entries of a fresh INSERT of the new
// row, with no orphaned old entry.
func TestIndexEntriesFromOneEncoder(t *testing.T) {
	h := newSQLHarness(932)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE enc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "enc"
		for _, v := range []struct {
			name, locality string
			regions        []string // crdb_region per row; nil when unpartitioned
		}{
			{"rbr", "LOCALITY REGIONAL BY ROW", []string{"us-east1", "europe-west2", "asia-northeast1"}},
			{"dup", "WITH DUPLICATE INDEXES", nil},
		} {
			// mk creates <variant>_<suffix> with the common schema and the
			// non-unique city index.
			mk := func(suffix string, cityIndex bool) *Table {
				name := v.name + "_" + suffix
				mustExec(t, p, s, fmt.Sprintf(`CREATE TABLE %s (id INT PRIMARY KEY, email STRING UNIQUE, city STRING, name STRING) %s`, name, v.locality))
				if cityIndex {
					mustExec(t, p, s, fmt.Sprintf(`CREATE INDEX %s_city ON %s (city)`, name, name))
				}
				tbl, _ := h.catalog.Table("enc", name)
				return tbl
			}
			rows := [][]Datum{
				{int64(1), "a@x.com", "nyc", "ann"},
				{int64(2), "b@x.com", "nyc", "bob"}, // shares city with row 1
				{int64(3), "c@x.com", "tokyo", "cy"},
			}
			cols := []string{"id", "email", "city", "name"}
			insert := func(tbl *Table, rows [][]Datum) {
				for i, row := range rows {
					names, vals := cols, fmt.Sprintf("%d, '%s', '%s', '%s'", row[0], row[1], row[2], row[3])
					if v.regions != nil {
						names = append(names[:len(names):len(names)], RegionColumnName)
						vals += fmt.Sprintf(", '%s'", v.regions[i])
					}
					mustExec(t, p, s, fmt.Sprintf(`INSERT INTO %s (%s) VALUES (%s)`, tbl.Name, strings.Join(names, ", "), vals))
				}
			}
			same := func(what string, a, b *Table) {
				t.Helper()
				da, db := indexDump(t, p, s, a), indexDump(t, p, s, b)
				if len(da) == 0 || !reflect.DeepEqual(da, db) {
					t.Errorf("%s: %s\n%s:\n  %s\n%s:\n  %s", v.name, what, a.Name, strings.Join(da, "\n  "), b.Name, strings.Join(db, "\n  "))
				}
			}

			// BulkLoadRow = INSERT.
			inserted, loaded := mk("ins", true), mk("bulk", true)
			insert(inserted, rows)
			for i, row := range rows {
				vals := map[string]Datum{}
				for j, c := range cols {
					vals[c] = row[j]
				}
				if v.regions != nil {
					vals[RegionColumnName] = v.regions[i]
				}
				if err := s.BulkLoadRow(loaded, vals, hlc.Timestamp{WallTime: 1}); err != nil {
					t.Fatal(err)
				}
			}
			same("bulk-loaded rows differ from INSERTed ones", inserted, loaded)

			// CREATE INDEX backfill = INSERTs after the index existed.
			backfilled := mk("bf", false)
			insert(backfilled, rows)
			mustExec(t, p, s, fmt.Sprintf(`CREATE INDEX %s_city ON %s (city)`, backfilled.Name, backfilled.Name))
			same("backfilled index differs from one maintained by INSERT", inserted, backfilled)

			// UPDATE of indexed columns = INSERT of the new row.
			updated, fresh := mk("upd", true), mk("fresh", true)
			insert(updated, rows)
			mustExec(t, p, s, fmt.Sprintf(`UPDATE %s SET email = 'z@x.com', city = 'tokyo' WHERE id = 2`, updated.Name))
			newRows := append([][]Datum(nil), rows...)
			newRows[1] = []Datum{int64(2), "z@x.com", "tokyo", "bob"}
			insert(fresh, newRows)
			same("UPDATE left other entries than an INSERT of the new row", updated, fresh)
		}
	})
}
