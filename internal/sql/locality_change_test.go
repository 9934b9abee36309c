package sql

import (
	"fmt"
	"strings"
	"testing"

	"mrdb/internal/core"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// setupBank creates the database bank over the three regions and makes it
// every session's.
func (h *sqlHarness) setupBank(t *testing.T, p *sim.Proc) *Session {
	t.Helper()
	s := h.sessions[simnet.USEast1]
	mustExec(t, p, s, `CREATE DATABASE bank PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
	for _, sess := range h.sessions {
		sess.Database = "bank"
	}
	return s
}

// setupLedger creates, in the database bank, a REGIONAL BY TABLE ledger of n
// rows with a non-storing unique secondary index on code, created after the
// rows are loaded.
func (h *sqlHarness) setupLedger(t *testing.T, p *sim.Proc, n int) *Session {
	t.Helper()
	s := h.setupBank(t, p)
	mustExec(t, p, s, `CREATE TABLE ledger (id INT PRIMARY KEY, code STRING, amount INT)`)
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'c%d', %d)", i, i, 10*i))
	}
	mustExec(t, p, s, `INSERT INTO ledger (id, code, amount) VALUES `+strings.Join(vals, ", "))
	mustExec(t, p, s, `CREATE UNIQUE INDEX ledger_code_key ON ledger (code)`)
	return s
}

// checkLedger reads the ledger through s: every row and the checksum of its
// amounts, one row through the secondary index, and one UPDATE of it (which
// it then reverts). It reports what differs from the n rows setupLedger
// loaded.
func checkLedger(p *sim.Proc, s *Session, n, probe int) error {
	res, err := s.Exec(p, `SELECT id, amount FROM ledger`)
	if err != nil {
		return fmt.Errorf("scan: %v", err)
	}
	sum := int64(0)
	for _, row := range res.Rows {
		sum += row[0].(int64)*1000 + row[1].(int64)
	}
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i)*1000 + int64(10*i)
	}
	if len(res.Rows) != n || sum != want {
		return fmt.Errorf("scan read %d rows with checksum %d, want %d and %d", len(res.Rows), sum, n, want)
	}
	res, err = s.Exec(p, fmt.Sprintf(`SELECT id, amount FROM ledger WHERE code = 'c%d'`, probe))
	if err != nil {
		return fmt.Errorf("index lookup: %v", err)
	}
	if got, want := rowSet(res.Rows), fmt.Sprintf("[%d %d]", probe, 10*probe); got != want {
		return fmt.Errorf("index lookup of c%d read %s, want %s", probe, got, want)
	}
	for _, amount := range []int{-1, 10 * probe} {
		res, err = s.Exec(p, fmt.Sprintf(`UPDATE ledger SET amount = %d WHERE id = %d`, amount, probe))
		if err != nil {
			return fmt.Errorf("update: %v", err)
		}
		if res.RowsAffected != 1 {
			return fmt.Errorf("update of row %d changed %d rows", probe, res.RowsAffected)
		}
	}
	return nil
}

// TestSetLocalityCycle walks one table with a unique secondary index through
// every locality change, each away from and back to REGIONAL BY ROW among
// them, and after each step reads every row, a checksum, one row through the
// index and one UPDATE from a rotating gateway. Leaving REGIONAL BY ROW used
// to wait for the old primary index's ranges under the new, unpartitioned
// keys, fail, and leave the table half swapped and unreadable.
func TestSetLocalityCycle(t *testing.T) {
	h := newSQLHarness(971)
	h.run(t, func(p *sim.Proc) {
		const n = 12
		s := h.setupLedger(t, p, n)
		regions := h.c.Regions()
		if err := checkLedger(p, s, n, 0); err != nil {
			t.Fatalf("before any change: %v", err)
		}
		steps := []struct {
			stmt string
			loc  core.TableLocality
			home simnet.Region
		}{
			{`REGIONAL BY ROW`, core.RegionalByRow, ""},
			{`GLOBAL`, core.Global, ""},
			{`REGIONAL BY ROW`, core.RegionalByRow, ""},
			{`REGIONAL BY TABLE IN "europe-west2"`, core.RegionalByTable, simnet.EuropeW2},
			{`GLOBAL`, core.Global, ""},
		}
		for i, st := range steps {
			if _, err := s.Exec(p, `ALTER TABLE ledger SET LOCALITY `+st.stmt); err != nil {
				t.Fatalf("step %d, SET LOCALITY %s: %v", i+1, st.stmt, err)
			}
			tbl, _ := h.catalog.Table("bank", "ledger")
			if tbl.Locality != st.loc || tbl.HomeRegion != st.home {
				t.Fatalf("step %d: ledger is %v in %q, want %v in %q", i+1, tbl.Locality, tbl.HomeRegion, st.loc, st.home)
			}
			if err := checkLedger(p, h.sessions[regions[i%len(regions)]], n, i+1); err != nil {
				t.Fatalf("after step %d, SET LOCALITY %s: %v", i+1, st.stmt, err)
			}
		}
	})
}

// TestFailedSetLocalityLeavesTableAsItWas: a conversion to REGIONAL BY ROW
// whose backfill fails — a row is homed in a region the database dropped
// while the table was GLOBAL, so no range holds its new key — drops the
// ranges it built and leaves the table GLOBAL, readable through its index
// and writable.
func TestFailedSetLocalityLeavesTableAsItWas(t *testing.T) {
	h := newSQLHarness(972)
	h.run(t, func(p *sim.Proc) {
		const n = 6
		s := h.setupLedger(t, p, n)
		mustExec(t, p, s, `ALTER TABLE ledger SET LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `UPDATE ledger SET crdb_region = 'asia-northeast1' WHERE id = 3`)
		mustExec(t, p, s, `ALTER TABLE ledger SET LOCALITY GLOBAL`)
		mustExec(t, p, s, `ALTER DATABASE bank DROP REGION "asia-northeast1"`)
		tbl, _ := h.catalog.Table("bank", "ledger")
		before := *tbl
		ranges := len(h.c.Catalog.All())

		_, err := s.Exec(p, `ALTER TABLE ledger SET LOCALITY REGIONAL BY ROW`)
		if err == nil {
			t.Fatal("a backfill writing a row homed in a dropped region succeeded")
		}
		t.Logf("the ALTER failed: %v", err)
		if tbl.Locality != core.Global || tbl.nextIdxID != before.nextIdxID || len(tbl.Indexes) != len(before.Indexes) || tbl.Indexes[0] != before.Indexes[0] {
			t.Fatalf("the failed ALTER changed the table: %v with indexes %v, was %v with %v",
				tbl.Locality, tbl.Indexes, before.Locality, before.Indexes)
		}
		if got := len(h.c.Catalog.All()); got != ranges {
			t.Errorf("%d ranges after the failed ALTER, %d before: its ranges were not dropped", got, ranges)
		}
		for _, r := range []simnet.Region{simnet.USEast1, simnet.EuropeW2} {
			if err := checkLedger(p, h.sessions[r], n, 2); err != nil {
				t.Errorf("from %s after the failed ALTER: %v", r, err)
			}
		}
	})
}
