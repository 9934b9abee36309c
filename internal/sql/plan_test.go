package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/core"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
	"mrdb/internal/txn"
)

// planHarness builds a catalog + session without running any workload;
// planning is pure.
type planHarness struct {
	c       *cluster.Cluster
	catalog *Catalog
	session *Session
	db      *core.Database
}

func newPlanHarness(t *testing.T) *planHarness {
	t.Helper()
	c := cluster.New(cluster.Config{
		Seed: 1, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond,
	})
	catalog := NewCatalog()
	db := core.NewDatabase("d", simnet.USEast1, simnet.EuropeW2, simnet.AsiaNE1)
	if err := catalog.CreateDatabase(db); err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, catalog, c.GatewayFor(simnet.EuropeW2))
	s.Database = "d"
	return &planHarness{c: c, catalog: catalog, session: s, db: db}
}

// mkTable registers a REGIONAL BY ROW table with PK (id), unique email,
// and a computed-region variant flag, without creating ranges.
func (h *planHarness) mkTable(t *testing.T, name string, computed bool) *Table {
	t.Helper()
	tbl := &Table{Name: name, DB: "d", Locality: core.RegionalByRow}
	id := tbl.AddColumn(&Column{Name: "id", Type: TInt, NotNull: true})
	email := tbl.AddColumn(&Column{Name: "email", Type: TString})
	tbl.AddColumn(&Column{Name: "city", Type: TString})
	var regionCol *Column
	if computed {
		regionCol = tbl.AddColumn(&Column{
			Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
			Computed: &FuncCall{Name: "region_from_city", Args: []Expr{&ColRef{Name: "city"}}},
		})
	} else {
		regionCol = tbl.AddColumn(&Column{
			Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
			Default: &FuncCall{Name: "gateway_region"},
		})
	}
	tbl.RegionColumn = regionCol.ID
	tbl.AddIndex(&Index{Name: "primary", Unique: true, Cols: []ColumnID{id.ID}})
	tbl.AddIndex(&Index{Name: "email_key", Unique: true, Cols: []ColumnID{email.ID}})
	if err := h.catalog.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func eq(col string, v Datum) *Where {
	return &Where{Conds: []Cond{{Col: col, Op: OpEq, Vals: []Expr{&Lit{Val: v}}}}}
}

func TestPlanPointLookupOnPK(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planRead(tbl, h.db, eq("id", int64(7)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.index.Name != "primary" {
		t.Fatalf("chose index %q", plan.index.Name)
	}
	if len(plan.lookups) != 1 || len(plan.lookups[0]) != 1 {
		t.Fatalf("lookups = %v", plan.lookups)
	}
	if plan.regionPinned {
		t.Fatal("region should not be pinned without a region predicate")
	}
	if !plan.los {
		t.Fatal("unique point lookup should use locality optimized search")
	}
	// Gateway's region probes first.
	if plan.regions[0] != simnet.EuropeW2 {
		t.Fatalf("first probe region = %v, want the gateway's", plan.regions[0])
	}
	if len(plan.regions) != 3 {
		t.Fatalf("regions = %v", plan.regions)
	}
}

func TestPlanUniqueSecondaryIndex(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planRead(tbl, h.db, eq("email", "a@b.c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.index.Name != "email_key" {
		t.Fatalf("chose index %q", plan.index.Name)
	}
	if !plan.los {
		t.Fatal("unique secondary lookup should use LOS")
	}
}

func TestPlanRegionPinnedByPredicate(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	w := eq("id", int64(1))
	w.Conds = append(w.Conds, Cond{
		Col: RegionColumnName, Op: OpEq,
		Vals: []Expr{&Lit{Val: "asia-northeast1"}},
	})
	plan, err := h.session.planRead(tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.regionPinned || len(plan.regions) != 1 || plan.regions[0] != simnet.AsiaNE1 {
		t.Fatalf("pinned=%v regions=%v", plan.regionPinned, plan.regions)
	}
}

func TestPlanComputedRegionPins(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "accounts", true)
	w := eq("id", int64(1))
	w.Conds = append(w.Conds, Cond{Col: "city", Op: OpEq, Vals: []Expr{&Lit{Val: "tokyo"}}})
	plan, err := h.session.planRead(tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.regionPinned || len(plan.regions) != 1 {
		t.Fatalf("computed region did not pin: %v", plan.regions)
	}
	// Without the determinant column the plan must search.
	plan, err = h.session.planRead(tbl, h.db, eq("id", int64(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.regionPinned {
		t.Fatal("pinned without the determinant column")
	}
}

func TestPlanInListBuildsTuples(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	w := &Where{Conds: []Cond{{
		Col: "id", Op: OpIn,
		Vals: []Expr{&Lit{Val: int64(1)}, &Lit{Val: int64(2)}, &Lit{Val: int64(3)}},
	}}}
	plan, err := h.session.planRead(tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.lookups) != 3 {
		t.Fatalf("lookups = %d", len(plan.lookups))
	}
}

func TestPlanFullScanWithoutUsableIndex(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planRead(tbl, h.db, eq("city", "x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.lookups != nil {
		t.Fatal("non-indexed predicate should scan")
	}
	if plan.index.Name != "primary" {
		t.Fatalf("scan over %q", plan.index.Name)
	}
}

func TestPlanLOSDisabled(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	h.session.LocalityOptimizedSearch = false
	plan, err := h.session.planRead(tbl, h.db, eq("id", int64(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.los {
		t.Fatal("LOS used despite being disabled")
	}
}

func TestPlanConstraintIntersection(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	// id IN (1,2) AND id = 2 -> single lookup for 2.
	w := &Where{Conds: []Cond{
		{Col: "id", Op: OpIn, Vals: []Expr{&Lit{Val: int64(1)}, &Lit{Val: int64(2)}}},
		{Col: "id", Op: OpEq, Vals: []Expr{&Lit{Val: int64(2)}}},
	}}
	plan, err := h.session.planRead(tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.lookups) != 1 || plan.lookups[0][0] != int64(2) {
		t.Fatalf("lookups = %v", plan.lookups)
	}
}

func TestExprColumnDeps(t *testing.T) {
	e := &CaseExpr{
		Whens: []CaseWhen{{
			Cond: &BinaryExpr{Op: "=", L: &ColRef{Name: "state"}, R: &Lit{Val: "CA"}},
			Then: &Lit{Val: "us-west1"},
		}},
		Else: &FuncCall{Name: "f", Args: []Expr{&ColRef{Name: "city"}}},
	}
	deps := exprColumnDeps(e)
	if len(deps) != 2 || deps[0] != "state" || deps[1] != "city" {
		t.Fatalf("deps = %v", deps)
	}
}

func TestIndexSpanNesting(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	// Partition spans must be disjoint per (index, region).
	s1, e1 := IndexSpan(tbl, tbl.Primary().ID, simnet.USEast1)
	s2, _ := IndexSpan(tbl, tbl.Primary().ID, simnet.EuropeW2)
	if string(s1) >= string(e1) {
		t.Fatal("empty span")
	}
	if string(s2) >= string(s1) && string(s2) < string(e1) {
		t.Fatal("partition spans overlap")
	}
	// Keys encode inside their partition span.
	key := encodeIndexKey(new(slab.Of[byte]), tbl, tbl.Primary(), simnet.USEast1, []Datum{int64(5)}, 0)
	if string(key) < string(s1) || string(key) >= string(e1) {
		t.Fatal("encoded key outside its partition span")
	}
}

// rowSet renders result rows sorted, so reads that return the same rows in
// another order compare equal.
func rowSet(rows ...[][]Datum) string {
	var out []string
	for _, rs := range rows {
		for _, r := range rs {
			out = append(out, fmt.Sprint(r))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// inCase is a statement with one IN list (%s) and the values it is run
// with: all of them at once, and each alone.
type inCase struct {
	text string
	vals []string
}

func (c inCase) multi() string { return fmt.Sprintf(c.text, strings.Join(c.vals, ", ")) }

// setupEquivalence creates and fills the tables the equivalence tests read:
// users (REGIONAL BY ROW with a region column and a unique, non-storing
// email index) with rows homed in every region, kvu (unpartitioned, with a
// unique email index), cr (REGIONAL BY ROW, region computed from w) and
// dup_codes (a duplicate index, which stores the row, pinned to each
// region).
func (h *sqlHarness) setupEquivalence(t *testing.T, p *sim.Proc) *Session {
	t.Helper()
	s := h.setupMovr(t, p)
	mustExec(t, p, s, `CREATE TABLE kvu (k INT PRIMARY KEY, email STRING UNIQUE, v STRING)`)
	mustExec(t, p, s, `CREATE TABLE cr (w INT, n INT, v STRING, crdb_region crdb_internal_region AS (region_from_warehouse(w)) STORED, PRIMARY KEY (w, n)) LOCALITY REGIONAL BY ROW`)
	mustExec(t, p, s, `CREATE TABLE dup_codes (code STRING PRIMARY KEY, v STRING) WITH DUPLICATE INDEXES`)
	insertHomed(t, p, s, map[int]simnet.Region{
		1: simnet.USEast1, 2: simnet.AsiaNE1, 3: simnet.EuropeW2, 4: simnet.USEast1, 5: simnet.AsiaNE1, 6: simnet.EuropeW2,
	})
	mustExec(t, p, s, `INSERT INTO kvu (k, email, v) VALUES (1, 'k1', 'a'), (2, 'k2', 'b'), (3, 'k3', 'c'), (4, 'k4', 'd')`)
	var crRows []string
	for w := 1; w <= 3; w++ {
		for n := 0; n < 3; n++ {
			crRows = append(crRows, fmt.Sprintf("(%d, %d, 'w%dn%d')", w, n, w, n))
		}
	}
	mustExec(t, p, s, `INSERT INTO cr (w, n, v) VALUES `+strings.Join(crRows, ", "))
	mustExec(t, p, s, `INSERT INTO dup_codes (code, v) VALUES ('a', 'va'), ('b', 'vb'), ('c', 'vc')`)
	p.Sleep(2 * sim.Second) // AS OF SYSTEM TIME '-1s' sees every row
	return s
}

// TestMultiTupleReadMatchesItsSingleTuples: a multi-tuple point read
// returns the rows of the union of its single-tuple reads, from every
// gateway and with locality-optimized search on and off: on an
// unpartitioned table, on REGIONAL BY ROW tables searched, pinned by the
// region column and pinned by a computed region, through unique secondary
// indexes that store the row and that do not, and AS OF SYSTEM TIME. Every
// list mixes present and absent values.
func TestMultiTupleReadMatchesItsSingleTuples(t *testing.T) {
	h := newSQLHarness(956)
	h.run(t, func(p *sim.Proc) {
		h.setupEquivalence(t, p)
		ids := []string{"1", "2", "3", "4", "5", "6", "99"}
		emails := []string{"'u1@x.com'", "'u2@x.com'", "'u3@x.com'", "'u6@x.com'", "'nobody'"}
		cases := []inCase{
			{`SELECT id, name FROM users WHERE id IN (%s)`, ids},
			{`SELECT id, name FROM users WHERE id IN (%s) AND crdb_region IN ('us-east1', 'asia-northeast1')`, ids},
			{`SELECT id, name FROM users WHERE email IN (%s)`, emails},
			{`SELECT id, name FROM users WHERE email IN (%s) AND crdb_region = 'europe-west2'`, emails},
			{`SELECT k, v FROM kvu WHERE k IN (%s)`, []string{"1", "3", "4", "7"}},
			{`SELECT k, v FROM kvu WHERE email IN (%s)`, []string{"'k1'", "'k2'", "'k4'", "'k9'"}},
			{`SELECT w, n, v FROM cr WHERE w = 2 AND n IN (%s)`, []string{"0", "1", "2", "5"}},
			{`SELECT w, n, v FROM cr WHERE w IN (%s) AND n = 1`, []string{"1", "2", "3", "8"}},
			{`SELECT code, v FROM dup_codes WHERE code IN (%s)`, []string{"'a'", "'c'", "'z'"}},
			{`SELECT id, name FROM users AS OF SYSTEM TIME '-1s' WHERE id IN (%s)`, ids},
			{`SELECT id, name FROM users AS OF SYSTEM TIME '-1s' WHERE email IN (%s)`, emails},
			{`SELECT k, v FROM kvu AS OF SYSTEM TIME '-1s' WHERE k IN (%s)`, []string{"1", "3", "4", "7"}},
		}
		for _, r := range h.c.Regions() {
			gs := h.sessions[r]
			for _, los := range []bool{true, false} {
				gs.LocalityOptimizedSearch = los
				for _, c := range cases {
					var singles [][][]Datum
					for _, v := range c.vals {
						singles = append(singles, mustExec(t, p, gs, fmt.Sprintf(c.text, v)).Rows)
					}
					want := rowSet(singles...)
					if got := rowSet(mustExec(t, p, gs, c.multi()).Rows); got != want {
						t.Errorf("gateway %s, los %v: %s\n  read %s\n  want %s", r, los, c.multi(), got, want)
					}
				}
			}
			gs.LocalityOptimizedSearch = true
		}
	})
}

// TestMultiTupleReadInATransactionAfterWrites: inside a transaction that has
// inserted, updated and deleted rows, a multi-tuple read sees what the
// single-tuple reads of the same transaction would: its pending write rides
// the batch, and the rows the transaction knows are not read again.
func TestMultiTupleReadInATransactionAfterWrites(t *testing.T) {
	h := newSQLHarness(957)
	h.run(t, func(p *sim.Proc) {
		h.setupEquivalence(t, p)
		writes := []string{
			`INSERT INTO users (id, email, name, crdb_region) VALUES (10, 'u10@x.com', 'user-10', 'asia-northeast1')`,
			`UPDATE users SET name = 'changed' WHERE id = 2`,
			`DELETE FROM users WHERE id = 3`,
			`UPDATE kvu SET v = 'changed' WHERE k = 1`,
		}
		cases := []inCase{
			{`SELECT id, name FROM users WHERE id IN (%s)`, []string{"1", "2", "3", "5", "10", "99"}},
			{`SELECT id, name FROM users WHERE email IN (%s)`, []string{"'u2@x.com'", "'u3@x.com'", "'u10@x.com'", "'u5@x.com'"}},
			{`SELECT k, v FROM kvu WHERE k IN (%s)`, []string{"1", "2", "7"}},
		}
		for _, r := range h.c.Regions() {
			gs := h.sessions[r]
			for _, c := range cases {
				// inTxn runs the writes and then reads in one transaction,
				// which it aborts.
				inTxn := func(reads ...string) string {
					tx := gs.Coord.Begin(0)
					defer tx.Abort(p)
					for _, w := range writes {
						if _, err := gs.ExecTxn(p, tx, w); err != nil {
							t.Fatalf("%s: %v", w, err)
						}
					}
					var rows [][][]Datum
					for _, q := range reads {
						res, err := gs.ExecTxn(p, tx, q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						rows = append(rows, res.Rows)
					}
					return rowSet(rows...)
				}
				var singles []string
				for _, v := range c.vals {
					singles = append(singles, fmt.Sprintf(c.text, v))
				}
				want := inTxn(singles...)
				if got := inTxn(c.multi()); got != want {
					t.Errorf("gateway %s: %s after writes\n  read %s\n  want %s", r, c.multi(), got, want)
				}
				p.Sleep(sim.Second) // the aborted intents resolve
			}
		}
	})
}

// TestMultiTupleUpdateLocksWhatItsSingleTuplesLock: UPDATE … WHERE pk IN
// (…) locks the same keys, in every partition it searches, as the
// single-tuple UPDATEs of its values do. A key is locked when another
// transaction's locking read of it waits until the UPDATE's transaction
// ends.
func TestMultiTupleUpdateLocksWhatItsSingleTuplesLock(t *testing.T) {
	h := newSQLHarness(958)
	h.run(t, func(p *sim.Proc) {
		s := h.setupEquivalence(t, p)
		tbl, _, err := s.table("users")
		if err != nil {
			t.Fatal(err)
		}
		ids := []int64{1, 2, 3, 99}
		var keys []mvcc.Key
		var names []string
		for _, region := range h.c.Regions() {
			for _, id := range ids {
				keys = append(keys, encodeIndexKey(new(slab.Of[byte]), tbl, tbl.Primary(), region, []Datum{id}, 0))
				names = append(names, fmt.Sprintf("%s/%d", region, id))
			}
		}
		for _, r := range h.c.Regions() {
			gs := h.sessions[r]
			// lockedBy runs stmts in a transaction and returns the users
			// primary keys, in every partition, that a locking read from
			// another transaction waits on until it aborts.
			lockedBy := func(stmts ...string) string {
				tx := gs.Coord.Begin(0)
				for _, st := range stmts {
					if _, err := gs.ExecTxn(p, tx, st); err != nil {
						t.Fatalf("%s: %v", st, err)
					}
				}
				p.Sleep(sim.Second) // slower remote searches finish in the background
				done := make([]bool, len(keys))
				wg := sim.NewWaitGroup(h.c.Sim)
				wg.Add(len(keys))
				for i, key := range keys {
					h.c.Sim.Spawn("lock-probe", func(wp *sim.Proc) {
						defer wg.Done()
						if err := s.Coord.Run(wp, func(other *txn.Txn) error {
							_, err := other.GetForUpdate(wp, key)
							return err
						}); err != nil {
							t.Errorf("locking read of %s: %v", names[i], err)
						}
						done[i] = true
					})
				}
				p.Sleep(2 * sim.Second)
				var locked []string
				for i := range keys {
					if !done[i] {
						locked = append(locked, names[i])
					}
				}
				tx.Abort(p)
				wg.Wait(p)
				return strings.Join(locked, " ")
			}
			var singles []string
			for _, id := range ids {
				singles = append(singles, fmt.Sprintf(`UPDATE users SET name = 'x' WHERE id = %d`, id))
			}
			want := lockedBy(singles...)
			if got := lockedBy(`UPDATE users SET name = 'x' WHERE id IN (1, 2, 3, 99)`); got != want || want == "" {
				t.Errorf("gateway %s: multi-tuple UPDATE locked [%s], single-tuple UPDATEs [%s]", r, got, want)
			}
		}
	})
}
