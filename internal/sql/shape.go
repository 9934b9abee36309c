package sql

import (
	"fmt"
	"slices"

	"mrdb/internal/core"
	"mrdb/internal/simnet"
)

// Statement shapes. Every statement is planned as a shape bound to values:
// a read's shape (cachedRead) is every decision deriveRead makes — index
// choice, partition-resolution mode, search order, locality-optimized-search
// eligibility, the filter no-op — and an INSERT's (cachedInsert) is its
// resolved columns and default/computed schedule. A shape is a pure function
// of the statement and its shapeKey, so a Prepared derives it once and loads
// it afterwards (see Prepared). Values (constraint values, lookup tuples,
// computed regions, row values) are evaluated once per execution whether
// the shape was loaded or derived, by the same code, which keeps RNG and
// clock draws, and therefore span trees and statement statistics,
// byte-identical between a prepared statement and its ad-hoc form.

// regionMode classifies how a read shape resolves its candidate
// partitions on each execution.
type regionMode int8

const (
	// modeUnpartitioned: non-REGIONAL BY ROW table, the single "" partition.
	modeUnpartitioned regionMode = iota
	// modeRegionCol: the region column is constrained in WHERE; partitions
	// come from its per-execution values (pinned).
	modeRegionCol
	// modeComputed: the region column is computed and all its dependencies
	// are single-value constrained; evaluate it per execution (pinned), or
	// search when it does not evaluate to a region.
	modeComputed
	// modeSearch: gateway-local partition first, then the rest (§4.2).
	modeSearch
)

// cachedRead is the shape half of a read plan (deriveRead's output): every
// decision that is a pure function of the statement and its shapeKey.
// bindRead binds it to one execution's constraint values and session
// settings.
type cachedRead struct {
	index *Index
	// colNames are index.Cols resolved to names, for constraint lookup
	// without per-execution catalog scans.
	colNames []string
	// scan means no usable index: full scan of index, no lookup tuples.
	scan bool
	mode regionMode
	// regions is the gateway-first search order (modeSearch and
	// modeComputed); shared read-only across executions.
	regions []simnet.Region
	// los means the row count is bounded (unique index or LIMIT), so a
	// search may apply locality-optimized search (§4.2); bindRead applies it
	// when the session enables it and the partitions are not pinned.
	los bool
	// filterRedundant means every WHERE conjunct is enforced by the lookup
	// tuples themselves (literal/placeholder values on indexed columns), so
	// the per-row filter pass is a provable no-op and is skipped.
	filterRedundant bool
	// cols are the columns a fetched row is decoded to, nil for every
	// column (decodedColumns); shared read-only across executions.
	cols []ColumnID
	// blind means the statement is an UPDATE that needs nothing from its
	// row (blindUpdate).
	blind bool
}

// cachedInsert is the shape half of an INSERT, built by buildCachedInsert
// and bound per row by insertRowValues: resolved target columns,
// the default/computed column schedule, and the uuid-default set that
// drives uniqueness-check elision (§4.1).
type cachedInsert struct {
	cols     []ColumnID
	defaults []*Column
	computed []*Column
	// fromDefault is the shared, read-only gen_random_uuid() default set
	// (every execution of this shape fills the same columns from defaults).
	fromDefault map[ColumnID]bool
}

// PlanCacheStats returns how many statement executions reused their
// prepared statement's shape (hits) and how many derived one (misses).
func (c *Catalog) PlanCacheStats() (hits, misses uint64) {
	return c.shapeHits, c.shapeMisses
}

// reuse reports whether ps holds a shape derived under what s executes it
// under now, which it returns, and counts the outcome.
func (s *Session) reuse(ps *Prepared) (shapeKey, bool) {
	k := shapeKey{version: s.Catalog.version, db: s.Database, region: s.Region()}
	if ps.derived == k && (ps.read != nil || ps.insert != nil) {
		s.Catalog.shapeHits++
		return k, true
	}
	s.Catalog.shapeMisses++
	return k, false
}

// cacheableWhere rejects WHERE clauses that constrain the same column more
// than once: conjunct intersection can empty a value set depending on the
// concrete values, which makes index usability — and with it the whole plan
// shape — value-dependent rather than shape-determined, so such a
// statement derives its shape on every execution.
func cacheableWhere(w *Where) bool {
	if w == nil {
		return true
	}
	for i, c := range w.Conds {
		for j := 0; j < i; j++ {
			if w.Conds[j].Col == c.Col {
				return false
			}
		}
	}
	return true
}

// filterCoveredByLookup reports whether the per-row filter pass is provably
// redundant: every conjunct targets an indexed column with pure
// literal/placeholder values, so rows fetched via the lookup tuples satisfy
// the WHERE clause by construction. Non-pure values (function calls) keep
// the filter, both for correctness and because skipping their per-row
// re-evaluation would change the RNG draws a statement makes.
func filterCoveredByLookup(t *Table, idx *Index, w *Where) bool {
	if w == nil {
		return true
	}
	for _, c := range w.Conds {
		col, ok := t.Column(c.Col)
		if !ok {
			return false
		}
		indexed := false
		for _, cid := range idx.Cols {
			if cid == col.ID {
				indexed = true
				break
			}
		}
		if !indexed {
			return false
		}
		for _, e := range c.Vals {
			if !constant(e) {
				return false
			}
		}
	}
	return true
}

// constant reports whether e is a literal or a placeholder: a value fixed
// before the statement runs, which evaluates without a row and draws no
// random number.
func constant(e Expr) bool {
	switch e.(type) {
	case *Lit, *Placeholder:
		return true
	}
	return false
}

// blindUpdate reports whether st, read through cr, is an UPDATE that needs
// nothing from its row: it writes exactly one key, with a new value the
// statement alone determines. Its WHERE clause names one primary-key tuple,
// and perhaps the row's partitions, with constants and placeholders; it
// assigns every stored column outside the primary key and the region column
// a constant or a placeholder; and the table has no index but the primary,
// no computed column and no rehoming on update. Such an UPDATE, run
// auto-commit, is a conditional one-phase write per locality-optimized
// phase (updateWhereLive): where the row lives, its write commits;
// everywhere else it lays nothing.
func blindUpdate(st Statement, t *Table, w *Where, cr *cachedRead, cons map[string][]Datum) bool {
	u, ok := st.(*Update)
	if !ok || cr.scan || cr.index != t.Primary() || len(t.Indexes) != 1 {
		return false
	}
	for _, name := range cr.colNames {
		if len(cons[name]) != 1 {
			return false
		}
	}
	if w != nil {
		for _, c := range w.Conds {
			col, ok := t.Column(c.Col)
			if !ok || !slices.Contains(cr.index.Cols, col.ID) && col.ID != t.RegionColumn {
				return false
			}
			for _, e := range c.Vals {
				if !constant(e) {
					return false
				}
			}
		}
	}
	for _, c := range t.Columns {
		if c.Computed != nil || c.ID == t.RegionColumn && c.OnUpdateRehome {
			return false
		}
	}
	for _, a := range u.Set {
		col, ok := t.Column(a.Col)
		if !ok || slices.Contains(cr.index.Cols, col.ID) || col.ID == t.RegionColumn || !constant(a.Val) {
			return false
		}
	}
	for _, c := range t.Columns {
		if !slices.Contains(cr.index.Cols, c.ID) && c.ID != t.RegionColumn &&
			!slices.ContainsFunc(u.Set, func(a Assignment) bool { return a.Col == c.Name }) {
			return false
		}
	}
	return true
}

// --- read path ---

// unpartitionedRegions is the shared single-"" partition list.
var unpartitionedRegions = []simnet.Region{""}

// planPrepared plans ps's read: it loads ps's shape when reuse allows,
// or derives one, which ps keeps unless its WHERE clause is uncacheable.
// Either way it evaluates the constraint values once and binds them to the
// shape.
func (s *Session) planPrepared(ps *Prepared, t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	k, ok := s.reuse(ps)
	cons, err := s.constraints(w, nil)
	if err != nil {
		return nil, err
	}
	cr := ps.read
	if !ok {
		cr = s.deriveRead(ps.Stmt, t, db, w, cons, limit)
		if cacheableWhere(w) {
			ps.read, ps.derived = cr, k
		}
	}
	return s.bindRead(cr, t, cons, limit)
}

func regionColumnName(t *Table) string {
	col, ok := t.ColumnByID(t.RegionColumn)
	if !ok {
		return ""
	}
	return col.Name
}

// bindRead binds a read shape to one execution's constraint sets (from
// constraints, evaluated once by the caller): partitions, lookup tuples
// and the final LOS bit. The plan is session scratch, valid until the
// session plans again.
func (s *Session) bindRead(cr *cachedRead, t *Table, cons map[string][]Datum, limit int) (*readPlan, error) {
	plan := &s.planScratch
	*plan = readPlan{t: t, index: cr.index, limit: limit, filterRedundant: cr.filterRedundant, cols: cr.cols, blind: cr.blind}
	switch cr.mode {
	case modeUnpartitioned:
		plan.regions = unpartitionedRegions
		plan.regionPinned = true
	case modeRegionCol:
		regions := s.regionScratch[:0]
		for _, v := range cons[regionColumnName(t)] {
			if r, ok := v.(string); ok {
				regions = append(regions, simnet.Region(r))
			}
		}
		s.regionScratch = regions
		plan.regions = regions
		plan.regionPinned = true
	case modeComputed:
		if r, ok := s.computedRegionFromConstraints(t, cons); ok {
			regions := append(s.regionScratch[:0], r)
			s.regionScratch = regions
			plan.regions = regions
			plan.regionPinned = true
		} else {
			plan.regions = cr.regions
		}
	case modeSearch:
		plan.regions = cr.regions
	}
	if cr.scan {
		return plan, nil
	}
	plan.los = cr.los && s.LocalityOptimizedSearch && !plan.regionPinned
	// Lookup tuples: the cartesian product of the per-column candidate
	// values, first column slowest, in session scratch. First-hit probes may
	// outlive the statement, but they hold encoded keys, never these tuples
	// (lookupFirstHit). An empty candidate set leaves no tuples.
	n := 1
	for _, name := range cr.colNames {
		if n *= len(cons[name]); n > 1024 {
			return nil, fmt.Errorf("sql: IN list product too large")
		}
	}
	if n == 0 {
		return plan, nil
	}
	k := len(cr.colNames)
	slab := slices.Grow(s.tupleScratch[:0], n*k)[:n*k]
	lookups := s.lookupScratch[:0]
	for i := 0; i < n; i++ {
		lookups = append(lookups, slab[i*k:(i+1)*k:(i+1)*k])
	}
	run := n // tuples sharing one value of the current column
	for c, name := range cr.colNames {
		vals := cons[name]
		run /= len(vals)
		for i := 0; i < n; i++ {
			slab[i*k+c] = vals[i/run%len(vals)]
		}
	}
	s.tupleScratch, s.lookupScratch = slab, lookups
	plan.lookups = lookups
	return plan, nil
}

// --- insert path ---

// insertShape loads ps's INSERT shape when reuse allows, or builds one for
// ps to keep.
func (s *Session) insertShape(ps *Prepared, t *Table) (*cachedInsert, error) {
	k, ok := s.reuse(ps)
	if ok {
		return ps.insert, nil
	}
	ci, err := buildCachedInsert(ps.Stmt.(*Insert), t)
	if err != nil {
		return nil, err
	}
	ps.insert, ps.derived = ci, k
	return ci, nil
}

// buildCachedInsert resolves an INSERT's target columns and precomputes the
// default/computed evaluation schedule.
func buildCachedInsert(st *Insert, t *Table) (*cachedInsert, error) {
	cols := st.Columns
	if cols == nil {
		for _, c := range t.AppendVisibleColumns(nil) {
			cols = append(cols, c.Name)
		}
	}
	ci := &cachedInsert{cols: make([]ColumnID, 0, len(cols))}
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", name)
		}
		ci.cols = append(ci.cols, c.ID)
	}
	for _, c := range t.Columns {
		if c.Default == nil || c.Computed != nil || slices.Contains(ci.cols, c.ID) {
			continue
		}
		ci.defaults = append(ci.defaults, c)
		if fc, ok := c.Default.(*FuncCall); ok && fc.Name == "gen_random_uuid" {
			if ci.fromDefault == nil {
				ci.fromDefault = map[ColumnID]bool{}
			}
			ci.fromDefault[c.ID] = true
		}
	}
	for _, c := range t.Columns {
		if c.Computed != nil {
			ci.computed = append(ci.computed, c)
		}
	}
	return ci, nil
}

// insertRowValues evaluates one VALUES row over an insert shape: provided
// expressions in column order, then defaults, then computed columns over
// the full row, then NOT NULL and region writability (a READ ONLY region
// mid DROP REGION, §2.4.1, rejects writes). The row's map comes from the
// session pool, for the statement to put back; the name→value map of its
// expressions is the session's (rowCtx), updated as defaults and computed
// columns fill in.
func (s *Session) insertRowValues(ci *cachedInsert, t *Table, db *core.Database, exprs []Expr) (map[ColumnID]Datum, error) {
	if len(exprs) != len(ci.cols) {
		return nil, fmt.Errorf("sql: %d values for %d columns", len(exprs), len(ci.cols))
	}
	vals := s.getRowMap()
	for i, cid := range ci.cols {
		v, err := s.evalExpr(exprs[i], nil)
		if err != nil {
			return nil, err
		}
		vals[cid] = v
	}
	var ctx *evalCtx
	if len(ci.defaults)+len(ci.computed) > 0 {
		ctx = s.rowCtx(t, vals)
	}
	for _, c := range ci.defaults {
		v, err := s.evalExpr(c.Default, ctx)
		if err != nil {
			return nil, err
		}
		vals[c.ID] = v
		ctx.row[c.Name] = v
	}
	for _, c := range ci.computed {
		v, err := s.evalExpr(c.Computed, ctx)
		if err != nil {
			return nil, err
		}
		vals[c.ID] = v
		ctx.row[c.Name] = v
	}
	for _, c := range t.Columns {
		if c.NotNull && vals[c.ID] == nil {
			return nil, fmt.Errorf("sql: null value in column %q", c.Name)
		}
	}
	if t.IsPartitioned() {
		r, err := rowRegion(t, vals)
		if err != nil {
			return nil, err
		}
		if !db.CanWriteRegion(r) {
			return nil, fmt.Errorf("sql: region %q is not writable", r)
		}
	}
	return vals, nil
}

// --- pooled row materialization ---

// rowPoolMax bounds the per-session free list of row maps.
const rowPoolMax = 64

// getRowMap returns a cleared row map from the session pool, or a fresh
// one.
func (s *Session) getRowMap() map[ColumnID]Datum {
	if n := len(s.rowPool); n > 0 {
		m := s.rowPool[n-1]
		s.rowPool = s.rowPool[:n-1]
		for k := range m {
			delete(m, k)
		}
		return m
	}
	return make(map[ColumnID]Datum, 8)
}

func (s *Session) putRowMap(m map[ColumnID]Datum) {
	if m != nil && len(s.rowPool) < rowPoolMax {
		s.rowPool = append(s.rowPool, m)
	}
}

// releaseRows returns fetched rows' value maps to the pool once a statement
// is done with them (results hold copied datums, never the maps).
func (s *Session) releaseRows(rows []tableRow) {
	for i := range rows {
		s.putRowMap(rows[i].vals)
		rows[i].vals = nil
	}
}
