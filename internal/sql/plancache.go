package sql

import (
	"encoding/binary"
	"fmt"

	"mrdb/internal/core"
	"mrdb/internal/simnet"
)

// Plan cache: the statement-execution fast path. Planning a statement
// twice with the same fingerprint, catalog version, gateway region and
// WHERE-clause arities makes every *shape* decision — index choice,
// partition-resolution mode, search order, locality-optimized-search
// eligibility — identically, so those decisions are computed once and
// reused. Everything value-dependent (constraint values, lookup tuples,
// computed regions) is still evaluated per execution, in exactly the order
// the from-scratch planner evaluates it, which keeps RNG and clock draws —
// and therefore span trees and statement statistics — byte-identical with
// the cache on or off (package tests switch it off through
// Catalog.noPlanCache to compare against the from-scratch planner).

// planCache outcome labels rendered by EXPLAIN ANALYZE.
const (
	planCacheHit  = "hit"
	planCacheMiss = "miss"
	planCacheOff  = "off"
)

// regionMode classifies how a cached read plan resolves its candidate
// partitions on each execution.
type regionMode int8

const (
	// modeUnpartitioned: non-REGIONAL BY ROW table, the single "" partition.
	modeUnpartitioned regionMode = iota
	// modeRegionCol: the region column is constrained in WHERE; partitions
	// come from its per-execution values (pinned).
	modeRegionCol
	// modeComputed: the region column is computed and all its dependencies
	// are single-value constrained; evaluate it per execution (pinned).
	modeComputed
	// modeSearch: gateway-local partition first, then the rest (§4.2).
	modeSearch
)

// cachedRead is the shape half of a read plan: every decision that is a
// pure function of the cache key. Binding it to per-execution constraint
// values reproduces planRead's output exactly.
type cachedRead struct {
	index *Index
	// colNames are index.Cols resolved to names, for constraint lookup
	// without per-execution catalog scans.
	colNames []string
	// scan means no usable index: full scan of index, no lookup tuples.
	scan bool
	mode regionMode
	// regions is the memoized gateway-first search order (modeSearch only);
	// shared read-only across executions.
	regions []simnet.Region
	// los is the locality-optimized-search decision (§4.2); the LOS session
	// setting is part of the cache key, so the bit is fully determined.
	los bool
	// filterRedundant means every WHERE conjunct is enforced by the lookup
	// tuples themselves (literal/placeholder values on indexed columns), so
	// the per-row filter pass is a provable no-op and is skipped.
	filterRedundant bool
}

// cachedInsert is the shape half of an INSERT: resolved target columns,
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

// PlanCache holds cached statement shapes keyed by fingerprint-derived
// strings. It is cluster-shared state on the Catalog (like StmtStats) and
// is invalidated wholesale when the catalog version moves: DDL,
// ALTER TABLE ... LOCALITY, ALTER DATABASE ADD/DROP REGION, survivability,
// placement and primary-region changes all bump the version.
type PlanCache struct {
	version uint64
	reads   map[string]*cachedRead
	inserts map[string]*cachedInsert
	hits    uint64
	misses  uint64
}

// planCacheMaxEntries bounds each shape map; workloads have a handful of
// statement shapes, so hitting the bound means something is generating
// unbounded shapes and caching them would only burn memory.
const planCacheMaxEntries = 4096

// sync drops every entry when the catalog version has moved since the last
// access: O(1) invalidation, no stale plan can survive a schema change.
func (pc *PlanCache) sync(version uint64) {
	if pc.version != version {
		pc.reads, pc.inserts = nil, nil
		pc.version = version
	}
}

func (pc *PlanCache) getRead(version uint64, key []byte) *cachedRead {
	pc.sync(version)
	cr := pc.reads[string(key)]
	if cr != nil {
		pc.hits++
	} else {
		pc.misses++
	}
	return cr
}

func (pc *PlanCache) putRead(version uint64, key string, cr *cachedRead) {
	pc.sync(version)
	if pc.reads == nil {
		pc.reads = map[string]*cachedRead{}
	}
	if len(pc.reads) < planCacheMaxEntries {
		pc.reads[key] = cr
	}
}

func (pc *PlanCache) getInsert(version uint64, key []byte) *cachedInsert {
	pc.sync(version)
	ci := pc.inserts[string(key)]
	if ci != nil {
		pc.hits++
	} else {
		pc.misses++
	}
	return ci
}

func (pc *PlanCache) putInsert(version uint64, key string, ci *cachedInsert) {
	pc.sync(version)
	if pc.inserts == nil {
		pc.inserts = map[string]*cachedInsert{}
	}
	if len(pc.inserts) < planCacheMaxEntries {
		pc.inserts[key] = ci
	}
}

// PlanCacheStats returns the cumulative hit and miss counts.
func (c *Catalog) PlanCacheStats() (hits, misses uint64) {
	return c.plans.hits, c.plans.misses
}

// PlanCacheLen returns the number of cached statement shapes at the current
// catalog version.
func (c *Catalog) PlanCacheLen() int {
	c.plans.sync(c.version)
	return len(c.plans.reads) + len(c.plans.inserts)
}

// --- cache keys ---

// stmtFingerprint returns the current statement's fingerprint: the one the
// prepared-statement path or ExecStmt already computed, or a fresh one.
func (s *Session) stmtFingerprint(stmt Statement) string {
	if s.curFP != "" {
		return s.curFP
	}
	return Fingerprint(stmt)
}

// readPlanKey builds the read-plan cache key into the session scratch
// buffer: database, fingerprint, gateway region, LOS setting and the
// per-conjunct value arities. Fingerprints erase IN-list arity, but tuple
// counts and computed-region eligibility depend on it, so arities must key
// the cache. The returned slice aliases session scratch.
func (s *Session) readPlanKey(fp string, w *Where) []byte {
	b := append(s.keyScratch[:0], s.Database...)
	b = append(b, 0)
	b = append(b, fp...)
	b = append(b, 0)
	b = append(b, s.Region()...)
	if s.LocalityOptimizedSearch {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if w != nil {
		for _, c := range w.Conds {
			b = binary.AppendUvarint(b, uint64(len(c.Vals)))
		}
	}
	s.keyScratch = b
	return b
}

// insertPlanKey builds the INSERT cache key (database + fingerprint; the
// fingerprint already pins table, column list and row shape).
func (s *Session) insertPlanKey(fp string) []byte {
	b := append(s.keyScratch[:0], s.Database...)
	b = append(b, 0)
	b = append(b, fp...)
	s.keyScratch = b
	return b
}

// cacheableWhere rejects WHERE clauses that constrain the same column more
// than once: conjunct intersection can empty a value set depending on the
// concrete values, which makes index usability — and with it the whole plan
// shape — value-dependent rather than shape-determined.
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
// re-evaluation would desynchronize RNG draws from the cache-off path.
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
			switch e.(type) {
			case *Lit, *Placeholder:
			default:
				return false
			}
		}
	}
	return true
}

// --- read path ---

// unpartitionedRegions is the shared single-"" partition list.
var unpartitionedRegions = []simnet.Region{""}

// planReadCached is planRead behind the plan cache: a hit binds the cached
// shape to this execution's constraint values; a miss plans from scratch
// and installs the shape. With the cache off (tests' reference arm) or an
// uncacheable WHERE clause it falls through to planRead unchanged.
func (s *Session) planReadCached(stmt Statement, t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	if s.Catalog.noPlanCache {
		s.lastPlanCache = planCacheOff
		return s.planRead(t, db, w, limit)
	}
	if !cacheableWhere(w) {
		s.lastPlanCache = planCacheMiss
		return s.planRead(t, db, w, limit)
	}
	fp := s.stmtFingerprint(stmt)
	key := s.readPlanKey(fp, w)
	if cr := s.Catalog.plans.getRead(s.Catalog.version, key); cr != nil {
		s.lastPlanCache = planCacheHit
		return s.bindRead(cr, t, db, w, limit)
	}
	s.lastPlanCache = planCacheMiss
	plan, err := s.planRead(t, db, w, limit)
	if err != nil {
		return nil, err
	}
	cr := buildCachedRead(t, plan, w)
	s.Catalog.plans.putRead(s.Catalog.version, string(key), cr)
	plan.filterRedundant = cr.filterRedundant
	return plan, nil
}

// buildCachedRead extracts the shape half of a freshly planned read.
func buildCachedRead(t *Table, plan *readPlan, w *Where) *cachedRead {
	cr := &cachedRead{index: plan.index, scan: plan.lookups == nil, los: plan.los}
	switch {
	case !t.IsPartitioned():
		cr.mode = modeUnpartitioned
	case whereConstrains(w, regionColumnName(t)):
		cr.mode = modeRegionCol
	case plan.regionPinned:
		cr.mode = modeComputed
	default:
		cr.mode = modeSearch
		cr.regions = plan.regions
	}
	if !cr.scan {
		for _, cid := range plan.index.Cols {
			col, _ := t.ColumnByID(cid)
			cr.colNames = append(cr.colNames, col.Name)
		}
		cr.filterRedundant = filterCoveredByLookup(t, plan.index, w)
	}
	return cr
}

func regionColumnName(t *Table) string {
	col, ok := t.ColumnByID(t.RegionColumn)
	if !ok {
		return ""
	}
	return col.Name
}

func whereConstrains(w *Where, col string) bool {
	if w == nil || col == "" {
		return false
	}
	for _, c := range w.Conds {
		if c.Col == col {
			return true
		}
	}
	return false
}

// bindRead reproduces planRead's output from a cached shape plus this
// execution's constraint values. Constraints are still evaluated exactly as
// the from-scratch planner evaluates them (same expressions, same order),
// so any RNG or clock draws match the cache-off execution; only the shape
// recomputation and its allocations are skipped.
func (s *Session) bindRead(cr *cachedRead, t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	cons, err := s.constraints(w, nil)
	if err != nil {
		return nil, err
	}
	plan := &s.planScratch
	*plan = readPlan{t: t, index: cr.index, limit: limit, filterRedundant: cr.filterRedundant}
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
		r, ok := s.computedRegionFromConstraints(t, cons)
		if !ok {
			// Shape drift the key did not capture; replan defensively.
			return s.planRead(t, db, w, limit)
		}
		regions := append(s.regionScratch[:0], r)
		s.regionScratch = regions
		plan.regions = regions
		plan.regionPinned = true
	case modeSearch:
		plan.regions = cr.regions
	}
	if cr.scan {
		return plan, nil
	}
	plan.los = cr.los
	// Lookup tuples: cartesian product of the per-column candidate values,
	// exactly as planRead builds them. The single-tuple case — every indexed
	// column equality-constrained to one value, the OLTP hot path — reuses
	// session scratch; that is safe only when no first-hit probes can
	// outlive the statement, i.e. when LOS fan-out is off for this plan.
	single := true
	for _, name := range cr.colNames {
		n := len(cons[name])
		if n == 0 {
			// Arity is in the key, so this implies the catalog changed
			// shape under us; replan defensively.
			return s.planRead(t, db, w, limit)
		}
		if n != 1 {
			single = false
		}
	}
	if single && !plan.los {
		tuple := s.tupleScratch[:0]
		for _, name := range cr.colNames {
			tuple = append(tuple, cons[name][0])
		}
		s.tupleScratch = tuple
		if s.lookupScratch == nil {
			s.lookupScratch = make([][]Datum, 1)
		}
		s.lookupScratch[0] = tuple
		plan.lookups = s.lookupScratch
		return plan, nil
	}
	tuples := [][]Datum{nil}
	for _, name := range cr.colNames {
		vals := cons[name]
		var next [][]Datum
		for _, tu := range tuples {
			for _, v := range vals {
				nt := append(append([]Datum(nil), tu...), v)
				next = append(next, nt)
			}
		}
		tuples = next
		if len(tuples) > 1024 {
			return nil, fmt.Errorf("sql: IN list product too large")
		}
	}
	plan.lookups = tuples
	return plan, nil
}

// --- insert path ---

// insertPlan looks up or installs the cached shape of an INSERT. A nil
// return (cache off, uncacheable shape) sends the caller down the
// from-scratch path.
func (s *Session) insertPlan(st *Insert, t *Table) *cachedInsert {
	if s.Catalog.noPlanCache {
		s.lastPlanCache = planCacheOff
		return nil
	}
	fp := s.stmtFingerprint(st)
	key := s.insertPlanKey(fp)
	if ci := s.Catalog.plans.getInsert(s.Catalog.version, key); ci != nil {
		s.lastPlanCache = planCacheHit
		return ci
	}
	s.lastPlanCache = planCacheMiss
	ci := buildCachedInsert(st, t)
	if ci != nil {
		s.Catalog.plans.putInsert(s.Catalog.version, string(key), ci)
	}
	return ci
}

// buildCachedInsert resolves an INSERT's target columns and precomputes the
// default/computed evaluation schedule. Returns nil for shapes the slow
// path must reject (unknown columns), so the error surfaces there.
func buildCachedInsert(st *Insert, t *Table) *cachedInsert {
	cols := st.Columns
	if cols == nil {
		for _, c := range t.VisibleColumns() {
			cols = append(cols, c.Name)
		}
	}
	ci := &cachedInsert{fromDefault: map[ColumnID]bool{}}
	provided := map[ColumnID]bool{}
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			return nil
		}
		ci.cols = append(ci.cols, c.ID)
		provided[c.ID] = true
	}
	for _, c := range t.Columns {
		if provided[c.ID] || c.Computed != nil {
			continue
		}
		if c.Default != nil {
			ci.defaults = append(ci.defaults, c)
			if fc, ok := c.Default.(*FuncCall); ok && fc.Name == "gen_random_uuid" {
				ci.fromDefault[c.ID] = true
			}
		}
	}
	for _, c := range t.Columns {
		if c.Computed != nil {
			ci.computed = append(ci.computed, c)
		}
	}
	return ci
}

// buildRowValuesCached is buildRowValues over a cached insert shape: same
// expressions evaluated in the same order (value parity and RNG parity with
// the slow path), but with the column resolution, provided/fromDefault
// bookkeeping maps and the per-default name→value map rebuilds all hoisted
// into the cached shape. One name→value map is built per row and updated
// incrementally, which is observationally identical to rebuilding it before
// every default and computed evaluation.
func (s *Session) buildRowValuesCached(ci *cachedInsert, t *Table, db *core.Database, exprs []Expr) (map[ColumnID]Datum, error) {
	vals := make(map[ColumnID]Datum, len(t.Columns))
	for i, cid := range ci.cols {
		v, err := s.evalExpr(exprs[i], nil)
		if err != nil {
			return nil, err
		}
		vals[cid] = v
	}
	var ctx *evalCtx
	if len(ci.defaults)+len(ci.computed) > 0 {
		ctx = &evalCtx{session: s, row: t.namedVals(vals)}
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
