package sql

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mrdb/internal/core"
	"mrdb/internal/simnet"
)

// Plan cache: memoized statement shapes. Every statement is planned as a
// shape bound to values: a read's shape (cachedRead) is every decision
// deriveRead makes — index choice, partition-resolution mode, search
// order, locality-optimized-search eligibility, the filter no-op — and an
// INSERT's (cachedInsert) is its resolved columns and default/computed
// schedule. A shape is a pure function of the fingerprint, catalog
// version, gateway region and WHERE-clause arities, so the cache derives
// it once per key and loads it afterwards. Values (constraint values,
// lookup tuples, computed regions, row values) are evaluated once per
// execution on every arm — hit, miss, or cache off — by the same code,
// which keeps RNG and clock draws, and therefore span trees and statement
// statistics, byte-identical with the cache on or off (package tests
// switch memoization off through Catalog.noPlanCache).

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
	// are single-value constrained; evaluate it per execution (pinned), or
	// search when it does not evaluate to a region.
	modeComputed
	// modeSearch: gateway-local partition first, then the rest (§4.2).
	modeSearch
)

// cachedRead is the shape half of a read plan (deriveRead's output): every
// decision that is a pure function of the cache key. bindRead binds it to
// one execution's constraint values.
type cachedRead struct {
	index *Index
	// colNames are index.Cols resolved to names, for constraint lookup
	// without per-execution catalog scans.
	colNames []string
	// scan means no usable index: full scan of index, no lookup tuples.
	scan bool
	mode regionMode
	// regions is the memoized gateway-first search order (modeSearch and
	// modeComputed); shared read-only across executions.
	regions []simnet.Region
	// los is the locality-optimized-search decision (§4.2) for a plan whose
	// partitions are searched; the LOS session setting is part of the cache
	// key, so the bit is fully determined.
	los bool
	// filterRedundant means every WHERE conjunct is enforced by the lookup
	// tuples themselves (literal/placeholder values on indexed columns), so
	// the per-row filter pass is a provable no-op and is skipped.
	filterRedundant bool
	// cols are the columns a fetched row is decoded to, nil for every
	// column (decodedColumns); shared read-only across executions.
	cols []ColumnID
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

// planReadCached plans a read through the plan cache: a hit loads the
// shape, a miss derives and stores it, and with the cache off (the tests'
// memoization-off arm) or an uncacheable WHERE clause it is derived and
// not stored. Every arm evaluates the constraint values once and binds
// them to the shape.
func (s *Session) planReadCached(stmt Statement, t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	var key []byte
	var cr *cachedRead
	switch {
	case s.Catalog.noPlanCache:
		s.lastPlanCache = planCacheOff
	case !cacheableWhere(w):
		s.lastPlanCache = planCacheMiss
	default:
		key = s.readPlanKey(s.stmtFingerprint(stmt), w)
		cr = s.Catalog.plans.getRead(s.Catalog.version, key)
		s.lastPlanCache = planCacheMiss
		if cr != nil {
			s.lastPlanCache = planCacheHit
		}
	}
	cons, err := s.constraints(w, nil)
	if err != nil {
		return nil, err
	}
	if cr == nil {
		cr = s.deriveRead(stmt, t, db, w, cons, limit)
		if key != nil {
			s.Catalog.plans.putRead(s.Catalog.version, string(key), cr)
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
	*plan = readPlan{t: t, index: cr.index, limit: limit, filterRedundant: cr.filterRedundant, cols: cr.cols}
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
	plan.los = cr.los && !plan.regionPinned
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

// insertPlan loads the shape of an INSERT, or builds it: stored on a miss,
// not stored with the cache off.
func (s *Session) insertPlan(st *Insert, t *Table) (*cachedInsert, error) {
	if s.Catalog.noPlanCache {
		s.lastPlanCache = planCacheOff
		return buildCachedInsert(st, t)
	}
	key := s.insertPlanKey(s.stmtFingerprint(st))
	if ci := s.Catalog.plans.getInsert(s.Catalog.version, key); ci != nil {
		s.lastPlanCache = planCacheHit
		return ci, nil
	}
	s.lastPlanCache = planCacheMiss
	ci, err := buildCachedInsert(st, t)
	if err != nil {
		return nil, err
	}
	s.Catalog.plans.putInsert(s.Catalog.version, string(key), ci)
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
	ci := &cachedInsert{fromDefault: map[ColumnID]bool{}}
	provided := map[ColumnID]bool{}
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", name)
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
