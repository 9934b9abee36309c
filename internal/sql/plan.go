package sql

import (
	"fmt"

	"mrdb/internal/core"
	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// Read planning. The planner picks an index from WHERE equality/IN
// constraints, determines the candidate partitions, and — when the row
// count is bounded by a unique index — applies Locality Optimized Search
// (paper §4.2): probe the gateway's local partition first and fan out to
// remote partitions only on a miss. It has two halves: deriveRead makes
// those decisions as a shape (cachedRead) and bindRead binds the shape to
// one execution's values; the plan cache memoizes the first half.

// tableRow is a fetched row plus the partition it lives in.
type tableRow struct {
	vals   map[ColumnID]Datum
	region simnet.Region
}

// namedVals converts a row to a name→value map for expression evaluation.
func (t *Table) namedVals(vals map[ColumnID]Datum) map[string]Datum {
	out := map[string]Datum{}
	for _, c := range t.Columns {
		if v, ok := vals[c.ID]; ok {
			out[c.Name] = v
		} else {
			out[c.Name] = nil
		}
	}
	return out
}

// readPlan describes how to fetch rows.
type readPlan struct {
	t     *Table
	index *Index
	// lookups are full index-key tuples for point gets; nil means scan.
	lookups [][]Datum
	// regions are the candidate partitions; [""]
	// for unpartitioned tables.
	regions []simnet.Region
	// regionPinned means the partition set is exact (no search needed).
	regionPinned bool
	// los applies local-first probing (bounded row count).
	los bool
	// limit bounds scan row counts (0 = unlimited).
	limit int
	// filterRedundant marks the per-row WHERE filter as a provable no-op:
	// every conjunct is already enforced by the lookup tuples and its values
	// are pure, so skipping the pass changes neither results nor RNG draws.
	filterRedundant bool
}

// constraints extracts per-column candidate values from a WHERE clause.
// The returned map and its value slices are session scratch: valid only
// until the next constraints call on this session, and never retained by
// deriveRead or bindRead.
func (s *Session) constraints(w *Where, ctx *evalCtx) (map[string][]Datum, error) {
	if s.consScratch == nil {
		s.consScratch = map[string][]Datum{}
	}
	clear(s.consScratch)
	out := s.consScratch
	if w == nil {
		return out, nil
	}
	s.consSlab = s.consSlab[:0]
	for _, c := range w.Conds {
		start := len(s.consSlab)
		for _, e := range c.Vals {
			v, err := s.evalExpr(e, ctx)
			if err != nil {
				return nil, err
			}
			s.consSlab = append(s.consSlab, v)
		}
		// Full slice expression: a later cond growing the slab cannot
		// clobber this cond's values (growth copies; the old backing array
		// keeps the already-written datums alive).
		vals := s.consSlab[start:len(s.consSlab):len(s.consSlab)]
		if existing, ok := out[c.Col]; ok {
			// Conjunction: intersect value sets.
			var merged []Datum
			for _, v := range existing {
				for _, w := range vals {
					if DatumsEqual(v, w) {
						merged = append(merged, v)
					}
				}
			}
			vals = merged
		}
		out[c.Col] = vals
	}
	return out, nil
}

// computedRegionDeps returns the computed region column and the columns
// its expression reads, or nil when the region column is not computed.
func computedRegionDeps(t *Table) (*Column, []string) {
	col, ok := t.ColumnByID(t.RegionColumn)
	if !ok || col.Computed == nil {
		return nil, nil
	}
	if col.computedDepsOf != col.Computed {
		col.computedDeps = exprColumnDeps(col.Computed)
		col.computedDepsOf = col.Computed
	}
	return col, col.computedDeps
}

// computedRegionDetermined reports whether the constraint sets pin every
// column a computed region column reads to a single value.
func computedRegionDetermined(t *Table, cons map[string][]Datum) bool {
	col, deps := computedRegionDeps(t)
	if col == nil {
		return false
	}
	for _, d := range deps {
		if len(cons[d]) != 1 {
			return false
		}
	}
	return true
}

// computedRegionFromConstraints evaluates a computed region column whose
// dependencies computedRegionDetermined found single-value constrained.
func (s *Session) computedRegionFromConstraints(t *Table, cons map[string][]Datum) (simnet.Region, bool) {
	col, deps := computedRegionDeps(t)
	if s.crRow == nil {
		s.crRow = map[string]Datum{}
	}
	clear(s.crRow)
	row := s.crRow
	for _, d := range deps {
		row[d] = cons[d][0]
	}
	s.crCtx = evalCtx{session: s, row: row}
	v, err := s.evalExpr(col.Computed, &s.crCtx)
	if err != nil {
		return "", false
	}
	r, ok := v.(string)
	if !ok {
		return "", false
	}
	return simnet.Region(r), true
}

// exprColumnDeps returns the column names an expression references.
func exprColumnDeps(e Expr) []string {
	var out []string
	walkExpr(e, func(e Expr) {
		if c, ok := e.(*ColRef); ok {
			out = append(out, c.Name)
		}
	})
	return out
}

// walkExpr calls fn on e and then on every expression nested in it, in
// source order.
func walkExpr(e Expr, fn func(Expr)) {
	fn(e)
	switch ex := e.(type) {
	case *FuncCall:
		for _, a := range ex.Args {
			walkExpr(a, fn)
		}
	case *BinaryExpr:
		walkExpr(ex.L, fn)
		walkExpr(ex.R, fn)
	case *CaseExpr:
		for _, w := range ex.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		if ex.Else != nil {
			walkExpr(ex.Else, fn)
		}
	}
}

// planRead plans a read without the plan cache: this execution's
// constraint sets decide the shape, and their values are bound to it.
func (s *Session) planRead(t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	cons, err := s.constraints(w, nil)
	if err != nil {
		return nil, err
	}
	return s.bindRead(s.deriveRead(t, db, w, cons, limit), t, cons, limit)
}

// deriveRead makes every shape decision of a read from the table, the
// database, the gateway and the constraint sets. It looks only at how many
// candidate values each column has, never at the values, which is why the
// plan cache can key a shape by the WHERE clause's arities.
func (s *Session) deriveRead(t *Table, db *core.Database, w *Where, cons map[string][]Datum, limit int) *cachedRead {
	cr := &cachedRead{}
	switch {
	case !t.IsPartitioned():
		cr.mode = modeUnpartitioned
	case len(cons[regionColumnName(t)]) > 0:
		cr.mode = modeRegionCol
	default:
		// Computed partitioning (§2.3.2): a region derivable from the WHERE
		// clause keeps the query in one region. Otherwise, and when that
		// region does not evaluate, search the gateway's partition first.
		cr.mode = modeSearch
		if computedRegionDetermined(t, cons) {
			cr.mode = modeComputed
		}
		local := s.Region()
		if db.HasRegion(local) {
			cr.regions = append(cr.regions, local)
		}
		for _, r := range db.Regions() {
			if r != local {
				cr.regions = append(cr.regions, r)
			}
		}
	}
	cr.index = pickIndex(t, s.Region(), cons)
	if cr.index == nil {
		// Full scan of the primary index, or of the gateway's covering
		// duplicate index.
		cr.scan = true
		cr.index = t.Primary()
		if t.DuplicateIndexes {
			for _, di := range t.Indexes {
				if di.PinnedRegion == s.Region() && len(di.Storing) > 0 {
					cr.index = di
				}
			}
		}
		return cr
	}
	for _, cid := range cr.index.Cols {
		col, _ := t.ColumnByID(cid)
		cr.colNames = append(cr.colNames, col.Name)
	}
	// LOS applies when the row count is bounded (unique index or LIMIT,
	// §4.2) and the feature is enabled; bindRead drops it when the
	// partition set turns out pinned.
	cr.los = s.LocalityOptimizedSearch && (cr.index.Unique || limit > 0)
	cr.filterRedundant = filterCoveredByLookup(t, cr.index, w)
	return cr
}

// pickIndex returns the first index whose every column has candidate
// values: on a duplicate-indexes table the copies pinned to the gateway's
// region (§7.3.1), then every index in declaration order, the primary
// first. Nil means no index is usable.
func pickIndex(t *Table, local simnet.Region, cons map[string][]Datum) *Index {
	usable := func(idx *Index) bool {
		for _, cid := range idx.Cols {
			col, _ := t.ColumnByID(cid)
			if len(cons[col.Name]) == 0 {
				return false
			}
		}
		return true
	}
	if t.DuplicateIndexes {
		for _, idx := range t.Indexes {
			if idx.PinnedRegion == local && usable(idx) {
				return idx
			}
		}
	}
	for _, idx := range t.Indexes {
		if usable(idx) {
			return idx
		}
	}
	return nil
}

// rowFetcher abstracts fresh (transactional) vs stale reads.
type rowFetcher interface {
	get(p *sim.Proc, key mvcc.Key) (mvcc.Value, error)
	scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error)
}

// txnFetcher reads through a transaction; forUpdate makes point reads take
// exclusive locks (the implicit SELECT FOR UPDATE of UPDATE/DELETE).
type txnFetcher struct {
	tx        *txn.Txn
	forUpdate bool
}

func (f *txnFetcher) get(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	if f.forUpdate {
		return f.tx.GetForUpdate(p, key)
	}
	return f.tx.Get(p, key)
}
func (f *txnFetcher) scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error) {
	return f.tx.Scan(p, start, end, max)
}

// staleFetcher reads at a fixed timestamp from the nearest replica.
type staleFetcher struct {
	co *txn.Coordinator
	ts hlc.Timestamp
}

func (f *staleFetcher) get(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	v, _, err := f.co.ExactStaleRead(p, key, f.ts)
	return v, err
}
func (f *staleFetcher) scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error) {
	return f.co.StaleScan(p, start, end, max, f.ts)
}

// fetchRows executes a read plan.
func (s *Session) fetchRows(p *sim.Proc, f rowFetcher, plan *readPlan) ([]tableRow, error) {
	if plan.lookups == nil {
		return s.fetchScan(p, f, plan)
	}
	return s.fetchPoint(p, f, plan)
}

// fetchPoint probes the index partitions for each lookup tuple. With LOS
// the gateway's region is probed first; remaining tuples fan out to the
// other partitions in parallel, and — because a unique index returns at
// most one row per tuple — each tuple resolves as soon as any partition
// finds it, rather than waiting for the slowest region (§4.2: "if the row
// is found, there is no need to fan out to remote regions").
func (s *Session) fetchPoint(p *sim.Proc, f rowFetcher, plan *readPlan) ([]tableRow, error) {
	t, idx := plan.t, plan.index
	remaining := plan.lookups
	var out []tableRow

	// probeAll waits for every probe (needed when a miss must be
	// definitive, e.g. the local-first phase).
	probeAll := func(regions []simnet.Region, tuples [][]Datum) ([]tableRow, [][]Datum, error) {
		type result struct {
			row *tableRow
			err error
		}
		slots := make([]result, len(regions)*len(tuples))
		p.Fanout("sql/probe", len(slots), func(wp *sim.Proc, i int) {
			row, err := s.lookupOne(wp, f, t, idx, regions[i/len(tuples)], tuples[i%len(tuples)])
			slots[i] = result{row: row, err: err}
		})
		var rows []tableRow
		foundTuple := make([]bool, len(tuples))
		i := 0
		for range regions {
			for ti := range tuples {
				r := slots[i]
				i++
				if r.err != nil {
					return nil, nil, r.err
				}
				if r.row != nil {
					rows = append(rows, *r.row)
					foundTuple[ti] = true
				}
			}
		}
		var miss [][]Datum
		for ti, tuple := range tuples {
			if !foundTuple[ti] {
				miss = append(miss, tuple)
			}
		}
		return rows, miss, nil
	}

	// probeFirstHit fans a tuple out to all regions and resolves on the
	// first hit (or once all partitions report a miss). Only sound for
	// unique indexes. Slower probes continue harmlessly in the
	// background, as in a real distributed cancellation.
	probeFirstHit := func(regions []simnet.Region, tuple []Datum) (*tableRow, error) {
		type outcome struct {
			row *tableRow
			err error
		}
		res := sim.NewFuture[outcome](p.Sim())
		pending := len(regions)
		parent := obs.ProcSpan(p)
		for _, region := range regions {
			region := region
			p.Sim().Spawn("sql/probe", func(wp *sim.Proc) {
				obs.SetProcSpan(wp, parent)
				row, err := s.lookupOne(wp, f, t, idx, region, tuple)
				pending--
				if res.Done() {
					return
				}
				switch {
				case err != nil:
					res.Set(outcome{err: err})
				case row != nil:
					res.Set(outcome{row: row})
				case pending == 0:
					res.Set(outcome{})
				}
			})
		}
		o := res.Wait(p)
		return o.row, o.err
	}

	if plan.los && len(plan.regions) > 1 && idx.Unique {
		// Phase 1: local partition only (§4.2).
		rows, miss, err := probeAll(plan.regions[:1], remaining)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
		if len(miss) == 0 {
			return out, nil
		}
		// Phase 2: fan each missing tuple to the remote partitions,
		// resolving on first hit.
		for _, tuple := range miss {
			row, err := probeFirstHit(plan.regions[1:], tuple)
			if err != nil {
				return nil, err
			}
			if row != nil {
				out = append(out, *row)
			}
		}
		return out, nil
	}
	rows, _, err := probeAll(plan.regions, remaining)
	if err != nil {
		return nil, err
	}
	return append(out, rows...), nil
}

// lookupOne fetches one index tuple in one partition, following secondary
// index entries to the primary row. Row maps come from the session pool;
// the statement hands them back through releaseRows.
func (s *Session) lookupOne(p *sim.Proc, f rowFetcher, t *Table, idx *Index, region simnet.Region, tuple []Datum) (*tableRow, error) {
	key := EncodeIndexKey(t, idx, region, tuple)
	val, err := f.get(p, key)
	if err != nil {
		return nil, err
	}
	if val == nil {
		return nil, nil
	}
	if idx.ID == t.Primary().ID || len(idx.Storing) > 0 {
		vals, err := s.decodeRowPooled(val)
		if err != nil {
			return nil, err
		}
		return &tableRow{vals: vals, region: region}, nil
	}
	return s.primaryRow(p, f, t, region, val)
}

// primaryRow follows a secondary index entry to its row: the entry's value
// holds the primary key, and the row lives in the same partition as the
// entry. Row maps come from the session pool.
func (s *Session) primaryRow(p *sim.Proc, f rowFetcher, t *Table, region simnet.Region, val mvcc.Value) (*tableRow, error) {
	pkVals, err := s.decodeRowPooled(val)
	if err != nil {
		return nil, err
	}
	primary := t.Primary()
	var pkTuple []Datum
	for _, cid := range primary.Cols {
		pkTuple = append(pkTuple, pkVals[cid])
	}
	s.putRowMap(pkVals)
	rowVal, err := f.get(p, EncodeIndexKey(t, primary, region, pkTuple))
	if err != nil || rowVal == nil {
		return nil, err
	}
	vals, err := s.decodeRowPooled(rowVal)
	if err != nil {
		return nil, err
	}
	return &tableRow{vals: vals, region: region}, nil
}

// decodeRowPooled decodes a row value into a map drawn from the session
// pool.
func (s *Session) decodeRowPooled(val mvcc.Value) (map[ColumnID]Datum, error) {
	m := s.getRowMap()
	if err := DecodeRowInto(m, val); err != nil {
		s.putRowMap(m)
		return nil, err
	}
	return m, nil
}

// fetchScan scans every candidate partition of the plan's index in
// parallel.
func (s *Session) fetchScan(p *sim.Proc, f rowFetcher, plan *readPlan) ([]tableRow, error) {
	t, idx := plan.t, plan.index
	type result struct {
		rows []tableRow
		err  error
	}
	slots := make([]result, len(plan.regions))
	p.Fanout("sql/scan", len(slots), func(wp *sim.Proc, i int) {
		region := plan.regions[i]
		start, end := IndexSpan(t, idx.ID, region)
		kvs, err := f.scan(wp, start, end, plan.limit)
		if err != nil {
			slots[i] = result{err: err}
			return
		}
		var rows []tableRow
		for _, kvp := range kvs {
			if idx.ID == t.Primary().ID || len(idx.Storing) > 0 {
				vals, err := DecodeRow(kvp.Value)
				if err != nil {
					slots[i] = result{err: err}
					return
				}
				rows = append(rows, tableRow{vals: vals, region: region})
			} else {
				row, err := s.primaryRow(wp, f, t, region, kvp.Value)
				if err != nil {
					slots[i] = result{err: err}
					return
				}
				if row != nil {
					rows = append(rows, *row)
				}
			}
		}
		slots[i] = result{rows: rows}
	})
	var out []tableRow
	for _, r := range slots {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.rows...)
	}
	return out, nil
}

// filterRows applies the full WHERE clause to fetched rows.
func (s *Session) filterRows(t *Table, rows []tableRow, w *Where) ([]tableRow, error) {
	if w == nil {
		return rows, nil
	}
	var out []tableRow
	for _, row := range rows {
		named := t.namedVals(row.vals)
		match := true
		for _, c := range w.Conds {
			v, ok := named[c.Col]
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", c.Col)
			}
			any := false
			for _, e := range c.Vals {
				ev, err := s.evalExpr(e, nil)
				if err != nil {
					return nil, err
				}
				if DatumsEqual(v, ev) {
					any = true
					break
				}
			}
			if !any {
				match = false
				break
			}
		}
		if match {
			out = append(out, row)
		}
	}
	return out, nil
}
