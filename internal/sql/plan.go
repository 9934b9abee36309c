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
// one execution's values; a prepared statement keeps the first half.

// tableRow is a fetched row plus the partition it lives in.
type tableRow struct {
	vals   map[ColumnID]Datum
	region simnet.Region
}

// rowCtx returns an evaluation context over vals, a row of t, by column
// name. The context and its map are session scratch, valid until the next
// rowCtx call.
func (s *Session) rowCtx(t *Table, vals map[ColumnID]Datum) *evalCtx {
	if s.rowNames == nil {
		s.rowNames = map[string]Datum{}
	}
	clear(s.rowNames)
	for _, c := range t.Columns {
		s.rowNames[c.Name] = vals[c.ID]
	}
	s.rowEval = evalCtx{session: s, row: s.rowNames}
	return &s.rowEval
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
	// cols are the columns a fetched row is decoded to; nil decodes every
	// column (see decodedColumns).
	cols []ColumnID
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

// planRead plans a read without a statement, so the plan decodes every
// column (EXPLAIN and tests): this execution's constraint sets decide the
// shape, and their values are bound to it.
func (s *Session) planRead(t *Table, db *core.Database, w *Where, limit int) (*readPlan, error) {
	cons, err := s.constraints(w, nil)
	if err != nil {
		return nil, err
	}
	return s.bindRead(s.deriveRead(nil, t, db, w, cons, limit), t, cons, limit)
}

// deriveRead makes every shape decision of st's read from the table, the
// database, the gateway and the constraint sets. It looks only at how many
// candidate values each column has, never at the values, which is why a
// prepared statement, whose arities are fixed, can keep its shape.
func (s *Session) deriveRead(st Statement, t *Table, db *core.Database, w *Where, cons map[string][]Datum, limit int) *cachedRead {
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
		cr.regions = make([]simnet.Region, 0, len(db.Regions()))
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
		cr.cols = decodedColumns(t, st, w, false) // a scan filters every row
		return cr
	}
	cr.colNames = make([]string, 0, len(cr.index.Cols))
	for _, cid := range cr.index.Cols {
		col, _ := t.ColumnByID(cid)
		cr.colNames = append(cr.colNames, col.Name)
	}
	// LOS may apply when the row count is bounded (unique index or LIMIT,
	// §4.2); bindRead applies it when the session enables it and the
	// partition set is not pinned.
	cr.los = cr.index.Unique || limit > 0
	cr.filterRedundant = filterCoveredByLookup(t, cr.index, w)
	cr.cols = decodedColumns(t, st, w, cr.filterRedundant)
	return cr
}

// decodedColumns returns the columns every row a read of st fetches is
// decoded to: the ones a SELECT returns, when nothing reads the rows before
// projection, i.e. there is no WHERE clause or its filter is redundant. Nil
// decodes every column: for SELECT *, a filter that runs, UPDATE and DELETE
// (which rewrite whole rows), no statement, and a projection naming an
// unknown column, which project then reports. The set is a function of the
// statement and the table, so it belongs to the shape.
func decodedColumns(t *Table, st Statement, w *Where, filterRedundant bool) []ColumnID {
	sel, ok := st.(*Select)
	if !ok || sel.Columns == nil || (w != nil && !filterRedundant) {
		return nil
	}
	cols := make([]ColumnID, 0, len(sel.Columns))
	for _, name := range sel.Columns {
		c, ok := t.Column(name)
		if !ok {
			return nil
		}
		cols = append(cols, c.ID)
	}
	return cols
}

// pickIndex returns the first unique index whose every column has
// candidate values: on a duplicate-indexes table the copies pinned to the
// gateway's region (§7.3.1), then every index in declaration order, the
// primary first. Only a unique index turns an equality into one key: a
// non-unique entry's key ends in the primary-key columns, so the same
// equality names a prefix, and such predicates take the scan path. Nil
// means no index is usable.
func pickIndex(t *Table, local simnet.Region, cons map[string][]Datum) *Index {
	usable := func(idx *Index) bool {
		if !idx.Unique {
			return false
		}
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

// batchReader is a multi-key point read: every key of one phase of a
// statement goes out together, one RPC per touched range, and vals[i]
// receives keys[i]'s value. A transaction keeps the keys (fresh ones, never
// scratch); the slices keys and vals are the caller's again on return.
type batchReader interface {
	getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error
}

// rowFetcher abstracts fresh (transactional) vs stale reads. A point read is
// always a batch.
type rowFetcher interface {
	batchReader
	scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error)
}

// txnFetcher reads through a transaction. It is one pointer, so it becomes
// a rowFetcher without an allocation.
type txnFetcher struct{ tx *txn.Txn }

func (f txnFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	return f.tx.GetParallel(p, keys, vals)
}
func (f txnFetcher) scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error) {
	return f.tx.Scan(p, start, end, max)
}

// lockingFetcher is a txnFetcher whose point reads take exclusive locks
// (the implicit SELECT FOR UPDATE of UPDATE/DELETE).
type lockingFetcher struct{ txnFetcher }

func (f lockingFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	return f.tx.GetParallelForUpdate(p, keys, vals)
}

// probeReader reads through one first-hit probe of a transaction (see
// txn.Probe and lookupFirstHit).
type probeReader struct{ pr *txn.Probe }

func (f probeReader) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	return f.pr.GetParallel(p, keys, vals)
}

// probeOf returns what one first-hit probe of a statement fetching through f
// reads through, and the transaction's probe behind it (nil for a stale
// read, which has no transaction to outlive).
func probeOf(f rowFetcher) (batchReader, *txn.Probe) {
	var pr *txn.Probe
	switch f := f.(type) {
	case txnFetcher:
		pr = f.tx.Probe(false)
	case lockingFetcher:
		pr = f.tx.Probe(true)
	default:
		return f, nil
	}
	return probeReader{pr}, pr
}

// staleFetcher reads at a fixed timestamp from the nearest replica.
type staleFetcher struct {
	co *txn.Coordinator
	ts hlc.Timestamp
}

func (f *staleFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	got, err := f.co.ExactStaleReads(p, keys, f.ts)
	copy(vals, got)
	return err
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

// fetchPoint probes the index partitions for the lookup tuples, one batch
// per phase. Without LOS every tuple in every candidate partition is one
// batch. With LOS the gateway's partition is probed first; the tuples it
// misses then go to every remote partition at once, and — because a unique
// index returns at most one row per tuple — each resolves as soon as any
// partition finds it, rather than waiting for the slowest region (§4.2: "if
// the row is found, there is no need to fan out to remote regions").
func (s *Session) fetchPoint(p *sim.Proc, f rowFetcher, plan *readPlan) ([]tableRow, error) {
	t, idx, cols := plan.t, plan.index, plan.cols
	if !plan.los || len(plan.regions) < 2 || !idx.Unique {
		rows, keys := lookupKeys(t, idx, plan.regions, plan.lookups)
		err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys)))
		return hits(rows), err
	}
	// Phase 1: local partition only (§4.2).
	rows, keys := lookupKeys(t, idx, plan.regions[:1], plan.lookups)
	err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys)))
	if err != nil {
		return nil, err
	}
	var miss [][]Datum
	for i, row := range rows {
		if row.vals == nil {
			miss = append(miss, plan.lookups[i])
		}
	}
	out := hits(rows)
	if len(miss) == 0 {
		return out, nil
	}
	// Phase 2: the missing tuples fan out to the remote partitions.
	remote, err := s.lookupFirstHit(p, f, t, idx, cols, plan.regions[1:], miss)
	if err != nil {
		return nil, err
	}
	return append(out, remote...), nil
}

// lookupFirstHit sends tuples to every region as one batch per region, in
// parallel, and resolves each tuple on its first hit: it returns once every
// tuple is found or every region has answered. Only sound for unique
// indexes. Slower batches continue harmlessly in the background, as in a
// real distributed cancellation: each reads through a transaction's probe,
// which leaves the transaction alone, and the statement, on its own proc,
// adopts the probes whose replies it used. A probe that failed while the
// statement waited is the statement's to recover: it refreshes past an
// uncertain value, then reads that region's batch again itself. A probe is handed its region's keys, never the tuples: those are
// session scratch, which the session's next statement refills while a slow
// probe may still be waiting for its reply.
func (s *Session) lookupFirstHit(p *sim.Proc, f rowFetcher, t *Table, idx *Index, cols []ColumnID, regions []simnet.Region, tuples [][]Datum) ([]tableRow, error) {
	fh := &firstHit{found: make([]tableRow, len(tuples)), missing: len(tuples), pending: len(regions)}
	parent := obs.ProcSpan(p)
	for r := range regions {
		rows, keys := lookupKeys(t, idx, regions[r:r+1], tuples)
		reader, probe := probeOf(f)
		p.Sim().Spawn("sql/probe", func(wp *sim.Proc) {
			obs.SetProcSpan(wp, parent)
			vals := make([]mvcc.Value, len(keys)) // the probe's own: it may outlive the statement
			fh.land(probe, regions[r], rows, s.lookup(wp, reader, t, idx, cols, rows, keys, vals))
		})
	}
	defer func() { fh.returned = true }()
	for {
		fh.wake = sim.NewFuture[struct{}](p.Sim())
		if len(fh.failed) == 0 && fh.missing > 0 && fh.pending > 0 {
			fh.wake.Wait(p)
		}
		for _, probe := range fh.answered {
			probe.Use(p)
		}
		fh.answered = fh.answered[:0]
		if len(fh.failed) == 0 {
			return hits(fh.found), nil
		}
		fl := fh.failed[0]
		fh.failed = fh.failed[1:]
		err := fl.err
		if fl.probe != nil {
			err = fl.probe.Use(p)
		}
		if err != nil {
			return nil, err
		}
		rows, keys := lookupKeys(t, idx, []simnet.Region{fl.region}, tuples)
		if err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys))); err != nil {
			return nil, err
		}
		fh.merge(rows)
	}
}

// firstHit is what a first-hit read's probes share with its statement.
type firstHit struct {
	found    []tableRow
	missing  int                   // tuples not found yet
	pending  int                   // probes not landed yet
	answered []*txn.Probe          // transaction probes that answered, not adopted yet, in order
	failed   []probeFailure        // probes that failed, not recovered yet
	wake     *sim.Future[struct{}] // set when the statement has work
	returned bool                  // the statement returned: later probes are dropped
}

// probeFailure is a first-hit probe that failed: the transaction's probe
// (nil for a stale read), its region and its error.
type probeFailure struct {
	probe  *txn.Probe
	region simnet.Region
	err    error
}

// land takes the reply of the probe of region, which read rows (tuple i of
// the read is rows[i]) and failed with err if non-nil, and wakes the
// statement once it has a failure to recover or nothing left to wait for.
func (fh *firstHit) land(probe *txn.Probe, region simnet.Region, rows []tableRow, err error) {
	fh.pending--
	if fh.returned {
		return
	}
	if err != nil {
		fh.failed = append(fh.failed, probeFailure{probe, region, err})
	} else {
		if probe != nil {
			fh.answered = append(fh.answered, probe)
		}
		fh.merge(rows)
	}
	if (err != nil || fh.missing == 0 || fh.pending == 0) && !fh.wake.Done() {
		fh.wake.Set(struct{}{})
	}
}

// merge resolves each tuple not found yet whose row rows holds (tuple i's is
// rows[i]).
func (fh *firstHit) merge(rows []tableRow) {
	for i, row := range rows {
		if row.vals != nil && fh.found[i].vals == nil {
			fh.found[i] = row
			fh.missing--
		}
	}
}

// hits drops the misses (rows without values) from rows, in place.
func hits(rows []tableRow) []tableRow {
	out := rows[:0]
	for _, row := range rows {
		if row.vals != nil {
			out = append(out, row)
		}
	}
	return out
}

// lookupKeys encodes the index key of every tuple in every region: row and
// key r*len(tuples)+i are tuples[i]'s in regions[r].
func lookupKeys(t *Table, idx *Index, regions []simnet.Region, tuples [][]Datum) ([]tableRow, []mvcc.Key) {
	rows := make([]tableRow, len(regions)*len(tuples))
	keys := make([]mvcc.Key, len(rows))
	for r, region := range regions {
		for i, tuple := range tuples {
			rows[r*len(tuples)+i].region = region
			keys[r*len(tuples)+i] = EncodeIndexKey(t, idx, region, tuple)
		}
	}
	return rows, keys
}

// lookup reads keys, the index keys of rows (see lookupKeys), as one batch
// into vals, then follows the entries of a non-storing secondary index to
// their rows as a second. A row found gets the values of cols (every column
// when nil); a miss keeps none. Row maps come from the session pool; the
// statement hands them back through releaseRows.
func (s *Session) lookup(p *sim.Proc, f batchReader, t *Table, idx *Index, cols []ColumnID, rows []tableRow, keys []mvcc.Key, vals []mvcc.Value) error {
	err := f.getBatch(p, keys, vals)
	if err != nil {
		return err
	}
	if !covering(t, idx) {
		return s.primaryRows(p, f, t, cols, vals, rows)
	}
	for j, val := range vals {
		if val == nil {
			continue
		}
		if rows[j].vals, err = s.decodeRowPooled(val, cols); err != nil {
			return err
		}
	}
	return nil
}

// covering reports whether idx's entries hold whole rows: the primary index
// and storing secondary indexes do, other secondary indexes hold only the
// primary key.
func covering(t *Table, idx *Index) bool {
	return idx.ID == t.Primary().ID || len(idx.Storing) > 0
}

// primaryRows follows secondary index entries to their rows as one batch.
// Each non-nil entries[j] holds a primary key, and its row lives in
// rows[j].region, the entry's own partition; the values of the row's cols
// (every column when nil) land in rows[j].vals. An entry is always decoded
// whole; the rows' values are then read into entries. Row maps come from the
// session pool.
func (s *Session) primaryRows(p *sim.Proc, f batchReader, t *Table, cols []ColumnID, entries []mvcc.Value, rows []tableRow) error {
	primary := t.Primary()
	var keys []mvcc.Key
	var at []int // at[k] is the row keys[k] reads
	pkTuple := make([]Datum, len(primary.Cols))
	for j, entry := range entries {
		if entry == nil {
			continue
		}
		pkVals, err := s.decodeRowPooled(entry, nil)
		if err != nil {
			return err
		}
		for c, cid := range primary.Cols {
			pkTuple[c] = pkVals[cid]
		}
		s.putRowMap(pkVals)
		keys = append(keys, EncodeIndexKey(t, primary, rows[j].region, pkTuple))
		at = append(at, j)
	}
	if len(keys) == 0 {
		return nil
	}
	vals := entries[:len(keys)]
	if err := f.getBatch(p, keys, vals); err != nil {
		return err
	}
	for k, val := range vals {
		if val == nil {
			continue
		}
		var err error
		if rows[at[k]].vals, err = s.decodeRowPooled(val, cols); err != nil {
			return err
		}
	}
	return nil
}

// decodeRowPooled decodes the cols of a row value (every column when nil)
// into a map drawn from the session pool.
func (s *Session) decodeRowPooled(val mvcc.Value, cols []ColumnID) (map[ColumnID]Datum, error) {
	m := s.getRowMap()
	if err := DecodeRowInto(m, val, cols); err != nil {
		s.putRowMap(m)
		return nil, err
	}
	return m, nil
}

// fetchScan scans every candidate partition of the plan's index in
// parallel. A non-storing secondary index then reads each partition's rows
// as one batch.
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
		rows := make([]tableRow, len(kvs))
		for j := range rows {
			rows[j].region = region
		}
		if !covering(t, idx) {
			entries := make([]mvcc.Value, len(kvs))
			for j, kvp := range kvs {
				entries[j] = kvp.Value
			}
			err := s.primaryRows(wp, f, t, plan.cols, entries, rows)
			slots[i] = result{rows: hits(rows), err: err}
			return
		}
		for j, kvp := range kvs {
			if rows[j].vals, err = s.decodeRowPooled(kvp.Value, plan.cols); err != nil {
				slots[i] = result{err: err}
				return
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
		named := s.rowCtx(t, row.vals).row
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
