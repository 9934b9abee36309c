package sql

import (
	"fmt"
	"slices"

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
	// blind marks an UPDATE that needs nothing from its row (blindUpdate).
	blind bool
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
	cr.blind = blindUpdate(st, t, w, cr, cons)
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
	scan(p *sim.Proc, spans [][2]mvcc.Key, max int) ([][]mvcc.KeyValue, error)
}

// txnFetcher reads through a transaction. It is one pointer, so it becomes
// a rowFetcher without an allocation.
type txnFetcher struct{ tx *txn.Txn }

func (f txnFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	return f.tx.GetParallel(p, keys, vals)
}
func (f txnFetcher) scan(p *sim.Proc, spans [][2]mvcc.Key, max int) ([][]mvcc.KeyValue, error) {
	return f.tx.Scan(p, spans, max)
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

// staleFetcher reads at a fixed timestamp from the nearest replica.
type staleFetcher struct {
	co *txn.Coordinator
	ts hlc.Timestamp
}

func (f *staleFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	return f.co.ExactStaleReads(p, keys, vals, f.ts)
}
func (f *staleFetcher) scan(p *sim.Proc, spans [][2]mvcc.Key, max int) ([][]mvcc.KeyValue, error) {
	return f.co.StaleScan(p, spans, max, f.ts)
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
	s.lookupRowScratch, s.lookupKeyScratch = emptied(s.lookupRowScratch), emptied(s.lookupKeyScratch)
	if !plan.los || len(plan.regions) < 2 || !idx.Unique {
		rows, keys := s.scratchLookupKeys(t, idx, plan.regions, plan.lookups)
		err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys)))
		return hits(rows), err
	}
	// Phase 1: local partition only (§4.2).
	rows, keys := s.scratchLookupKeys(t, idx, plan.regions[:1], plan.lookups)
	err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys)))
	if err != nil {
		return nil, err
	}
	miss := s.missScratch[:0]
	for i, row := range rows {
		if row.vals == nil {
			miss = append(miss, plan.lookups[i])
		}
	}
	s.missScratch = miss
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
// uncertain value, then reads that region's batch again itself, in session
// scratch.
//
// Everything the probes share with the statement is carved from the
// session's chunks, never the tuples or the scratch: the firstHit, each
// region's run (its rows, keys and values, and its transaction's probe) and
// the list of probes that answered. A carve is never handed out again, so a
// slow probe keeps its lists while the session's next statements carve
// more. The last one out, the statement returning or the last probe
// landing, clears what the chunks would otherwise keep alive (letGo).
func (s *Session) lookupFirstHit(p *sim.Proc, f rowFetcher, t *Table, idx *Index, cols []ColumnID, regions []simnet.Region, tuples [][]Datum) ([]tableRow, error) {
	fh := s.firstHits.New()
	*fh = firstHit{
		s: s, t: t, idx: idx, cols: cols, parent: obs.ProcSpan(p),
		found: s.hitRows.Take(len(tuples)), missing: len(tuples), pending: len(regions),
		runs: s.probeRuns.Take(len(regions)), answered: s.answered.Take(len(regions))[:0],
	}
	rows, keys := s.lookupKeys(t, idx, regions, tuples)
	vals := s.hitVals.Take(len(keys))
	for r := range fh.runs {
		lo, hi := r*len(tuples), (r+1)*len(tuples)
		run := &fh.runs[r]
		run.region, run.rows, run.keys, run.vals = regions[r], rows[lo:hi:hi], keys[lo:hi:hi], vals[lo:hi:hi]
		run.readThrough(f)
	}
	for range fh.runs {
		s.probes.Go(p.Sim(), "sql/probe", fh)
	}
	defer fh.leave()
	for {
		fh.wake = sim.Future[struct{}]{} // nothing waits on it: empty it for this round
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
		if probe := fl.txnProbe(); probe != nil {
			err = probe.Use(p)
		}
		if err != nil {
			return nil, err
		}
		rows, keys := s.scratchLookupKeys(t, idx, []simnet.Region{fl.region}, tuples)
		if err := s.lookup(p, f, t, idx, cols, rows, keys, s.values(len(keys))); err != nil {
			return nil, err
		}
		fh.merge(rows)
	}
}

// firstHit is what a first-hit read's probes share with its statement.
type firstHit struct {
	// What every probe reads with: the session, the table, the index, the
	// columns and the statement's span.
	s      *Session
	t      *Table
	idx    *Index
	cols   []ColumnID
	parent *obs.Span

	found    []tableRow
	runs     []probeRun           // one per remote region, in spawn order
	next     int                  // probes started so far
	missing  int                  // tuples not found yet
	pending  int                  // probes not landed yet
	answered []*txn.Probe         // transaction probes that answered, not adopted yet, in order
	failed   []*probeRun          // probes that failed, not recovered yet
	wake     sim.Future[struct{}] // set when the statement has work
	returned bool                 // the statement returned: later probes are dropped
}

// probeRun is one region's probe of a first-hit read: tuple i of the read
// is rows[i], keys[i] and vals[i] there. The probe reads through reader (its
// txn.Probe for a transactional read, the fetcher for a stale one), and err
// is its failure.
type probeRun struct {
	region simnet.Region
	rows   []tableRow
	keys   []mvcc.Key
	vals   []mvcc.Value
	reader batchReader
	probe  txn.Probe
	err    error
}

// readThrough makes r read as a first-hit probe of a statement fetching
// through f: through a probe of the statement's transaction, started in r,
// or through f itself for a stale read, which has no transaction to outlive.
func (r *probeRun) readThrough(f rowFetcher) {
	switch f := f.(type) {
	case txnFetcher:
		r.probe.Start(f.tx, false)
	case lockingFetcher:
		r.probe.Start(f.tx, true)
	default:
		r.reader = f
		return
	}
	r.reader = probeReader{&r.probe}
}

// txnProbe returns the transaction's probe r reads through, nil for a stale
// read.
func (r *probeRun) txnProbe() *txn.Probe {
	if _, ok := r.reader.(probeReader); ok {
		return &r.probe
	}
	return nil
}

// probeBody is the body of every probe's proc, bound once per session: each
// takes its read from the session's queue, and the next run of that read.
// The probes start in the order they were spawned, so each takes its own,
// as a sim.Group child takes its index.
func probeBody(wp *sim.Proc, fh *firstHit) {
	r := &fh.runs[fh.next]
	fh.next++
	obs.SetProcSpan(wp, fh.parent)
	r.err = fh.s.lookup(wp, r.reader, fh.t, fh.idx, fh.cols, r.rows, r.keys, r.vals)
	fh.land(r)
}

// land takes the reply of run r, and wakes the statement once it has a
// failure to recover or nothing left to wait for.
func (fh *firstHit) land(r *probeRun) {
	fh.pending--
	if fh.returned {
		fh.letGo()
		return
	}
	if r.err != nil {
		fh.failed = append(fh.failed, r)
	} else {
		if probe := r.txnProbe(); probe != nil {
			fh.answered = append(fh.answered, probe)
		}
		fh.merge(r.rows)
	}
	if (r.err != nil || fh.missing == 0 || fh.pending == 0) && !fh.wake.Done() {
		fh.wake.Set(struct{}{})
	}
}

// leave notes that the statement returned: later probes are dropped.
func (fh *firstHit) leave() {
	fh.returned = true
	fh.letGo()
}

// letGo clears the read's state once the statement has returned and every
// probe has landed. A chunk keeps alive whatever any struct carved from it
// points at, so a run left as it is would keep its transaction, its values
// and its row maps alive as long as anything else in its chunks. found
// stays: the statement returned rows that alias it.
func (fh *firstHit) letGo() {
	if !fh.returned || fh.pending > 0 {
		return
	}
	for i := range fh.runs {
		r := &fh.runs[i]
		clear(r.rows)
		clear(r.keys)
		clear(r.vals)
	}
	clear(fh.runs)
	clear(fh.answered[:cap(fh.answered)])
	*fh = firstHit{found: fh.found, returned: true}
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

// lookupKeys returns the rows and index keys of a lookup of every tuple in
// every region, carved from the session's chunks: row and key
// r*len(tuples)+i are tuples[i]'s in regions[r]. It is what first-hit probes
// read, which may outlive their statement; a carve is never handed out
// again, so the lists stay the probes'.
func (s *Session) lookupKeys(t *Table, idx *Index, regions []simnet.Region, tuples [][]Datum) ([]tableRow, []mvcc.Key) {
	n := len(regions) * len(tuples)
	rows, keys := s.hitRows.Take(n), s.hitKeys.Take(n)
	s.encodeLookups(rows, keys, t, idx, regions, tuples)
	return rows, keys
}

// scratchLookupKeys is lookupKeys in statement scratch, for a read on the
// statement's proc. Each call takes the lists after those the statement took
// before, so a first-hit recovery read leaves phase 1's rows alone;
// fetchPoint starts the scratch over.
func (s *Session) scratchLookupKeys(t *Table, idx *Index, regions []simnet.Region, tuples [][]Datum) ([]tableRow, []mvcc.Key) {
	lo, hi := len(s.lookupRowScratch), len(s.lookupRowScratch)+len(regions)*len(tuples)
	s.lookupRowScratch = slices.Grow(s.lookupRowScratch, hi-lo)[:hi]
	s.lookupKeyScratch = slices.Grow(s.lookupKeyScratch, hi-lo)[:hi]
	rows, keys := s.lookupRowScratch[lo:hi:hi], s.lookupKeyScratch[lo:hi:hi]
	s.encodeLookups(rows, keys, t, idx, regions, tuples)
	return rows, keys
}

// encodeLookups fills rows and keys, len(regions)*len(tuples) long each:
// row r*len(tuples)+i is a row of regions[r] with no values yet, and key
// r*len(tuples)+i is tuples[i]'s index key there, carved from the session's
// keys.
func (s *Session) encodeLookups(rows []tableRow, keys []mvcc.Key, t *Table, idx *Index, regions []simnet.Region, tuples [][]Datum) {
	for r, region := range regions {
		for i, tuple := range tuples {
			rows[r*len(tuples)+i] = tableRow{region: region}
			keys[r*len(tuples)+i] = encodeIndexKey(&s.keys, t, idx, region, tuple, 0)
		}
	}
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
		if rows[j].vals, err = s.decodeRowPooled(t, val, cols); err != nil {
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
		pkVals, err := s.decodeRowPooled(t, entry, nil)
		if err != nil {
			return err
		}
		for c, cid := range primary.Cols {
			pkTuple[c] = pkVals[cid]
		}
		s.putRowMap(pkVals)
		keys = append(keys, encodeIndexKey(&s.keys, t, primary, rows[j].region, pkTuple, 0))
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
		if rows[at[k]].vals, err = s.decodeRowPooled(t, val, cols); err != nil {
			return err
		}
	}
	return nil
}

// decodeRowPooled decodes the cols of a row value of t (every column when
// nil) into a map drawn from the session pool, each value boxed by the
// session's datums; a region column decodes to the session's boxed name.
func (s *Session) decodeRowPooled(t *Table, val mvcc.Value, cols []ColumnID) (map[ColumnID]Datum, error) {
	var regions []Datum
	if t.RegionColumn != 0 {
		regions = s.regionNames()
	}
	m := s.getRowMap()
	if err := DecodeRowInto(m, val, cols, t, regions, &s.datums); err != nil {
		s.putRowMap(m)
		return nil, err
	}
	return m, nil
}

// fetchScan scans every candidate partition of the plan's index as one
// batch, so that every partition is read at one timestamp. A non-storing
// secondary index then reads every partition's rows as one batch.
func (s *Session) fetchScan(p *sim.Proc, f rowFetcher, plan *readPlan) ([]tableRow, error) {
	t, idx := plan.t, plan.index
	spans := make([][2]mvcc.Key, len(plan.regions))
	for i, region := range plan.regions {
		spans[i][0], spans[i][1] = IndexSpan(t, idx.ID, region)
	}
	kvs, err := f.scan(p, spans, plan.limit)
	if err != nil {
		return nil, err
	}
	var rows []tableRow
	var entries []mvcc.Value
	for i, part := range kvs {
		for _, kvp := range part {
			row := tableRow{region: plan.regions[i]}
			if !covering(t, idx) {
				entries = append(entries, kvp.Value)
			} else if row.vals, err = s.decodeRowPooled(t, kvp.Value, plan.cols); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	if covering(t, idx) {
		return rows, nil
	}
	err = s.primaryRows(p, f, t, plan.cols, entries, rows)
	return hits(rows), err
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
