package sql

import (
	"bytes"
	"errors"
	"fmt"

	"mrdb/internal/core"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// --- SELECT ---

func (s *Session) execSelect(p *sim.Proc, tx *txn.Txn, st *Select) (*Result, error) {
	t, _, fetched, rows, err := s.readRows(p, tx, st, st.Table, st.Where, st.Limit)
	if err != nil {
		return nil, err
	}
	res, err := s.project(t, rows, st.Columns, st.Limit)
	s.releaseRows(fetched)
	return res, err
}

// readRows is the read step of SELECT, UPDATE and DELETE: it plans st's read
// of table, fetches the rows and filters them by where unless the plan
// already guarantees it. It returns every fetched row, for releaseRows once
// the statement is done, and the matching ones. The reads go through tx,
// except those of SELECT ... AS OF SYSTEM TIME (paper §5.3), which runs
// outside any transaction as a stale read at the timestamp the clause picks.
// UPDATE and DELETE reads lock their rows (implicit SELECT FOR UPDATE), so
// read-modify-write transactions queue rather than restart.
func (s *Session) readRows(p *sim.Proc, tx *txn.Txn, st Statement, table string, where *Where, limit int) (*Table, *core.Database, []tableRow, []tableRow, error) {
	t, db, err := s.table(table)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	plan, err := s.planReadCached(st, t, db, where, limit)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var f rowFetcher
	if sel, ok := st.(*Select); !ok && plan.lookups != nil {
		f = lockingFetcher{txnFetcher{tx}}
	} else if !ok || sel.AsOf == nil {
		f = txnFetcher{tx}
	} else {
		ts, err := s.asOfTimestamp(p, sel.AsOf, t, plan)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		f = &staleFetcher{co: s.Coord, ts: ts}
	}
	fetched, err := s.fetchRows(p, f, plan)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rows := fetched
	if !plan.filterRedundant {
		if rows, err = s.filterRows(t, rows, where); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return t, db, fetched, rows, nil
}

// asOfTimestamp resolves an AS OF SYSTEM TIME clause to the timestamp a
// stale read runs at: exact staleness names it; bounded staleness has the
// coordinator negotiate it over the spans the plan will touch (§5.3.2).
func (s *Session) asOfTimestamp(p *sim.Proc, asOf *AsOf, t *Table, plan *readPlan) (hlc.Timestamp, error) {
	if asOf.Exact != nil {
		return s.resolveAsOfTimestamp(asOf.Exact)
	}
	var minTS hlc.Timestamp
	if asOf.MinTimestamp != nil {
		var err error
		if minTS, err = s.resolveAsOfTimestamp(asOf.MinTimestamp); err != nil {
			return hlc.Timestamp{}, err
		}
	} else {
		v, err := s.evalExpr(asOf.MaxStaleness, nil)
		if err != nil {
			return hlc.Timestamp{}, err
		}
		str, ok := v.(string)
		if !ok {
			return hlc.Timestamp{}, fmt.Errorf("sql: with_max_staleness requires an interval string")
		}
		d, err := parseDuration(str)
		if err != nil {
			return hlc.Timestamp{}, err
		}
		minTS = s.Coord.MaxStalenessToMinTS(d)
	}
	spans := make([][2]mvcc.Key, len(plan.regions))
	for i, region := range plan.regions {
		spans[i][0], spans[i][1] = IndexSpan(t, plan.index.ID, region)
	}
	return s.Coord.BoundedStalenessTimestamp(p, spans, minTS)
}

// project builds the result set: named columns, or all visible columns for
// SELECT * (hidden columns like crdb_region stay hidden, §2.3.2).
func (s *Session) project(t *Table, rows []tableRow, cols []string, limit int) (*Result, error) {
	outCols := s.colScratch[:0]
	if cols == nil {
		outCols = t.AppendVisibleColumns(outCols)
	} else {
		for _, name := range cols {
			c, ok := t.Column(name)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", name)
			}
			outCols = append(outCols, c)
		}
	}
	s.colScratch = outCols
	res := s.takeResult()
	if res.Columns == nil {
		for _, c := range outCols {
			res.Columns = append(res.Columns, c.Name)
		}
	}
	// Refill a reused result's row slices in place (datums are copied out of
	// the fetched rows, so a recycled backing array is safe to overwrite).
	prev := res.Rows[:cap(res.Rows)]
	for _, row := range rows {
		var out []Datum
		if n := len(res.Rows); n < len(prev) && prev[n] != nil {
			out = prev[n][:0]
		}
		for _, c := range outCols {
			out = append(out, row.vals[c.ID])
		}
		res.Rows = append(res.Rows, out)
		if limit > 0 && len(res.Rows) >= limit {
			break
		}
	}
	res.RowsAffected = len(res.Rows)
	return res, nil
}

// --- INSERT ---

func (s *Session) execInsert(p *sim.Proc, tx *txn.Txn, st *Insert) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	ci, err := s.insertPlan(st, t)
	if err != nil {
		return nil, err
	}
	var rows []uniqueRow
	for _, rowExprs := range st.Rows {
		vals, err := s.insertRowValues(ci, t, db, rowExprs)
		if err != nil {
			return nil, err
		}
		region, err := rowRegion(t, vals)
		if err != nil {
			return nil, err
		}
		rows = append(rows, uniqueRow{vals: vals, region: region})
	}
	if st.Upsert {
		if err := upsertable(t); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := tx.PutParallel(p, rowKVs(t, "", r.vals), nil); err != nil {
				return nil, err
			}
		}
		res := s.takeResult()
		res.RowsAffected = len(rows)
		return res, nil
	}
	// Every unique entry is checked. All rows' index entries go out as one
	// batch: the DistSender splits it by range and the statement pays the
	// max, not the sum, of per-range round trips.
	var unique []*Index
	for _, idx := range t.Indexes {
		if idx.Unique {
			unique = append(unique, idx)
		}
	}
	var kvs []mvcc.KeyValue
	for i := range rows {
		rows[i].indexes = unique
		kvs = append(kvs, rowKVs(t, rows[i].region, rows[i].vals)...)
	}
	mustNotExist, err := s.checkUnique(p, tx, t, db, rows, kvs, ci.fromDefault)
	if err != nil {
		return nil, err
	}
	if err := tx.PutParallel(p, kvs, mustNotExist); err != nil {
		return nil, uniqueViolation(t, db, err)
	}
	res := s.takeResult()
	res.RowsAffected = len(rows)
	return res, nil
}

// uniqueRow is a row write as its uniqueness checks (paper §4.1) see it.
type uniqueRow struct {
	vals    map[ColumnID]Datum
	region  simnet.Region // the partition the row is written to
	indexes []*Index      // the unique indexes whose entries the write lays down anew
}

// checkUnique runs the uniqueness checks (paper §4.1) of the rows a
// statement writes, whose index entries are kvs, and returns the conditions
// of kvs' writes. A unique index's probe of a row's own partition reads the
// very key the row writes, so it is not sent as a read: it becomes that
// write's condition (MustNotExist), and the leaseholder fails the write on a
// live value. Same-statement duplicates are caught against the keys earlier
// rows write, and the probes of other partitions that §4.1 cannot elide go
// out first as one batched read — one KV RPC per touched range instead of
// one per row. A row's own old entry is never a duplicate: a key kvs
// tombstone is not probed. No checked entry means no conditions: nil.
func (s *Session) checkUnique(p *sim.Proc, tx *txn.Txn, t *Table, db *core.Database, rows []uniqueRow, kvs []mvcc.KeyValue, fromDefault map[ColumnID]bool) ([]bool, error) {
	var probeKeys []mvcc.Key
	type probeRef struct {
		idx    *Index
		region simnet.Region
	}
	var probeRefs []probeRef
	written := map[string]bool{} // the checked entries of the rows so far
	for _, r := range rows {
		for _, idx := range r.indexes {
			var tuple []Datum
			for _, cid := range idx.Cols {
				tuple = append(tuple, r.vals[cid])
			}
			for _, pr := range uniqueProbeRegions(t, db, idx, r.region, fromDefault, s.UniquenessChecks) {
				key := EncodeIndexKey(t, idx, pr, tuple)
				switch {
				case written[string(key)]:
					return nil, duplicateKey(idx, pr)
				case pr == r.region:
					written[string(key)] = true
				case !deletes(kvs, key):
					probeKeys = append(probeKeys, key)
					probeRefs = append(probeRefs, probeRef{idx: idx, region: pr})
				}
			}
		}
	}
	if len(written) == 0 {
		return nil, nil
	}
	if len(probeKeys) > 0 {
		found, err := tx.GetParallel(p, probeKeys)
		if err != nil {
			return nil, err
		}
		for i, v := range found {
			if v != nil {
				return nil, duplicateKey(probeRefs[i].idx, probeRefs[i].region)
			}
		}
	}
	mustNotExist := make([]bool, len(kvs))
	for i, e := range kvs {
		mustNotExist[i] = written[string(e.Key)]
	}
	return mustNotExist, nil
}

// deletes reports whether kvs tombstone key.
func deletes(kvs []mvcc.KeyValue, key mvcc.Key) bool {
	for _, e := range kvs {
		if e.Value == nil && bytes.Equal(e.Key, key) {
			return true
		}
	}
	return false
}

// duplicateKey is the error of a write that would duplicate a unique key.
func duplicateKey(idx *Index, region simnet.Region) error {
	return fmt.Errorf("sql: duplicate key value violates unique constraint %q (region %s)", idx.Name, region)
}

// uniqueViolation turns the failed condition of a checked write into the
// duplicate-key error of the unique index and partition the key belongs
// to. Any other error passes through.
func uniqueViolation(t *Table, db *core.Database, err error) error {
	var cf *kv.ConditionFailedError
	if !errors.As(err, &cf) {
		return err
	}
	for _, idx := range t.Indexes {
		if !idx.Unique {
			continue
		}
		for _, region := range partitionsOf(t, db) {
			if bytes.HasPrefix(cf.Key, IndexPrefix(t, idx.ID, region)) {
				return duplicateKey(idx, region)
			}
		}
	}
	return err
}

// uniqueProbeRegions returns the partitions a unique-index check must probe
// for a row homed in region: the local partition always, plus every remote
// partition unless the check can be elided (paper §4.1): the value came
// from gen_random_uuid() (case 1), the region column is part of the index
// (case 2), or the region is computed from the indexed columns (case 3).
func uniqueProbeRegions(t *Table, db *core.Database, idx *Index, region simnet.Region, fromDefault map[ColumnID]bool, remoteChecks bool) []simnet.Region {
	checkRegions := []simnet.Region{region}
	if !t.IsPartitioned() || !remoteChecks {
		return checkRegions
	}
	elide := false
	// §4.1 (1): generated UUIDs never collide; skip remote checks.
	if len(idx.Cols) == 1 && fromDefault[idx.Cols[0]] {
		elide = true
	}
	// §4.1 (2): the region column is part of the unique constraint.
	for _, cid := range idx.Cols {
		if cid == t.RegionColumn {
			elide = true
		}
	}
	// §4.1 (3): the region is computed from the unique columns, so
	// per-partition uniqueness implies global uniqueness.
	if regionCol, ok := t.ColumnByID(t.RegionColumn); ok && regionCol.Computed != nil {
		deps := exprColumnDeps(regionCol.Computed)
		idxNames := map[string]bool{}
		for _, cid := range idx.Cols {
			c, _ := t.ColumnByID(cid)
			idxNames[c.Name] = true
		}
		covered := true
		for _, d := range deps {
			if !idxNames[d] {
				covered = false
			}
		}
		if covered && len(deps) > 0 {
			elide = true
		}
	}
	if !elide {
		for _, r := range db.Regions() {
			if r != region {
				checkRegions = append(checkRegions, r)
			}
		}
	}
	return checkRegions
}

// rowRegion extracts the partition region of a row.
func rowRegion(t *Table, vals map[ColumnID]Datum) (simnet.Region, error) {
	if !t.IsPartitioned() {
		return "", nil
	}
	v := vals[t.RegionColumn]
	r, ok := v.(string)
	if !ok || r == "" {
		return "", fmt.Errorf("sql: row has no region value")
	}
	return simnet.Region(r), nil
}

// upsertable reports why an UPSERT, a blind overwrite of rows with no
// uniqueness checks and no existence read, cannot run on t: it requires every
// index key to be a function of the primary key so stale index entries
// cannot arise, and an unpartitioned table (a blind write cannot know which
// partition an existing row lives in).
func upsertable(t *Table) error {
	if t.IsPartitioned() {
		return fmt.Errorf("sql: UPSERT is not supported on REGIONAL BY ROW tables")
	}
	pkSet := map[ColumnID]bool{}
	for _, cid := range t.Primary().Cols {
		pkSet[cid] = true
	}
	for _, idx := range t.Indexes {
		for _, cid := range idx.Cols {
			if !pkSet[cid] {
				return fmt.Errorf("sql: UPSERT requires index %q keys to derive from the primary key", idx.Name)
			}
		}
	}
	return nil
}

// indexEntry is the one place a row becomes an entry of one index: every
// write, tombstone, uniqueness write key and backfill of an index entry
// goes through it, so these rules cannot drift apart between producers:
//   - a duplicate index (§7.3.1) is unpartitioned, so its key carries no
//     region whatever partition the row is homed in;
//   - a non-unique index key ends in the primary-key columns, so rows that
//     share the indexed values get distinct entries;
//   - the primary index and indexes that store columns hold the full row;
//     every other index holds the primary-key columns.
//
// Without withValue the entry's Value is nil: a tombstone, or just a key.
func indexEntry(t *Table, idx *Index, region simnet.Region, vals map[ColumnID]Datum, withValue bool) mvcc.KeyValue {
	if idx.PinnedRegion != "" && !t.IsPartitioned() {
		region = ""
	}
	tuple := make([]Datum, len(idx.Cols))
	for i, cid := range idx.Cols {
		tuple[i] = vals[cid]
	}
	key := EncodeIndexKey(t, idx, region, tuple)
	primary := t.Primary()
	if !idx.Unique {
		pk := make([]Datum, len(primary.Cols))
		for i, cid := range primary.Cols {
			pk[i] = vals[cid]
		}
		key = append(key, EncodeTupleSuffix(pk)...)
	}
	if !withValue {
		return mvcc.KeyValue{Key: key}
	}
	if idx.ID == primary.ID || len(idx.Storing) > 0 {
		return mvcc.KeyValue{Key: key, Value: EncodeRow(vals)}
	}
	pkVals := make(map[ColumnID]Datum, len(primary.Cols))
	for _, cid := range primary.Cols {
		pkVals[cid] = vals[cid]
	}
	return mvcc.KeyValue{Key: key, Value: EncodeRow(pkVals)}
}

// rowKVs builds the primary-row and index-entry writes for one row.
func rowKVs(t *Table, region simnet.Region, vals map[ColumnID]Datum) []mvcc.KeyValue {
	kvs := make([]mvcc.KeyValue, len(t.Indexes))
	for i, idx := range t.Indexes {
		kvs[i] = indexEntry(t, idx, region, vals, true)
	}
	return kvs
}

// deleteKVs builds the tombstone writes removing one row.
func deleteKVs(t *Table, region simnet.Region, vals map[ColumnID]Datum) []mvcc.KeyValue {
	kvs := make([]mvcc.KeyValue, len(t.Indexes))
	for i, idx := range t.Indexes {
		kvs[i] = indexEntry(t, idx, region, vals, false)
	}
	return kvs
}

// --- UPDATE ---

func (s *Session) execUpdate(p *sim.Proc, tx *txn.Txn, st *Update) (*Result, error) {
	t, db, fetched, rows, err := s.readRows(p, tx, st, st.Table, st.Where, 0)
	if err != nil {
		return nil, err
	}
	pkSet := map[ColumnID]bool{}
	for _, cid := range t.Primary().Cols {
		pkSet[cid] = true
	}
	updated := 0
	for _, row := range rows {
		newVals := map[ColumnID]Datum{}
		for k, v := range row.vals {
			newVals[k] = v
		}
		changed := map[ColumnID]bool{}
		for _, a := range st.Set {
			c, ok := t.Column(a.Col)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", a.Col)
			}
			if pkSet[c.ID] {
				return nil, fmt.Errorf("sql: updating primary key column %q is not supported", a.Col)
			}
			v, err := s.evalExpr(a.Val, &evalCtx{session: s, row: t.namedVals(row.vals)})
			if err != nil {
				return nil, err
			}
			newVals[c.ID] = v
			changed[c.ID] = true
		}
		// Automatic rehoming (§2.3.2): the row moves to the gateway's
		// region when enabled (via setting or ON UPDATE rehome_row()).
		if t.IsPartitioned() {
			regionCol, _ := t.ColumnByID(t.RegionColumn)
			rehome := s.AutoRehoming || regionCol.OnUpdateRehome
			if rehome && regionCol.Computed == nil && !changed[t.RegionColumn] {
				gw := string(s.Region())
				if db.CanWriteRegion(simnet.Region(gw)) && newVals[t.RegionColumn] != gw {
					newVals[t.RegionColumn] = gw
					changed[t.RegionColumn] = true
				}
			}
		}
		// Recompute computed columns over the new row.
		for _, c := range t.Columns {
			if c.Computed != nil {
				v, err := s.evalExpr(c.Computed, &evalCtx{session: s, row: t.namedVals(newVals)})
				if err != nil {
					return nil, err
				}
				if !DatumsEqual(v, newVals[c.ID]) {
					newVals[c.ID] = v
					changed[c.ID] = true
				}
			}
		}
		newRegion, err := rowRegion(t, newVals)
		if err != nil {
			return nil, err
		}
		if t.IsPartitioned() && !db.CanWriteRegion(newRegion) {
			return nil, fmt.Errorf("sql: region %q is not writable", newRegion)
		}
		var kvs []mvcc.KeyValue
		if newRegion != row.region && t.IsPartitioned() {
			// Cross-partition move (rehoming): delete + reinsert.
			kvs = append(deleteKVs(t, row.region, row.vals), rowKVs(t, newRegion, newVals)...)
		} else {
			kvs = updateKVs(t, row.region, row.vals, newVals, changed)
		}
		// A unique entry is checked only when its key bytes change; the
		// primary key cannot change, so a row moving partitions keeps a
		// primary key no other row holds. Rows are checked one at a time,
		// against the table as the rows before them left it, so a swap of
		// two rows' values fails.
		check := uniqueRow{vals: newVals, region: newRegion}
		for _, idx := range t.Indexes {
			if idx.Unique && idx.ID != t.Primary().ID &&
				!bytes.Equal(indexEntry(t, idx, row.region, row.vals, false).Key, indexEntry(t, idx, newRegion, newVals, false).Key) {
				check.indexes = append(check.indexes, idx)
			}
		}
		mustNotExist, err := s.checkUnique(p, tx, t, db, []uniqueRow{check}, kvs, nil)
		if err != nil {
			return nil, err
		}
		if err := tx.PutParallel(p, kvs, mustNotExist); err != nil {
			return nil, uniqueViolation(t, db, err)
		}
		updated++
	}
	s.releaseRows(fetched)
	res := s.takeResult()
	res.RowsAffected = updated
	return res, nil
}

// updateKVs builds the writes rewriting a row in place within its
// partition: every entry whose key changed is tombstoned and laid down anew,
// and entries that hold row columns are rewritten.
func updateKVs(t *Table, region simnet.Region, oldVals, newVals map[ColumnID]Datum, changed map[ColumnID]bool) []mvcc.KeyValue {
	var kvs []mvcc.KeyValue
	for _, idx := range t.Indexes {
		keyChanged := false
		for _, cid := range idx.Cols {
			if changed[cid] {
				keyChanged = true
			}
		}
		if keyChanged {
			kvs = append(kvs, indexEntry(t, idx, region, oldVals, false))
		}
		if keyChanged || idx.ID == t.Primary().ID || len(idx.Storing) > 0 {
			kvs = append(kvs, indexEntry(t, idx, region, newVals, true))
		}
	}
	return kvs
}

// --- DELETE ---

func (s *Session) execDelete(p *sim.Proc, tx *txn.Txn, st *Delete) (*Result, error) {
	t, _, fetched, rows, err := s.readRows(p, tx, st, st.Table, st.Where, 0)
	if err != nil {
		return nil, err
	}
	// All rows' tombstones go out as one per-range-batched write.
	var kvs []mvcc.KeyValue
	for _, row := range rows {
		kvs = append(kvs, deleteKVs(t, row.region, row.vals)...)
	}
	if err := tx.PutParallel(p, kvs, nil); err != nil {
		return nil, err
	}
	n := len(rows)
	s.releaseRows(fetched)
	res := s.takeResult()
	res.RowsAffected = n
	return res, nil
}

// --- Backfill ---

// backfill copies every row of src's primary index, read under src's
// partitioning, into the indexes idxs of dst: CREATE INDEX builds one new
// index of the same table, SET LOCALITY rebuilds every index under the new
// partitioning (§2.4.2). It changes neither table and leaves the catalog
// alone, so idxs need not be dst's until the caller swaps them in. A row
// gaining a crdb_region column in a conversion to REGIONAL BY ROW adopts the
// column's default at the session's gateway.
func (s *Session) backfill(p *sim.Proc, db *core.Database, src, dst *Table, idxs []*Index) error {
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		for _, srcRegion := range partitionsOf(src, db) {
			start, end := IndexSpan(src, src.Primary().ID, srcRegion)
			rows, err := tx.Scan(p, start, end, 0)
			if err != nil {
				return err
			}
			var kvs []mvcc.KeyValue
			for _, row := range rows {
				vals, err := DecodeRow(row.Value)
				if err != nil {
					return err
				}
				if _, ok := vals[dst.RegionColumn].(string); dst.IsPartitioned() && !ok {
					col, _ := dst.ColumnByID(dst.RegionColumn)
					if vals[dst.RegionColumn], err = s.evalExpr(col.Default, &evalCtx{session: s, row: dst.namedVals(vals)}); err != nil {
						return err
					}
				}
				region, err := rowRegion(dst, vals)
				if err != nil {
					return err
				}
				for _, idx := range idxs {
					kvs = append(kvs, indexEntry(dst, idx, region, vals, true))
				}
			}
			if err := tx.PutParallel(p, kvs, nil); err != nil {
				return err
			}
		}
		return nil
	})
}
