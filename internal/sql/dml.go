package sql

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"mrdb/internal/core"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// --- SELECT ---

func (s *Session) execSelect(p *sim.Proc, tx *txn.Txn, ps *Prepared) (*Result, error) {
	st := ps.Stmt.(*Select)
	t, _, plan, err := s.planRows(ps, st.Table, st.Where, st.Limit)
	if err != nil {
		return nil, err
	}
	fetched, rows, err := s.readRows(p, tx, ps, plan, st.Where)
	if err != nil {
		return nil, err
	}
	res, err := s.project(ps.result(), t, rows, st.Columns, st.Limit)
	s.releaseRows(fetched)
	return res, err
}

// planRows resolves table and plans ps's read of it (planPrepared). The plan
// is session scratch, valid until the session plans again.
func (s *Session) planRows(ps *Prepared, table string, where *Where, limit int) (*Table, *core.Database, *readPlan, error) {
	t, db, err := s.table(table)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := s.planPrepared(ps, t, db, where, limit)
	if err != nil {
		return nil, nil, nil, err
	}
	return t, db, plan, nil
}

// readRows is the read step of SELECT, UPDATE and DELETE: it fetches the rows
// of plan, ps's read, and filters them by where unless the plan already
// guarantees it. It returns every fetched row, for releaseRows once the
// statement is done, and the matching ones. The reads go through tx, except
// those of SELECT ... AS OF SYSTEM TIME (paper §5.3), which runs outside any
// transaction as a stale read at the timestamp the clause picks. UPDATE and
// DELETE reads lock their rows (implicit SELECT FOR UPDATE), so
// read-modify-write transactions queue rather than restart.
func (s *Session) readRows(p *sim.Proc, tx *txn.Txn, ps *Prepared, plan *readPlan, where *Where) ([]tableRow, []tableRow, error) {
	t := plan.t
	var f rowFetcher
	if sel, ok := ps.Stmt.(*Select); !ok && plan.lookups != nil {
		f = lockingFetcher{txnFetcher{tx}}
	} else if !ok || sel.AsOf == nil {
		f = txnFetcher{tx}
	} else {
		ts, err := s.asOfTimestamp(p, sel.AsOf, t, plan)
		if err != nil {
			return nil, nil, err
		}
		f = &staleFetcher{co: s.Coord, ts: ts}
	}
	fetched, err := s.fetchRows(p, f, plan)
	if err != nil {
		return nil, nil, err
	}
	rows := fetched
	if !plan.filterRedundant {
		if rows, err = s.filterRows(t, rows, where); err != nil {
			return nil, nil, err
		}
	}
	return fetched, rows, nil
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

// project fills res with the result set: named columns, or all visible
// columns for SELECT * (hidden columns like crdb_region stay hidden, §2.3.2).
func (s *Session) project(res *Result, t *Table, rows []tableRow, cols []string, limit int) (*Result, error) {
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

func (s *Session) execInsert(p *sim.Proc, tx *txn.Txn, ps *Prepared) (*Result, error) {
	st := ps.Stmt.(*Insert)
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	ci, err := s.insertShape(ps, t)
	if err != nil {
		return nil, err
	}
	// The rows, their maps and the writes are statement scratch: the
	// transaction keeps the keys and values it is given, never the slices.
	rows, kvs := s.insertRows[:0], s.kvScratch[:0]
	defer func() {
		for _, r := range rows {
			s.putRowMap(r.vals)
		}
		s.insertRows, s.kvScratch = emptied(rows), emptied(kvs)
	}()
	for _, rowExprs := range st.Rows {
		vals, err := s.insertRowValues(ci, t, db, rowExprs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, uniqueRow{vals: vals})
		if rows[len(rows)-1].region, err = rowRegion(t, vals); err != nil {
			return nil, err
		}
	}
	if st.Upsert {
		if err := upsertable(t); err != nil {
			return nil, err
		}
		for _, r := range rows {
			kvs = s.rowKVs(kvs[:0], t, "", r.vals)
			if err := tx.PutParallel(p, kvs, nil); err != nil {
				return nil, err
			}
		}
		res := ps.result()
		res.RowsAffected = len(rows)
		return res, nil
	}
	// Every unique entry is checked. All rows' index entries go out as one
	// batch: the DistSender splits it by range and the statement pays the
	// max, not the sum, of per-range round trips.
	unique := s.uniqueIdx[:0]
	for _, idx := range t.Indexes {
		if idx.Unique {
			unique = append(unique, idx)
		}
	}
	s.uniqueIdx = unique
	for i := range rows {
		rows[i].indexes = unique
		kvs = s.rowKVs(kvs, t, rows[i].region, rows[i].vals)
	}
	mustNotExist, err := s.checkUnique(p, tx, t, db, rows, kvs, ci.fromDefault)
	if err != nil {
		return nil, err
	}
	if err := tx.PutParallel(p, kvs, mustNotExist); err != nil {
		return nil, uniqueViolation(t, db, err)
	}
	res := ps.result()
	res.RowsAffected = len(rows)
	return res, nil
}

// emptied returns statement scratch for the next statement: empty, and
// cleared so that it holds on to nothing this statement made.
func emptied[T any](scratch []T) []T {
	clear(scratch)
	return scratch[:0]
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
// What it builds is statement scratch, the conditions included (valid until
// the next call), except the probe keys, which the transaction keeps.
func (s *Session) checkUnique(p *sim.Proc, tx *txn.Txn, t *Table, db *core.Database, rows []uniqueRow, kvs []mvcc.KeyValue, fromDefault map[ColumnID]bool) ([]bool, error) {
	// checked holds the rows' own checked entries so far.
	checked, probeKeys, probeRefs := s.checked[:0], s.probeKeys[:0], s.probeRefs[:0]
	defer func() {
		s.checked, s.probeKeys, s.probeRefs = emptied(checked), emptied(probeKeys), emptied(probeRefs)
	}()
	for _, r := range rows {
		for _, idx := range r.indexes {
			tuple := s.checkTuple[:0]
			for _, cid := range idx.Cols {
				tuple = append(tuple, r.vals[cid])
			}
			s.checkTuple = tuple
			s.probeRegions = uniqueProbeRegions(s.probeRegions[:0], t, db, idx, r.region, fromDefault, s.UniquenessChecks)
			for _, pr := range s.probeRegions {
				s.checkKey = appendIndexKey(s.checkKey[:0], t, idx, pr, tuple)
				key := mvcc.Key(s.checkKey)
				switch {
				case containsKey(checked, key):
					return nil, duplicateKey(idx, pr)
				case pr == r.region:
					checked = append(checked, ownKey(kvs, key))
				case !deletes(kvs, key):
					probe := s.keys.Take(len(key))
					copy(probe, key)
					probeKeys = append(probeKeys, probe)
					probeRefs = append(probeRefs, probeRef{idx: idx, region: pr})
				}
			}
		}
	}
	if len(checked) == 0 {
		return nil, nil
	}
	if len(probeKeys) > 0 {
		found := s.values(len(probeKeys))
		if err := tx.GetParallel(p, probeKeys, found); err != nil {
			return nil, err
		}
		for i, v := range found {
			if v != nil {
				return nil, duplicateKey(probeRefs[i].idx, probeRefs[i].region)
			}
		}
	}
	mustNotExist := s.conditions[:0]
	for _, e := range kvs {
		mustNotExist = append(mustNotExist, containsKey(checked, e.Key))
	}
	s.conditions = mustNotExist
	return mustNotExist, nil
}

// probeRef names the unique index and partition of a uniqueness probe.
type probeRef struct {
	idx    *Index
	region simnet.Region
}

// containsKey reports whether keys holds key.
func containsKey(keys []mvcc.Key, key mvcc.Key) bool {
	for _, k := range keys {
		if bytes.Equal(k, key) {
			return true
		}
	}
	return false
}

// ownKey returns kvs' copy of key, or a copy of its own when kvs lacks it.
func ownKey(kvs []mvcc.KeyValue, key mvcc.Key) mvcc.Key {
	for _, e := range kvs {
		if bytes.Equal(e.Key, key) {
			return e.Key
		}
	}
	return slices.Clone(key)
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

// uniqueProbeRegions appends to dst the partitions a unique-index check
// must probe for a row homed in region: the local partition always, plus
// every remote partition unless the check can be elided (paper §4.1): the
// value came from gen_random_uuid() (case 1), or the index's columns fix the
// row's partition (cases 2 and 3, see regionImplied).
func uniqueProbeRegions(dst []simnet.Region, t *Table, db *core.Database, idx *Index, region simnet.Region, fromDefault map[ColumnID]bool, remoteChecks bool) []simnet.Region {
	dst = append(dst, region)
	if !t.IsPartitioned() || !remoteChecks {
		return dst
	}
	// §4.1 (1): generated UUIDs never collide; skip remote checks.
	if len(idx.Cols) == 1 && fromDefault[idx.Cols[0]] || t.regionImplied(idx) {
		return dst
	}
	for _, r := range db.Regions() {
		if r != region {
			dst = append(dst, r)
		}
	}
	return dst
}

// regionImplied reports whether the unique columns of idx fix a row's
// partition, so that per-partition uniqueness implies global uniqueness: the
// region column is one of them (§4.1 (2)), or the region is computed from
// them alone (§4.1 (3)). It is a function of the schema, memoized per index.
func (t *Table) regionImplied(idx *Index) bool {
	for _, e := range t.implied {
		if e.idx == idx.ID {
			return e.implied
		}
	}
	implied := slices.Contains(idx.Cols, t.RegionColumn)
	if regionCol, ok := t.ColumnByID(t.RegionColumn); ok && regionCol.Computed != nil && !implied {
		deps := exprColumnDeps(regionCol.Computed)
		implied = len(deps) > 0
		for _, d := range deps {
			if c, ok := t.Column(d); !ok || !slices.Contains(idx.Cols, c.ID) {
				implied = false
			}
		}
	}
	t.implied = append(t.implied, impliedEntry{idx: idx.ID, implied: implied})
	return implied
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
// The key is carved from the session's keys and the value from its rowVals,
// each once at its exact size.
func (s *Session) indexEntry(t *Table, idx *Index, region simnet.Region, vals map[ColumnID]Datum, withValue bool) mvcc.KeyValue {
	if idx.PinnedRegion != "" && !t.IsPartitioned() {
		region = ""
	}
	var tupleBuf, pkBuf [8]Datum
	tuple := tupleBuf[:0]
	for _, cid := range idx.Cols {
		tuple = append(tuple, vals[cid])
	}
	primary := t.Primary()
	var key mvcc.Key
	if idx.Unique {
		key = encodeIndexKey(&s.keys, t, idx, region, tuple, 0)
	} else {
		pk := pkBuf[:0]
		for _, cid := range primary.Cols {
			pk = append(pk, vals[cid])
		}
		key = EncodeTupleSuffix(encodeIndexKey(&s.keys, t, idx, region, tuple, KeyTupleSize(pk)), pk)
	}
	if !withValue {
		return mvcc.KeyValue{Key: key}
	}
	if covering(t, idx) {
		return mvcc.KeyValue{Key: key, Value: encodeRow(&s.rowVals, vals, nil)}
	}
	var ids [8]ColumnID
	return mvcc.KeyValue{Key: key, Value: encodeRow(&s.rowVals, vals, append(ids[:0], primary.Cols...))}
}

// rowKVs appends the primary-row and index-entry writes for one row to dst.
func (s *Session) rowKVs(dst []mvcc.KeyValue, t *Table, region simnet.Region, vals map[ColumnID]Datum) []mvcc.KeyValue {
	for _, idx := range t.Indexes {
		dst = append(dst, s.indexEntry(t, idx, region, vals, true))
	}
	return dst
}

// deleteKVs appends the tombstone writes removing one row to dst.
func (s *Session) deleteKVs(dst []mvcc.KeyValue, t *Table, region simnet.Region, vals map[ColumnID]Datum) []mvcc.KeyValue {
	for _, idx := range t.Indexes {
		dst = append(dst, s.indexEntry(t, idx, region, vals, false))
	}
	return dst
}

// --- UPDATE ---

func (s *Session) execUpdate(p *sim.Proc, tx *txn.Txn, ps *Prepared) (*Result, error) {
	st := ps.Stmt.(*Update)
	t, db, plan, err := s.planRows(ps, st.Table, st.Where, 0)
	if err != nil {
		return nil, err
	}
	if plan.blind && tx.AllowOnePC && !s.AutoRehoming {
		if res, err := s.updateWhereLive(p, tx, ps, st, db, plan); res != nil || err != nil {
			return res, err
		}
	}
	fetched, rows, err := s.readRows(p, tx, ps, plan, st.Where)
	if err != nil {
		return nil, err
	}
	pkSet := map[ColumnID]bool{}
	for _, cid := range t.Primary().Cols {
		pkSet[cid] = true
	}
	if s.changed == nil {
		s.changed = map[ColumnID]bool{}
	}
	// Each row's new values, writes and checks are statement scratch: the
	// transaction keeps the keys and values it is given, never the slices.
	newVals, changed, kvs := s.getRowMap(), s.changed, s.kvScratch[:0]
	defer func() {
		s.putRowMap(newVals)
		clear(changed)
		s.kvScratch = emptied(kvs)
	}()
	updated := 0
	for _, row := range rows {
		clear(newVals)
		clear(changed)
		for k, v := range row.vals {
			newVals[k] = v
		}
		ctx := s.rowCtx(t, row.vals)
		for _, a := range st.Set {
			c, ok := t.Column(a.Col)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", a.Col)
			}
			if pkSet[c.ID] {
				return nil, fmt.Errorf("sql: updating primary key column %q is not supported", a.Col)
			}
			v, err := s.evalExpr(a.Val, ctx)
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
				gw := s.Region()
				if db.CanWriteRegion(gw) && newVals[t.RegionColumn] != string(gw) {
					newVals[t.RegionColumn] = s.regionDatum(gw)
					changed[t.RegionColumn] = true
				}
			}
		}
		// Recompute computed columns over the new row.
		ctx = s.rowCtx(t, newVals)
		for _, c := range t.Columns {
			if c.Computed != nil {
				v, err := s.evalExpr(c.Computed, ctx)
				if err != nil {
					return nil, err
				}
				if !DatumsEqual(v, newVals[c.ID]) {
					newVals[c.ID] = v
					ctx.row[c.Name] = v
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
		if newRegion != row.region && t.IsPartitioned() {
			// Cross-partition move (rehoming): delete + reinsert.
			kvs = s.rowKVs(s.deleteKVs(kvs[:0], t, row.region, row.vals), t, newRegion, newVals)
		} else {
			kvs = s.updateKVs(kvs[:0], t, row.region, row.vals, newVals, changed)
		}
		// A unique entry is checked only when its key bytes change; the
		// primary key cannot change, so a row moving partitions keeps a
		// primary key no other row holds. Rows are checked one at a time,
		// against the table as the rows before them left it, so a swap of
		// two rows' values fails.
		check := [1]uniqueRow{{vals: newVals, region: newRegion, indexes: s.uniqueIdx[:0]}}
		for _, idx := range t.Indexes {
			if idx.Unique && idx.ID != t.Primary().ID &&
				!bytes.Equal(s.indexEntry(t, idx, row.region, row.vals, false).Key, s.indexEntry(t, idx, newRegion, newVals, false).Key) {
				check[0].indexes = append(check[0].indexes, idx)
			}
		}
		s.uniqueIdx = check[0].indexes
		mustNotExist, err := s.checkUnique(p, tx, t, db, check[:], kvs, nil)
		if err != nil {
			return nil, err
		}
		if err := tx.PutParallel(p, kvs, mustNotExist); err != nil {
			return nil, uniqueViolation(t, db, err)
		}
		updated++
	}
	s.releaseRows(fetched)
	res := ps.result()
	res.RowsAffected = updated
	return res, nil
}

// updateWhereLive runs an UPDATE that needs nothing from its row
// (blindUpdate) as one conditional one-phase write of the row's new value
// (txn.CommitWhereLive), through the phases of a locality-optimized search
// (fetchPoint): the gateway's partition first, then every remote partition at
// once, returning on the first that commits; without LOS, or with the
// partitions pinned, every candidate partition at once. A partition that does
// not hold the row lays nothing there. A nil result means nothing was
// written, because a leaseholder declined or a partition is not writable:
// the statement then reads its row and writes it as any UPDATE does.
func (s *Session) updateWhereLive(p *sim.Proc, tx *txn.Txn, ps *Prepared, st *Update, db *core.Database, plan *readPlan) (*Result, error) {
	t := plan.t
	if len(plan.lookups) != 1 || len(plan.regions) == 0 {
		return nil, nil
	}
	for _, region := range plan.regions {
		if t.IsPartitioned() && !db.CanWriteRegion(region) {
			return nil, nil
		}
	}
	vals, kvs := s.getRowMap(), s.kvScratch[:0]
	defer func() {
		s.putRowMap(vals)
		s.kvScratch = emptied(kvs)
	}()
	for i, cid := range plan.index.Cols {
		vals[cid] = plan.lookups[0][i]
	}
	for _, a := range st.Set {
		c, _ := t.Column(a.Col)
		v, err := s.evalExpr(a.Val, nil)
		if err != nil {
			return nil, err
		}
		vals[c.ID] = v
	}
	first := plan.regions
	if plan.los && len(first) > 1 {
		first = first[:1]
	}
	var missedBuf [1]mvcc.Key
	missed := missedBuf[:0]
	for _, regions := range [2][]simnet.Region{first, plan.regions[len(first):]} {
		if len(regions) == 0 {
			break
		}
		kvs = kvs[:0]
		for _, region := range regions {
			if t.IsPartitioned() {
				vals[t.RegionColumn] = s.regionDatum(region)
			}
			kvs = append(kvs, s.indexEntry(t, plan.index, region, vals, true))
		}
		won, declined, err := tx.CommitWhereLive(p, kvs, missed)
		if err != nil || declined {
			return nil, err
		}
		if won >= 0 {
			res := ps.result()
			res.RowsAffected = 1
			return res, nil
		}
		missed = append(missed, kvs[0].Key)
	}
	return ps.result(), nil
}

// updateKVs appends to dst the writes rewriting a row in place within its
// partition: every entry whose key changed is tombstoned and laid down anew,
// and entries that hold row columns are rewritten.
func (s *Session) updateKVs(dst []mvcc.KeyValue, t *Table, region simnet.Region, oldVals, newVals map[ColumnID]Datum, changed map[ColumnID]bool) []mvcc.KeyValue {
	for _, idx := range t.Indexes {
		keyChanged := false
		for _, cid := range idx.Cols {
			if changed[cid] {
				keyChanged = true
			}
		}
		if keyChanged {
			dst = append(dst, s.indexEntry(t, idx, region, oldVals, false))
		}
		if keyChanged || covering(t, idx) {
			dst = append(dst, s.indexEntry(t, idx, region, newVals, true))
		}
	}
	return dst
}

// --- DELETE ---

func (s *Session) execDelete(p *sim.Proc, tx *txn.Txn, ps *Prepared) (*Result, error) {
	st := ps.Stmt.(*Delete)
	t, _, plan, err := s.planRows(ps, st.Table, st.Where, 0)
	if err != nil {
		return nil, err
	}
	fetched, rows, err := s.readRows(p, tx, ps, plan, st.Where)
	if err != nil {
		return nil, err
	}
	// All rows' tombstones go out as one per-range-batched write.
	kvs := s.kvScratch[:0]
	for _, row := range rows {
		kvs = s.deleteKVs(kvs, t, row.region, row.vals)
	}
	err = tx.PutParallel(p, kvs, nil)
	s.kvScratch = emptied(kvs)
	if err != nil {
		return nil, err
	}
	n := len(rows)
	s.releaseRows(fetched)
	res := ps.result()
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
			rows, err := tx.Scan(p, [][2]mvcc.Key{{start, end}}, 0)
			if err != nil {
				return err
			}
			var kvs []mvcc.KeyValue
			for _, row := range rows[0] {
				vals, err := DecodeRow(row.Value, &s.datums)
				if err != nil {
					return err
				}
				if _, ok := vals[dst.RegionColumn].(string); dst.IsPartitioned() && !ok {
					col, _ := dst.ColumnByID(dst.RegionColumn)
					if vals[dst.RegionColumn], err = s.evalExpr(col.Default, s.rowCtx(dst, vals)); err != nil {
						return err
					}
				}
				region, err := rowRegion(dst, vals)
				if err != nil {
					return err
				}
				for _, idx := range idxs {
					kvs = append(kvs, s.indexEntry(dst, idx, region, vals, true))
				}
			}
			if err := tx.PutParallel(p, kvs, nil); err != nil {
				return err
			}
		}
		return nil
	})
}
