package sql

import (
	"fmt"
	"slices"

	"mrdb/internal/core"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// DDL execution. Schema changes here are applied synchronously; the
// paper's zero-downtime online schema changes ([60] §5.4) are replaced by
// atomic catalog swaps under the simulator's cooperative scheduler, noted
// in DESIGN.md.

func (s *Session) execCreateDatabase(st *CreateDatabase) (*Result, error) {
	if st.PrimaryRegion == "" {
		return nil, fmt.Errorf("sql: CREATE DATABASE requires PRIMARY REGION in a multi-region cluster")
	}
	primary := simnet.Region(st.PrimaryRegion)
	if err := s.checkClusterRegion(primary); err != nil {
		return nil, err
	}
	var others []simnet.Region
	for _, r := range st.Regions {
		rr := simnet.Region(r)
		if err := s.checkClusterRegion(rr); err != nil {
			return nil, err
		}
		others = append(others, rr)
	}
	db := core.NewDatabase(st.Name, primary, others...)
	if err := s.Catalog.CreateDatabase(db); err != nil {
		return nil, err
	}
	s.Database = st.Name
	return &Result{}, nil
}

func (s *Session) execAlterDatabase(p *sim.Proc, st *AlterDatabase) (*Result, error) {
	db, ok := s.Catalog.Database(st.Name)
	if !ok {
		return nil, fmt.Errorf("sql: database %q does not exist", st.Name)
	}
	switch {
	case st.AddRegion != "":
		return s.execAddRegion(p, db, simnet.Region(st.AddRegion))
	case st.DropRegion != "":
		return s.execDropRegion(p, db, simnet.Region(st.DropRegion))
	case st.Survive != nil:
		if err := db.SetSurvivalGoal(*st.Survive); err != nil {
			return nil, err
		}
		s.Catalog.Bump()
		return &Result{}, s.reconfigureAllTables(p, db)
	case st.Placement != nil:
		if err := db.SetPlacement(*st.Placement); err != nil {
			return nil, err
		}
		s.Catalog.Bump()
		return &Result{}, s.reconfigureAllTables(p, db)
	case st.SetPrimary != "":
		r := simnet.Region(st.SetPrimary)
		if !db.HasRegion(r) {
			if err := db.AddRegion(r); err != nil {
				return nil, err
			}
		}
		db.PrimaryRegion = r
		s.Catalog.Bump()
		return &Result{}, s.reconfigureAllTables(p, db)
	}
	return nil, fmt.Errorf("sql: empty ALTER DATABASE")
}

// checkClusterRegion fails unless region has nodes in this cluster.
func (s *Session) checkClusterRegion(region simnet.Region) error {
	if !slices.Contains(s.Cluster.Topo.Regions(), region) {
		return fmt.Errorf("sql: region %q has no nodes in this cluster", region)
	}
	return nil
}

// execAddRegion implements ALTER DATABASE ... ADD REGION: extend the enum,
// create new partitions for REGIONAL BY ROW tables, and rebalance every
// range so the new region gets its replica (§2.4.1, §3.3).
func (s *Session) execAddRegion(p *sim.Proc, db *core.Database, region simnet.Region) (*Result, error) {
	if err := s.checkClusterRegion(region); err != nil {
		return nil, err
	}
	if err := db.AddRegion(region); err != nil {
		return nil, err
	}
	// Invalidate prepared shapes before the partition builds below can
	// yield: region sets feed their search orders and partition lists.
	s.Catalog.Bump()
	// New partitions for REGIONAL BY ROW tables, one allocator snapshot per
	// table.
	regions := []simnet.Region{region}
	for _, t := range s.Catalog.Tables(db.Name) {
		if t.Locality != core.RegionalByRow {
			continue
		}
		if err := s.createRanges(t, db, t.Indexes, regions, s.Cluster.Allocator()); err != nil {
			return nil, err
		}
		// The new partitions must elect Raft leaders before
		// reconfigureAllTables proposes conf changes through them.
		if err := s.waitRangesReady(p, t, t.Indexes, regions); err != nil {
			return nil, err
		}
	}
	return &Result{}, s.reconfigureAllTables(p, db)
}

// execDropRegion implements ALTER DATABASE ... DROP REGION with READ ONLY
// validation (§2.4.1).
func (s *Session) execDropRegion(p *sim.Proc, db *core.Database, region simnet.Region) (*Result, error) {
	validator := func(r simnet.Region) (bool, error) {
		// Because crdb_region prefixes every partition, validation scans
		// only the dropped region's partitions (paper footnote 2).
		for _, t := range s.Catalog.Tables(db.Name) {
			if t.Locality != core.RegionalByRow {
				continue
			}
			start, end := IndexSpan(t, t.Primary().ID, r)
			var rows int
			err := s.Coord.Run(p, func(tx *txn.Txn) error {
				kvs, err := tx.Scan(p, [][2]mvcc.Key{{start, end}}, 1)
				if err != nil {
					return err
				}
				rows = len(kvs[0])
				return nil
			})
			if err != nil {
				return false, err
			}
			if rows > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	if err := db.DropRegion(region, validator); err != nil {
		return nil, err
	}
	// The region set changed (and transitioned through READ ONLY during
	// validation); no prepared shape may keep probing the dropped partition.
	s.Catalog.Bump()
	// Remove the dropped region's partitions.
	for _, t := range s.Catalog.Tables(db.Name) {
		if t.Locality == core.RegionalByRow {
			s.dropRanges(t, t.Indexes, []simnet.Region{region})
		}
	}
	return &Result{}, s.reconfigureAllTables(p, db)
}

// reconfigureAllTables recomputes zone configs for every range of the
// database and relocates replicas accordingly (survivability, placement or
// region-set changes). One allocator snapshot places every range.
func (s *Session) reconfigureAllTables(p *sim.Proc, db *core.Database) error {
	// Zone-config changes invalidate prepared shapes too (defensive:
	// shapes derive from the catalog, but placement moves change which
	// gateway-first orders are profitable and this path is never hot).
	s.Catalog.Bump()
	alloc := s.Cluster.Allocator()
	for _, t := range s.Catalog.Tables(db.Name) {
		if err := s.reconfigureTable(p, db, t, alloc); err != nil {
			return err
		}
	}
	return nil
}

// reconfigureTable relocates every range of t to the placement
// spanPlacement derives for it, from the allocator snapshot alloc.
func (s *Session) reconfigureTable(p *sim.Proc, db *core.Database, t *Table, alloc *zones.Allocator) error {
	return s.forEachRange(t, t.Indexes, partitionsOf(t, db), true, func(idx *Index, region simnet.Region, desc *kv.RangeDescriptor) error {
		cfg, policy, err := spanPlacement(db, t, idx, region)
		if err != nil {
			return err
		}
		placement, err := alloc.Allocate(cfg)
		if err != nil {
			return err
		}
		return s.Cluster.Admin.Relocate(p, desc.RangeID, placement, policy, &cfg)
	})
}

// --- Span placement (§3.3) ---

// spanPlacement is the one derivation of where a table's span lives: the
// zone config and closed-timestamp policy of index idx's span in partition
// region ("" unless the table is REGIONAL BY ROW). A GLOBAL table is homed
// in the primary region, ignores PLACEMENT RESTRICTED and leads closed
// timestamps (§3.3.1, §6.2.1). Every other span lags and is homed in the
// region its index is pinned to by the duplicate-indexes baseline (§7.3.1),
// else its partition's region, else the table's home region, else the
// primary region.
func spanPlacement(db *core.Database, t *Table, idx *Index, region simnet.Region) (zones.Config, kv.ClosedTSPolicy, error) {
	home, global, policy := t.HomeRegion, false, kv.ClosedTSLag
	switch {
	case t.Locality == core.Global:
		home, global, policy = db.PrimaryRegion, true, kv.ClosedTSLead
	case idx.PinnedRegion != "":
		home = idx.PinnedRegion
	case region != "":
		home = region
	case home == "":
		home = db.PrimaryRegion
	}
	cfg, err := db.ZoneConfigForHome(home, global)
	return cfg, policy, err
}

// createIndexRanges creates the ranges backing one index of a table, placed
// from one allocator snapshot.
func (s *Session) createIndexRanges(t *Table, db *core.Database, idx *Index) error {
	return s.createRanges(t, db, []*Index{idx}, partitionsOf(t, db), s.Cluster.Allocator())
}

// createRanges creates the range of every (index, partition) span, index by
// index, each placed by spanPlacement from the allocator snapshot alloc.
func (s *Session) createRanges(t *Table, db *core.Database, idxs []*Index, regions []simnet.Region, alloc *zones.Allocator) error {
	for _, idx := range idxs {
		for _, region := range regions {
			cfg, policy, err := spanPlacement(db, t, idx, region)
			if err != nil {
				return err
			}
			placement, err := alloc.Allocate(cfg)
			if err != nil {
				return err
			}
			start, end := IndexSpan(t, idx.ID, region)
			if _, err := s.Cluster.Admin.CreateRange(start, end, placement, policy, &cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEachRange calls fn with the descriptor of every (index, partition)
// span, index by index. A span without a descriptor fails the walk when
// strict is set and is skipped otherwise.
func (s *Session) forEachRange(t *Table, idxs []*Index, regions []simnet.Region, strict bool, fn func(idx *Index, region simnet.Region, desc *kv.RangeDescriptor) error) error {
	for _, idx := range idxs {
		for _, region := range regions {
			start, _ := IndexSpan(t, idx.ID, region)
			desc, err := s.Cluster.Catalog.Lookup(start)
			if err != nil {
				if strict {
					return err
				}
				continue
			}
			if err := fn(idx, region, desc); err != nil {
				return err
			}
		}
	}
	return nil
}

// waitRangesReady blocks until the range of every (index, partition) span
// serves.
func (s *Session) waitRangesReady(p *sim.Proc, t *Table, idxs []*Index, regions []simnet.Region) error {
	return s.forEachRange(t, idxs, regions, true, func(_ *Index, _ simnet.Region, desc *kv.RangeDescriptor) error {
		return s.Cluster.Admin.WaitReady(p, desc.RangeID)
	})
}

// dropRanges tears down the range of every (index, partition) span that has
// one.
func (s *Session) dropRanges(t *Table, idxs []*Index, regions []simnet.Region) {
	// The walk skips missing spans and removal cannot fail, so it returns nil.
	_ = s.forEachRange(t, idxs, regions, false, func(_ *Index, _ simnet.Region, desc *kv.RangeDescriptor) error {
		for _, id := range desc.Replicas() {
			s.Cluster.Stores[id].RemoveReplica(desc.RangeID)
		}
		s.Cluster.Catalog.Remove(desc.RangeID)
		return nil
	})
}

func typeFromName(name string) (ColType, error) {
	switch name {
	case "string", "text", "varchar":
		return TString, nil
	case "int", "int8", "bigint", "integer":
		return TInt, nil
	case "float", "float8", "double":
		return TFloat, nil
	case "bool", "boolean":
		return TBool, nil
	case "uuid":
		return TUUID, nil
	case "timestamp", "timestamptz":
		return TTimestamp, nil
	case "crdb_internal_region":
		return TRegion, nil
	}
	return 0, fmt.Errorf("sql: unknown type %q", name)
}

func (s *Session) execCreateTable(p *sim.Proc, st *CreateTable) (*Result, error) {
	db, err := s.database()
	if err != nil {
		return nil, err
	}
	t := &Table{Name: st.Name, DB: db.Name, Locality: core.RegionalByTable}
	if st.Locality != nil {
		t.Locality = st.Locality.Kind
		if st.Locality.Region != "" {
			t.HomeRegion = simnet.Region(st.Locality.Region)
			if !db.HasRegion(t.HomeRegion) {
				return nil, fmt.Errorf("sql: region %q not in database %q", t.HomeRegion, db.Name)
			}
		}
	}
	t.DuplicateIndexes = st.DuplicateIndexes
	if t.DuplicateIndexes && t.Locality != core.RegionalByTable {
		return nil, fmt.Errorf("sql: WITH DUPLICATE INDEXES applies to REGIONAL BY TABLE tables")
	}

	var pkCols []string
	var uniqueCols [][]string
	for _, cd := range st.Columns {
		typ, err := typeFromName(cd.Type)
		if err != nil {
			return nil, err
		}
		col := &Column{
			Name: cd.Name, Type: typ, NotNull: cd.NotNull || cd.PrimaryKey,
			Hidden: cd.NotVisible, Default: cd.Default, Computed: cd.Computed,
			OnUpdateRehome: cd.OnUpdateRehome,
		}
		t.AddColumn(col)
		if cd.PrimaryKey {
			pkCols = append(pkCols, cd.Name)
		}
		if cd.Unique {
			uniqueCols = append(uniqueCols, []string{cd.Name})
		}
	}
	if len(st.PrimaryKey) > 0 {
		if len(pkCols) > 0 {
			return nil, fmt.Errorf("sql: duplicate PRIMARY KEY specification")
		}
		pkCols = st.PrimaryKey
	}
	if len(pkCols) == 0 {
		return nil, fmt.Errorf("sql: table %q requires a primary key", st.Name)
	}
	uniqueCols = append(uniqueCols, st.Uniques...)

	// REGIONAL BY ROW: ensure the partitioning column exists (§2.3.2);
	// users may declare crdb_region themselves (computed partitioning).
	if t.Locality == core.RegionalByRow {
		if col, ok := t.Column(RegionColumnName); ok {
			if col.Type != TRegion {
				return nil, fmt.Errorf("sql: %s must have type crdb_internal_region", RegionColumnName)
			}
			t.RegionColumn = col.ID
		} else {
			col := t.AddColumn(&Column{
				Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
				Default: &FuncCall{Name: "gateway_region"},
			})
			t.RegionColumn = col.ID
		}
	}

	resolveCols := func(names []string) ([]ColumnID, error) {
		var ids []ColumnID
		for _, n := range names {
			c, ok := t.Column(n)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", n)
			}
			ids = append(ids, c.ID)
		}
		return ids, nil
	}

	pkIDs, err := resolveCols(pkCols)
	if err != nil {
		return nil, err
	}
	t.AddIndex(&Index{Name: "primary", Unique: true, Cols: pkIDs})
	for _, uc := range uniqueCols {
		ids, err := resolveCols(uc)
		if err != nil {
			return nil, err
		}
		t.AddIndex(&Index{Name: fmt.Sprintf("%s_%s_key", t.Name, uc[0]), Unique: true, Cols: ids})
	}
	// Duplicate-indexes baseline (§7.3.1): one covering index per
	// non-primary region, leaseholder pinned there; the primary index
	// serves the primary region.
	if t.DuplicateIndexes {
		var allCols []ColumnID
		for _, c := range t.Columns {
			allCols = append(allCols, c.ID)
		}
		t.Indexes[0].PinnedRegion = db.PrimaryRegion
		for _, r := range db.Regions() {
			if r == db.PrimaryRegion {
				continue
			}
			t.AddIndex(&Index{
				Name: fmt.Sprintf("%s_dup_%s", t.Name, r), Unique: true,
				Cols: pkIDs, Storing: allCols, PinnedRegion: r,
			})
		}
	}

	if err := s.Catalog.CreateTable(t); err != nil {
		return nil, err
	}
	for _, idx := range t.Indexes {
		if err := s.createIndexRanges(t, db, idx); err != nil {
			return nil, err
		}
	}
	if p != nil {
		if err := s.waitRangesReady(p, t, t.Indexes, partitionsOf(t, db)); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (s *Session) execCreateIndex(p *sim.Proc, st *CreateIndex) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	var ids []ColumnID
	for _, n := range st.Cols {
		c, ok := t.Column(n)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", n)
		}
		ids = append(ids, c.ID)
	}
	next := t.clone()
	idx := next.AddIndex(&Index{Name: st.Name, Unique: st.Unique, Cols: ids})
	return s.swapIndexes(p, t, next, db, []*Index{idx}, nil)
}

// execAlterTableLocality implements ALTER TABLE ... SET LOCALITY. Changing
// to or from REGIONAL BY ROW rebuilds every index under a new index ID with
// the partitioning prefix added or removed, then swaps (§2.4.2); other
// changes only move replicas. Either way the table changes in one step,
// after everything that can fail: a failed ALTER leaves it as it was.
func (s *Session) execAlterTableLocality(p *sim.Proc, st *AlterTableLocality) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	newLoc := st.Locality.Kind
	newHome := simnet.Region(st.Locality.Region)
	if newHome != "" && !db.HasRegion(newHome) {
		return nil, fmt.Errorf("sql: region %q not in database %q", newHome, db.Name)
	}
	if t.DuplicateIndexes {
		return nil, fmt.Errorf("sql: cannot change locality of a duplicate-indexes table")
	}
	next := t.clone()
	next.Locality, next.HomeRegion = newLoc, newHome
	if t.IsPartitioned() == next.IsPartitioned() {
		// Metadata + zone-config change only (§2.4.2).
		if err := s.reconfigureTable(p, db, next, s.Cluster.Allocator()); err != nil {
			return nil, err
		}
		*t = *next
		s.Catalog.Bump()
		return &Result{}, nil
	}
	// Index swap: a new index set with or without the region prefix, and
	// the partitioning column when converting to REGIONAL BY ROW.
	if next.IsPartitioned() && next.RegionColumn == 0 {
		col := next.AddColumn(&Column{
			Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
			Default: &FuncCall{Name: "gateway_region"},
		})
		next.RegionColumn = col.ID
	}
	next.Indexes = nil
	for _, old := range t.Indexes {
		next.AddIndex(&Index{Name: old.Name, Unique: old.Unique, Cols: old.Cols, Storing: old.Storing})
	}
	return s.swapIndexes(p, t, next, db, next.Indexes, t.Indexes)
}

// swapIndexes turns t into next, a clone of t that adds the indexes built
// and lacks the indexes dropped. It creates the ranges of built under next's
// partitioning, waits for them to serve and backfills them from t's primary
// index; then t becomes next in one step with one catalog bump, and the
// ranges of dropped go. If anything before the step fails, the new ranges
// go instead and t is unchanged.
func (s *Session) swapIndexes(p *sim.Proc, t, next *Table, db *core.Database, built, dropped []*Index) (*Result, error) {
	regions := partitionsOf(next, db)
	err := s.createRanges(next, db, built, regions, s.Cluster.Allocator())
	if err == nil {
		err = s.waitRangesReady(p, next, built, regions)
	}
	if err == nil {
		err = s.backfill(p, db, t, next, built)
	}
	if err != nil {
		s.dropRanges(next, built, regions)
		return nil, err
	}
	oldRegions := partitionsOf(t, db)
	*t = *next
	s.Catalog.Bump()
	s.dropRanges(t, dropped, oldRegions)
	return &Result{}, nil
}
