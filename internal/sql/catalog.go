package sql

import (
	"fmt"
	"slices"
	"sort"

	"mrdb/internal/core"
	"mrdb/internal/mvcc"
	"mrdb/internal/simnet"
)

// TableID identifies a table.
type TableID uint32

// IndexID identifies an index within a table; the primary index is 1.
type IndexID uint32

// ColumnID identifies a column within a table.
type ColumnID uint32

// PrimaryIndexID is the ID of every table's primary index.
const PrimaryIndexID IndexID = 1

// ColType is a SQL column type.
type ColType int8

// Column types.
const (
	TString ColType = iota
	TInt
	TFloat
	TBool
	TUUID
	TTimestamp
	// TRegion is the crdb_internal_region enum (paper §2.1); its values
	// are constrained to the database's regions.
	TRegion
)

func (t ColType) String() string {
	switch t {
	case TString:
		return "STRING"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TBool:
		return "BOOL"
	case TUUID:
		return "UUID"
	case TTimestamp:
		return "TIMESTAMP"
	case TRegion:
		return "crdb_internal_region"
	}
	return "UNKNOWN"
}

// Column is a table column.
type Column struct {
	ID      ColumnID
	Name    string
	Type    ColType
	NotNull bool
	// Hidden columns are omitted from SELECT * (the auto crdb_region
	// column, paper §2.3.2).
	Hidden bool
	// Default, if non-nil, computes the value on INSERT when omitted.
	Default Expr
	// Computed, if non-nil, always derives the value from other columns
	// (computed partitioning, §2.3.2).
	Computed Expr
	// OnUpdateRehome re-computes the column to the gateway region on
	// UPDATE (automatic rehoming, §2.3.2).
	OnUpdateRehome bool

	// computedDeps memoizes exprColumnDeps(Computed); computedDepsOf is the
	// expression it was derived from, so replacing Computed (ALTER ...
	// LOCALITY rebuilds) invalidates the memo.
	computedDeps   []string
	computedDepsOf Expr
}

// Index is a primary or secondary index.
type Index struct {
	ID     IndexID
	Name   string
	Unique bool
	// Cols are the indexed columns, in order. For REGIONAL BY ROW tables
	// every index is implicitly prefixed by crdb_region at the key level
	// (partitioning), without crdb_region appearing here.
	Cols []ColumnID
	// Storing lists extra columns stored in the index value (duplicate
	// indexes store the whole row).
	Storing []ColumnID
	// PinnedRegion, for the duplicate-indexes baseline, is the region
	// whose reads this index copy serves.
	PinnedRegion simnet.Region
}

// Table is a table descriptor.
type Table struct {
	ID      TableID
	Name    string
	DB      string
	Columns []*Column
	// Primary is Indexes[0]; PK column set.
	Indexes  []*Index
	Locality core.TableLocality
	// HomeRegion applies to REGIONAL BY TABLE.
	HomeRegion simnet.Region
	// RegionColumn is the partitioning column for REGIONAL BY ROW
	// (default: the hidden crdb_region column).
	RegionColumn ColumnID
	// DuplicateIndexes marks the legacy baseline topology (§7.3.1): a
	// pinned index copy per region.
	DuplicateIndexes bool

	nextColID ColumnID
	nextIdxID IndexID

	// prefixes memoizes IndexPrefix, a pure function of (table ID, index
	// ID, region), so key construction skips its per-key formatting. The
	// entry count is bounded by indexes × regions, so a linear scan beats a
	// map. Entries are appended lazily; the cooperative scheduler
	// serializes sessions, so no locking is needed (same argument as
	// StmtStats).
	prefixes []prefixEntry
	// implied memoizes regionImplied per unique index, the same way.
	implied []impliedEntry
}

// impliedEntry memoizes whether one index's columns fix a row's partition.
type impliedEntry struct {
	idx     IndexID
	implied bool
}

// prefixEntry memoizes one index partition's key prefix.
type prefixEntry struct {
	idx    IndexID
	region simnet.Region
	key    mvcc.Key
}

// Column returns the column with the given name.
func (t *Table) Column(name string) (*Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// ColumnByID returns the column with the given ID.
func (t *Table) ColumnByID(id ColumnID) (*Column, bool) {
	for _, c := range t.Columns {
		if c.ID == id {
			return c, true
		}
	}
	return nil, false
}

// Primary returns the primary index.
func (t *Table) Primary() *Index { return t.Indexes[0] }

// AddColumn appends a column, assigning its ID.
func (t *Table) AddColumn(c *Column) *Column {
	t.nextColID++
	c.ID = t.nextColID
	t.Columns = append(t.Columns, c)
	return c
}

// AddIndex appends an index, assigning its ID.
func (t *Table) AddIndex(idx *Index) *Index {
	t.nextIdxID++
	idx.ID = t.nextIdxID
	t.Indexes = append(t.Indexes, idx)
	return idx
}

// clone returns a copy of t with column and index lists of its own, so a
// schema change can build the table it leaves behind without touching t.
// The copy starts fresh memos.
func (t *Table) clone() *Table {
	c := *t
	c.Columns = slices.Clone(t.Columns)
	c.Indexes = slices.Clone(t.Indexes)
	c.prefixes, c.implied = nil, nil
	return &c
}

// AppendVisibleColumns appends the non-hidden columns, in declaration order,
// to out.
func (t *Table) AppendVisibleColumns(out []*Column) []*Column {
	for _, c := range t.Columns {
		if !c.Hidden {
			out = append(out, c)
		}
	}
	return out
}

// IsPartitioned reports whether the table's indexes carry a region prefix.
func (t *Table) IsPartitioned() bool { return t.Locality == core.RegionalByRow }

// RegionColumnName is the hidden partitioning column's conventional name.
const RegionColumnName = "crdb_region"

// Catalog is the cluster-wide schema: databases and tables. It is shared
// by all sessions (schema changes in mrdb are applied synchronously; the
// paper's online schema-change machinery is out of scope and noted in
// DESIGN.md).
type Catalog struct {
	Databases map[string]*core.Database
	tables    map[string]*Table // key: db.table
	nextTable TableID

	// version counts schema and zone-config changes. A prepared statement
	// records the version its shape was derived under and derives a new one
	// once it moves, so DDL, ALTER ... LOCALITY and ADD/DROP REGION can
	// never be served a stale shape. Every mutation site bumps before its
	// next yield point, which under the cooperative scheduler makes
	// invalidation atomic with the catalog change.
	version uint64
	// shapeHits and shapeMisses count statement executions that reused
	// their shape and that derived one (PlanCacheStats).
	shapeHits, shapeMisses uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		Databases: map[string]*core.Database{},
		tables:    map[string]*Table{},
	}
}

// Bump invalidates every prepared statement's shape; called by every DDL or
// zone-config mutation.
func (c *Catalog) Bump() { c.version++ }

// CreateDatabase registers a database.
func (c *Catalog) CreateDatabase(db *core.Database) error {
	if _, ok := c.Databases[db.Name]; ok {
		return fmt.Errorf("sql: database %q already exists", db.Name)
	}
	c.Databases[db.Name] = db
	c.Bump()
	return nil
}

// Database returns a database by name.
func (c *Catalog) Database(name string) (*core.Database, bool) {
	db, ok := c.Databases[name]
	return db, ok
}

// CreateTable registers a table, assigning its ID.
func (c *Catalog) CreateTable(t *Table) error {
	key := t.DB + "." + t.Name
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("sql: table %q already exists", key)
	}
	c.nextTable++
	t.ID = c.nextTable
	c.tables[key] = t
	c.Bump()
	return nil
}

// Table resolves db.table.
func (c *Catalog) Table(db, name string) (*Table, bool) {
	t, ok := c.tables[db+"."+name]
	return t, ok
}

// Tables returns all tables of a database, sorted by name.
func (c *Catalog) Tables(db string) []*Table {
	var out []*Table
	for _, t := range c.tables {
		if t.DB == db {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropTable removes a table from the catalog.
func (c *Catalog) DropTable(db, name string) {
	delete(c.tables, db+"."+name)
	c.Bump()
}

// --- Key construction ---

// IndexPrefix returns the key prefix of one index (unpartitioned) or one
// index partition (REGIONAL BY ROW): /t<id>/i<idx>[/region].
func IndexPrefix(t *Table, idx IndexID, region simnet.Region) mvcc.Key {
	key := []byte(fmt.Sprintf("/t%06d/i%03d/", t.ID, idx))
	if region != "" {
		key = EncodeKeyDatum(key, string(region))
	}
	return key
}

// IndexSpan returns [start, end) covering an index partition.
func IndexSpan(t *Table, idx IndexID, region simnet.Region) (mvcc.Key, mvcc.Key) {
	start := IndexPrefix(t, idx, region)
	return start, PrefixEnd(start)
}

// PrefixEnd returns the key immediately after all keys with the given
// prefix.
func PrefixEnd(prefix mvcc.Key) mvcc.Key {
	end := append(mvcc.Key(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // prefix is all 0xFF: no end
}

// EncodeIndexKey builds the full key for an index entry: prefix + encoded
// index column values (callers append PK columns for non-unique secondary
// indexes). The prefix comes from the table's memo, so a key costs one
// exact-capacity allocation.
func EncodeIndexKey(t *Table, idx *Index, region simnet.Region, vals []Datum) mvcc.Key {
	return encodeIndexKey(t, idx, region, vals, 0)
}

// encodeIndexKey is EncodeIndexKey with room for extra more bytes, the
// primary-key suffix of a non-unique index's key.
func encodeIndexKey(t *Table, idx *Index, region simnet.Region, vals []Datum, extra int) mvcc.Key {
	prefix := t.indexPrefix(idx, region)
	key := append(make(mvcc.Key, 0, len(prefix)+KeyTupleSize(vals)+extra), prefix...)
	return AppendKeyTuple(key, vals)
}

// appendIndexKey appends the key of idx's entry for vals in region's
// partition to buf.
func appendIndexKey(buf []byte, t *Table, idx *Index, region simnet.Region, vals []Datum) mvcc.Key {
	return AppendKeyTuple(append(buf, t.indexPrefix(idx, region)...), vals)
}

// indexPrefix returns IndexPrefix(t, idx.ID, region) from the table's memo.
func (t *Table) indexPrefix(idx *Index, region simnet.Region) mvcc.Key {
	var prefix mvcc.Key
	for i := range t.prefixes {
		e := &t.prefixes[i]
		if e.idx == idx.ID && e.region == region {
			prefix = e.key
			break
		}
	}
	if prefix == nil {
		prefix = IndexPrefix(t, idx.ID, region)
		t.prefixes = append(t.prefixes, prefixEntry{idx: idx.ID, region: region, key: prefix})
	}
	return prefix
}

// EncodeTupleSuffix appends datums to key without an index prefix; used to
// append primary-key columns to non-unique secondary index keys.
func EncodeTupleSuffix(key mvcc.Key, vals []Datum) mvcc.Key {
	return AppendKeyTuple(key, vals)
}
