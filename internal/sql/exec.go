package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/core"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// Session executes SQL against a cluster from one gateway node. Sessions
// share the cluster-wide Catalog; each is bound to a gateway whose region
// determines gateway_region() and locality-optimized search order.
type Session struct {
	Cluster *cluster.Cluster
	Catalog *Catalog
	Gateway simnet.NodeID
	Coord   *txn.Coordinator

	// Database is the current database.
	Database string

	// Session settings (SET <name> = on|off).
	LocalityOptimizedSearch bool // enable_locality_optimized_search
	AutoRehoming            bool // enable_auto_rehoming (§2.3.2, off by default)
	UniquenessChecks        bool // enable_uniqueness_checks
	DisableOnePC            bool // disable one-phase commits (ablations)

	// phArgs are the placeholder arguments of the executing statement.
	phArgs []Datum

	// Per-statement scratch reused across executions (the cooperative
	// scheduler runs one statement of this session at a time).
	planScratch   readPlan
	tupleScratch  []Datum
	lookupScratch [][]Datum
	regionScratch []simnet.Region
	colScratch    []*Column
	rowPool       []map[ColumnID]Datum
	// consScratch/consSlab back constraints(); the returned map and its
	// value slices are valid only until the next constraints call.
	consScratch map[string][]Datum
	consSlab    []Datum
	// crRow/crCtx back computedRegionFromConstraints.
	crRow map[string]Datum
	crCtx evalCtx
	// rowNames/rowEval back rowCtx.
	rowNames map[string]Datum
	rowEval  evalCtx
	// valScratch backs values.
	valScratch []mvcc.Value
	// The write path's statement scratch (dml.go): the rows an INSERT
	// writes, the unique indexes it checks, the writes a statement sends
	// and the columns an UPDATE changed. A transaction keeps the keys and
	// values it is given, never these slices.
	insertRows []uniqueRow
	uniqueIdx  []*Index
	kvScratch  []mvcc.KeyValue
	changed    map[ColumnID]bool
	// checkUnique's scratch: an index tuple and its key, the partitions it
	// probes, the entries checked so far, the probes sent and the writes'
	// conditions.
	checkTuple   []Datum
	checkKey     []byte
	probeRegions []simnet.Region
	checked      []mvcc.Key
	probeKeys    []mvcc.Key
	probeRefs    []probeRef
	conditions   []bool
	// regionDatums are the boxed names of regionsBoxed, a database's region
	// list (see mapToRegion).
	regionsBoxed []simnet.Region
	regionDatums []Datum

	// uuids is the "sql/uuid" stream, which gen_random_uuid draws from in
	// every session.
	uuids *rand.Rand
}

// NewSession opens a session at the given gateway node.
func NewSession(c *cluster.Cluster, catalog *Catalog, gateway simnet.NodeID) *Session {
	return &Session{
		Cluster:                 c,
		Catalog:                 catalog,
		Gateway:                 gateway,
		Coord:                   txn.NewCoordinator(c.Stores[gateway], c.Senders[gateway]),
		LocalityOptimizedSearch: true,
		UniquenessChecks:        true,
		uuids:                   c.Sim.Stream("sql/uuid"),
	}
}

// Region returns the gateway's region.
func (s *Session) Region() simnet.Region {
	loc, _ := s.Cluster.Topo.LocalityOf(s.Gateway)
	return loc.Region
}

// Result is the outcome of a statement.
type Result struct {
	Columns      []string
	Rows         [][]Datum
	RowsAffected int
}

// Exec parses and executes one statement. A DML statement runs as a
// one-shot prepared statement (ExecPrepared), which derives its shape and
// drops it; every other statement runs directly, under the same root span.
// A multi-statement transaction is the caller's (RunTxn, ExecTxn).
func (s *Session) Exec(p *sim.Proc, sqlText string) (*Result, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if ps := newPrepared(stmt); ps != nil {
		return s.ExecPrepared(p, ps)
	}
	return s.runStmt(p, stmt, "", func() (*Result, error) { return s.execStmt(p, stmt) })
}

// runStmt runs exec as one statement under the root "sql.exec" span: when
// cluster tracing is enabled, every downstream span — transaction phases,
// DistSender attempts, network RPCs, replica evaluation, Raft replication —
// hangs off it (unless the caller already carries a span, in which case
// execution joins the caller's trace). With a fingerprint, which DML
// against real tables has, the statement folds into the
// statement-statistics registry: virtual-time latency plus the statement's
// delta of the coordinator's restart count and the shared sender's WAN RPC
// count.
func (s *Session) runStmt(p *sim.Proc, stmt Statement, fp string, exec func() (*Result, error)) (*Result, error) {
	sp, done := s.Cluster.Tracer.StartRootIn(p, "sql.exec")
	if sp != nil {
		sp.SetTag("stmt", strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql.")).
			SetTag("gateway_region", string(s.Region()))
	}
	start, retries0, wan0 := p.Now(), s.Coord.Restarts, s.Coord.Sender.WANRPCs
	res, err := exec()
	if err != nil {
		sp.SetError(err)
	}
	done()
	if fp != "" {
		s.Cluster.StmtStats.Record(fp, p.Now().Sub(start),
			s.Coord.Restarts-retries0, s.Coord.Sender.WANRPCs-wan0, err != nil)
	}
	return res, err
}

// isVirtualStmt reports whether a DML statement targets a virtual table.
func isVirtualStmt(stmt Statement) bool {
	switch st := stmt.(type) {
	case *Select:
		return IsVirtualTable(st.Table)
	case *Insert:
		return IsVirtualTable(st.Table)
	case *Update:
		return IsVirtualTable(st.Table)
	case *Delete:
		return IsVirtualTable(st.Table)
	}
	return false
}

func (s *Session) execStmt(p *sim.Proc, stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateDatabase:
		return s.execCreateDatabase(st)
	case *AlterDatabase:
		return s.execAlterDatabase(p, st)
	case *CreateTable:
		return s.execCreateTable(p, st)
	case *CreateIndex:
		return s.execCreateIndex(p, st)
	case *AlterTableLocality:
		return s.execAlterTableLocality(p, st)
	case *SetVar:
		return s.execSetVar(st)
	case *ShowRegions:
		return s.execShowRegions(st)
	case *ShowRanges:
		return s.execShowRanges(st)
	case *DropTable:
		return s.execDropTable(st)
	case *Truncate:
		return s.execTruncate(p, st)
	case *Explain:
		return s.execExplain(st)
	case *ExplainAnalyze:
		return s.execExplainAnalyze(p, st)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
}

// RunTxn executes fn inside a retrying transaction; statements issued via
// ExecTxn within fn share it. Like Exec it roots a trace when tracing
// is enabled and no span is already in flight.
func (s *Session) RunTxn(p *sim.Proc, fn func(tx *txn.Txn) error) error {
	sp, done := s.Cluster.Tracer.StartRootIn(p, "sql.txn")
	sp.SetTag("gateway_region", string(s.Region()))
	err := s.Coord.Run(p, fn)
	if err != nil {
		sp.SetError(err)
	}
	done()
	return err
}

func (s *Session) execDML(p *sim.Proc, ps *Prepared) (*Result, error) {
	if isVirtualStmt(ps.Stmt) {
		sel, ok := ps.Stmt.(*Select)
		if !ok {
			return nil, fmt.Errorf("sql: %s tables are read-only", VirtualSchema)
		}
		// Virtual tables read in-memory cluster state; no transaction.
		return s.execVirtualSelect(sel)
	}
	if sel, ok := ps.Stmt.(*Select); ok && sel.AsOf != nil {
		// Stale reads run outside transactions (§5.3).
		return s.execSelect(p, nil, ps)
	}
	var res *Result
	err := s.Coord.Run(p, func(tx *txn.Txn) error {
		// Auto-commit statements are one-phase-commit eligible: a sole
		// write is buffered and committed in a single consensus round at
		// its leaseholder, so no intent ever blocks other transactions.
		tx.AllowOnePC = !s.DisableOnePC
		var err error
		res, err = s.execDMLInTxn(p, tx, ps)
		return err
	})
	if ins, ok := ps.Stmt.(*Insert); ok && err != nil {
		// A buffered one-row INSERT meets its uniqueness condition at
		// commit, outside execInsert.
		if t, db, terr := s.table(ins.Table); terr == nil {
			err = uniqueViolation(t, db, err)
		}
	}
	return res, err
}

// ExecTxn executes a DML statement inside the given transaction, as a
// one-shot prepared statement (ExecPreparedTxn).
func (s *Session) ExecTxn(p *sim.Proc, tx *txn.Txn, sqlText string) (*Result, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	ps := newPrepared(stmt)
	if ps == nil {
		return nil, fmt.Errorf("sql: %T is not DML", stmt)
	}
	return s.ExecPreparedTxn(p, tx, ps)
}

// execDMLInTxn is the one way a statement runs inside a transaction, whether
// an auto-commit one or the caller's (ExecTxn, ExecPreparedTxn).
func (s *Session) execDMLInTxn(p *sim.Proc, tx *txn.Txn, ps *Prepared) (*Result, error) {
	if sel, ok := ps.Stmt.(*Select); ok && sel.AsOf != nil {
		return nil, fmt.Errorf("sql: AS OF SYSTEM TIME not allowed in a read-write transaction")
	}
	if isVirtualStmt(ps.Stmt) {
		sel, ok := ps.Stmt.(*Select)
		if !ok {
			return nil, fmt.Errorf("sql: %s tables are read-only", VirtualSchema)
		}
		return s.execVirtualSelect(sel)
	}
	switch ps.Stmt.(type) {
	case *Insert:
		return s.execInsert(p, tx, ps)
	case *Select:
		return s.execSelect(p, tx, ps)
	case *Update:
		return s.execUpdate(p, tx, ps)
	case *Delete:
		return s.execDelete(p, tx, ps)
	}
	return nil, fmt.Errorf("sql: %T is not DML", ps.Stmt)
}

func (s *Session) execSetVar(st *SetVar) (*Result, error) {
	on := st.Value == "on" || st.Value == "true" || st.Value == "1"
	switch st.Name {
	case "enable_locality_optimized_search":
		s.LocalityOptimizedSearch = on
	case "enable_auto_rehoming":
		s.AutoRehoming = on
	case "enable_uniqueness_checks":
		s.UniquenessChecks = on
	case "database":
		s.Database = st.Value
	default:
		return nil, fmt.Errorf("sql: unknown setting %q", st.Name)
	}
	return &Result{}, nil
}

func (s *Session) execShowRegions(st *ShowRegions) (*Result, error) {
	res := &Result{Columns: []string{"region", "state"}}
	name := st.Database
	if name == "" {
		// Cluster regions: the union of node regions (§2.1).
		for _, r := range s.Cluster.Topo.Regions() {
			res.Rows = append(res.Rows, []Datum{string(r), "PUBLIC"})
		}
		return res, nil
	}
	db, ok := s.Catalog.Database(name)
	if !ok {
		return nil, fmt.Errorf("sql: database %q does not exist", name)
	}
	for _, r := range db.Regions() {
		state, _ := db.RegionState(r)
		str := "PUBLIC"
		if state == core.RegionReadOnly {
			str = "READ ONLY"
		}
		res.Rows = append(res.Rows, []Datum{string(r), str})
	}
	return res, nil
}

// execDropTable removes a table: its ranges are torn down and the catalog
// entry deleted.
func (s *Session) execDropTable(st *DropTable) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	s.dropRanges(t, t.Indexes, partitionsOf(t, db))
	s.Catalog.DropTable(db.Name, t.Name)
	return &Result{}, nil
}

// execTruncate deletes every row of a table transactionally.
func (s *Session) execTruncate(p *sim.Proc, st *Truncate) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	deleted := 0
	err = s.Coord.Run(p, func(tx *txn.Txn) error {
		deleted = 0
		for _, region := range partitionsOf(t, db) {
			start, end := IndexSpan(t, t.Primary().ID, region)
			rows, err := tx.Scan(p, start, end, 0)
			if err != nil {
				return err
			}
			for _, kvp := range rows {
				vals, err := DecodeRow(kvp.Value)
				if err != nil {
					return err
				}
				if err := tx.PutParallel(p, deleteKVs(nil, t, region, vals), nil); err != nil {
					return err
				}
				deleted++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: deleted}, nil
}

// execShowRanges lists the range descriptors backing a table: one row per
// (index, partition) with lease placement and closed-timestamp policy.
func (s *Session) execShowRanges(st *ShowRanges) (*Result, error) {
	t, db, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"index", "partition", "range_id", "leaseholder", "lease_epoch", "lease_region", "policy", "voters", "non_voters"}}
	err = s.forEachRange(t, t.Indexes, partitionsOf(t, db), false, func(idx *Index, region simnet.Region, desc *kv.RangeDescriptor) error {
		loc, _ := s.Cluster.Topo.LocalityOf(desc.Leaseholder)
		part := string(region)
		if part == "" {
			part = "-"
		}
		res.Rows = append(res.Rows, []Datum{
			idx.Name, part, int64(desc.RangeID), int64(desc.Leaseholder),
			s.leaseEpochOf(desc.Leaseholder, desc.RangeID),
			string(loc.Region), desc.Policy.String(),
			fmt.Sprintf("%v", desc.Voters), fmt.Sprintf("%v", desc.NonVoters),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.RowsAffected = len(res.Rows)
	return res, nil
}

// execExplain renders the read plan: chosen index, candidate partitions,
// and whether locality optimized search applies (§4.2).
func (s *Session) execExplain(st *Explain) (*Result, error) {
	t, db, err := s.table(st.Stmt.Table)
	if err != nil {
		return nil, err
	}
	plan, err := s.planRead(t, db, st.Stmt.Where, st.Stmt.Limit)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"field", "value"}}
	add := func(f, v string) { res.Rows = append(res.Rows, []Datum{f, v}) }
	if plan.lookups != nil {
		add("plan", fmt.Sprintf("point lookup (%d keys)", len(plan.lookups)))
	} else {
		add("plan", "scan")
	}
	add("table", t.Name)
	add("index", plan.index.Name)
	add("locality", t.Locality.String())
	add("partitions", fmt.Sprintf("%v", plan.regions))
	add("region pinned", fmt.Sprintf("%v", plan.regionPinned))
	add("locality optimized search", fmt.Sprintf("%v", plan.los))
	if st.Stmt.AsOf != nil {
		add("as of system time", "stale read (nearest replica)")
	}
	res.RowsAffected = len(res.Rows)
	return res, nil
}

// --- Expression evaluation ---

// evalCtx supplies runtime context for expression evaluation.
type evalCtx struct {
	session *Session
	row     map[string]Datum // current row values by column name
}

func (s *Session) evalExpr(e Expr, ctx *evalCtx) (Datum, error) {
	switch ex := e.(type) {
	case *Lit:
		return ex.Val, nil
	case *Placeholder:
		if ex.Idx < 1 || ex.Idx > len(s.phArgs) {
			return nil, fmt.Errorf("sql: no value for placeholder $%d", ex.Idx)
		}
		return s.phArgs[ex.Idx-1], nil
	case *ColRef:
		if ctx == nil || ctx.row == nil {
			return nil, fmt.Errorf("sql: column %q not available here", ex.Name)
		}
		v, ok := ctx.row[ex.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", ex.Name)
		}
		return v, nil
	case *FuncCall:
		return s.evalFunc(ex, ctx)
	case *BinaryExpr:
		l, err := s.evalExpr(ex.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := s.evalExpr(ex.R, ctx)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "=":
			return DatumsEqual(l, r), nil
		case "+", "-":
			if lf, lok := toFloat(l); lok {
				if rf, rok := toFloat(r); rok {
					// Mixed or float arithmetic yields float; pure int
					// stays int.
					_, li := l.(int64)
					_, ri := r.(int64)
					if li && ri {
						if ex.Op == "+" {
							return l.(int64) + r.(int64), nil
						}
						return l.(int64) - r.(int64), nil
					}
					if ex.Op == "+" {
						return lf + rf, nil
					}
					return lf - rf, nil
				}
			}
			return nil, fmt.Errorf("sql: %s requires numbers", ex.Op)
		}
		return nil, fmt.Errorf("sql: unsupported operator %q", ex.Op)
	case *CaseExpr:
		for _, w := range ex.Whens {
			v, err := s.evalExpr(w.Cond, ctx)
			if err != nil {
				return nil, err
			}
			if b, ok := v.(bool); ok && b {
				return s.evalExpr(w.Then, ctx)
			}
		}
		if ex.Else != nil {
			return s.evalExpr(ex.Else, ctx)
		}
		return nil, nil
	}
	return nil, fmt.Errorf("sql: cannot evaluate %T", e)
}

func toFloat(d Datum) (float64, bool) {
	switch v := d.(type) {
	case int64:
		return float64(v), true
	case int:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

func (s *Session) evalFunc(fc *FuncCall, ctx *evalCtx) (Datum, error) {
	switch fc.Name {
	case "gateway_region":
		// §2.3.2: the region the request originated in.
		return string(s.Region()), nil
	case "gen_random_uuid":
		rng := s.uuids
		return fmt.Sprintf("%08x-%04x-%04x-%04x-%012x",
			rng.Uint32(), rng.Uint32()&0xffff, rng.Uint32()&0xffff,
			rng.Uint32()&0xffff, rng.Int63()&0xffffffffffff), nil
	case "now":
		return int64(s.Coord.Store.Clock.PhysicalNow()), nil
	case "rehome_row":
		return string(s.Region()), nil
	case "region_from_prefix":
		// Extracts the region from a "region/rest" composite key: the
		// application encodes data placement in its primary keys, as
		// TPC-C does with warehouse IDs.
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("sql: region_from_prefix takes one argument")
		}
		v, err := s.evalExpr(fc.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		str, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("sql: region_from_prefix requires a string")
		}
		if i := strings.IndexByte(str, '/'); i >= 0 {
			return str[:i], nil
		}
		return nil, fmt.Errorf("sql: key %q has no region prefix", str)
	case "region_from_city", "region_from_warehouse":
		// Helper used in examples/benchmarks: computed-column functions
		// are modeled by CASE in real schemas; these evaluate their
		// argument via a registered mapping.
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes one argument", fc.Name)
		}
		v, err := s.evalExpr(fc.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return s.mapToRegion(v)
	}
	return nil, fmt.Errorf("sql: unknown function %q", fc.Name)
}

// mapToRegion deterministically maps a value onto the current database's
// regions; the stand-in for user-written CASE mappings in benchmarks.
func (s *Session) mapToRegion(v Datum) (Datum, error) {
	db, ok := s.Catalog.Database(s.Database)
	if !ok {
		return nil, fmt.Errorf("sql: no current database")
	}
	regions := db.Regions()
	if len(regions) == 0 {
		return nil, fmt.Errorf("sql: database has no regions")
	}
	// A region change gives the database a new list, so the memo holds for
	// as long as the list it boxed is the database's.
	if len(s.regionsBoxed) != len(regions) || &s.regionsBoxed[0] != &regions[0] {
		s.regionsBoxed, s.regionDatums = regions, make([]Datum, len(regions))
		for i, r := range regions {
			s.regionDatums[i] = string(r)
		}
	}
	var h uint64
	switch x := v.(type) {
	case int64:
		h = uint64(x)
	case string:
		for i := 0; i < len(x); i++ {
			h = h*131 + uint64(x[i])
		}
	default:
		return nil, fmt.Errorf("sql: cannot map %T to a region", v)
	}
	return s.regionDatums[h%uint64(len(regions))], nil
}

// values returns n cleared value slots of session scratch, for a batch read
// on the statement's proc; valid until the next call. A first-hit probe,
// which may outlive its statement, reads into slots of its own.
func (s *Session) values(n int) []mvcc.Value {
	if cap(s.valScratch) < n {
		s.valScratch = make([]mvcc.Value, n)
	}
	vals := s.valScratch[:n]
	clear(vals)
	return vals
}

// parseDuration parses interval strings like '30s', '-4.8s', '500ms'.
func parseDuration(s string) (sim.Duration, error) {
	return time.ParseDuration(strings.TrimSpace(s))
}

// resolveAsOfTimestamp converts an AS OF SYSTEM TIME argument to a
// timestamp at the gateway clock.
func (s *Session) resolveAsOfTimestamp(e Expr) (hlc.Timestamp, error) {
	v, err := s.evalExpr(e, nil)
	if err != nil {
		return hlc.Timestamp{}, err
	}
	now := s.Coord.Store.Clock.Now()
	switch x := v.(type) {
	case string:
		d, err := parseDuration(x)
		if err != nil {
			return hlc.Timestamp{}, fmt.Errorf("sql: bad AS OF SYSTEM TIME %q", x)
		}
		return now.Add(d), nil
	case int64:
		return hlc.Timestamp{WallTime: x}, nil
	}
	return hlc.Timestamp{}, fmt.Errorf("sql: bad AS OF SYSTEM TIME value %T", v)
}

// --- helpers shared by DDL and DML ---

func (s *Session) database() (*core.Database, error) {
	db, ok := s.Catalog.Database(s.Database)
	if !ok {
		return nil, fmt.Errorf("sql: no current database (SET database = ...)")
	}
	return db, nil
}

func (s *Session) table(name string) (*Table, *core.Database, error) {
	db, err := s.database()
	if err != nil {
		return nil, nil, err
	}
	t, ok := s.Catalog.Table(db.Name, name)
	if !ok {
		return nil, nil, fmt.Errorf("sql: table %q does not exist", name)
	}
	return t, db, nil
}

// partitionsOf returns the key partitions of an index: the database regions
// for REGIONAL BY ROW tables, or the single empty partition otherwise.
func partitionsOf(t *Table, db *core.Database) []simnet.Region {
	if t.IsPartitioned() {
		return db.Regions()
	}
	return []simnet.Region{""}
}
