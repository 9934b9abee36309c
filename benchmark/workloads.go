package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
	"mrdb/internal/workload"
)

// workloadSpec is one benchmark workload: how to generate its inputs, build
// its cluster, prepare it, execute one op, and check the data afterwards.
type workloadSpec struct {
	Name string
	Why  string
	// gen builds the op lists from the seed alone (no cluster exists yet).
	gen func(seed int64) *input
	// config is the cluster configuration (Seed and Tracing are filled in by
	// the harness).
	config func() cluster.Config
	// setup runs DDL, load and session creation, up to the settle sleep.
	setup func(p *sim.Proc, e *env) error
	// exec issues one op on a client's session.
	exec func(p *sim.Proc, e *env, s *session, o *op) error
	// verify checks the workload's data invariants after the window.
	verify func(p *sim.Proc, e *env) error
	// openLoop issues each op at its due time on its own proc.
	openLoop bool
	// crashAt/restartAt, when non-zero, crash e.victim that long after the
	// window opens and restart it later.
	crashAt, restartAt sim.Duration
	// nominalWindow is roughly one window's host time on the box the
	// benchmark was sized on; -seconds / nominalWindow timed repetitions run
	// (at least minReps, which defaults to minTimedReps). The count must not
	// depend on how fast this box is today: repetition i draws its inputs
	// from repSeed(seed, i), so the set of repetitions fixes every
	// virtual-clock number.
	nominalWindow float64
	minReps       int
}

// timedReps is the number of timed repetitions a run of this many seconds
// makes.
func (w *workloadSpec) timedReps(seconds float64) int {
	return max(minTimedReps, w.minReps, int(math.Ceil(seconds/w.nominalWindow)))
}

// session is one SQL session with the statements its workload prepares.
type session struct {
	s *sql.Session
	// YCSB-style workloads.
	read, write *sql.Prepared
	// TPC-C.
	tp *tpccStmts
}

// opResult is the outcome of one op. Start is the issue time in a closed
// loop and the due time in the open loop, so latency counts queueing.
type opResult struct {
	Start, End sim.Time
	OK         bool
}

// env is the state of one repetition.
type env struct {
	spec *workloadSpec
	c    *cluster.Cluster
	cat  *sql.Catalog
	in   *input

	// sessions[i] serves input client i in closed loops; in the open loop
	// it seeds pools[i], which grows on demand.
	sessions []*session
	pools    [][]*session
	// all lists every session ever created, for coordinator counter sums.
	all     []*session
	results [][]opResult
	// stmts counts SQL statements the benchmark issued inside the window.
	stmts int64
	// firstErr keeps the first op error for the report.
	firstErr error

	keys     []sql.Datum // boxed primary keys of the YCSB table
	table    *sql.Table
	victim   simnet.NodeID
	recovery kv.RecoveryStats
	// districts is the number of TPC-C district rows loaded, each with
	// d_next_o_id = 1.
	districts int
}

func (e *env) newSession(r simnet.Region) *session {
	gw := e.c.GatewayFor(r)
	if gw == e.victim {
		// The crash victim serves no client: a dead gateway would measure
		// the client's reconnect policy, not the database's failover.
		for _, n := range e.c.Topo.NodesInRegion(r) {
			if n != e.victim {
				gw = n
				break
			}
		}
	}
	s := &session{s: sql.NewSession(e.c, e.cat, gw)}
	e.all = append(e.all, s)
	return s
}

// --- YCSB-style tables -------------------------------------------------

func ycsbKey(i int) string { return fmt.Sprintf("user%09d", i) }

// setupUsertable creates database ycsb over every cluster region and
// usertable with the given locality, and bulk-loads rows (blocked layout:
// row i is homed in region i / (rows/regions) when the table is
// partitioned).
func setupUsertable(p *sim.Proc, e *env, rows int, locality string) error {
	regions := e.c.Regions()
	admin := sql.NewSession(e.c, e.cat, e.c.GatewayFor(regions[0]))
	create := fmt.Sprintf("CREATE DATABASE ycsb PRIMARY REGION %q", string(regions[0]))
	if len(regions) > 1 {
		quoted := make([]string, 0, len(regions)-1)
		for _, r := range regions[1:] {
			quoted = append(quoted, fmt.Sprintf("%q", string(r)))
		}
		create += " REGIONS " + strings.Join(quoted, ", ")
	}
	if _, err := admin.Exec(p, create); err != nil {
		return err
	}
	admin.Database = "ycsb"
	if _, err := admin.Exec(p, "CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, field0 STRING) LOCALITY "+locality); err != nil {
		return err
	}
	t, ok := e.cat.Table("ycsb", "usertable")
	if !ok {
		return fmt.Errorf("usertable missing after CREATE TABLE")
	}
	e.table = t
	block := rows / len(regions)
	e.keys = make([]sql.Datum, rows)
	ts := hlc.Timestamp{WallTime: 1}
	for i := 0; i < rows; i++ {
		k := ycsbKey(i)
		e.keys[i] = k
		vals := map[string]sql.Datum{"ycsb_key": k, "field0": loadedValue(i)}
		if t.IsPartitioned() {
			vals[sql.RegionColumnName] = string(regions[min(i/block, len(regions)-1)])
		}
		if err := admin.BulkLoadRow(t, vals, ts); err != nil {
			return err
		}
	}
	return nil
}

// openYCSBSession opens a session in region r with the read and update
// statements prepared.
func (e *env) openYCSBSession(r simnet.Region) *session {
	update := "UPSERT INTO usertable (ycsb_key, field0) VALUES ($1, $2)"
	if e.table.IsPartitioned() {
		// REGIONAL BY ROW: an UPDATE finds the row's home partition by
		// locality-optimized search; an UPSERT would re-home the row.
		update = "UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1"
	}
	s := e.newSession(r)
	s.s.Database = "ycsb"
	s.read = s.s.MustPrepare("SELECT field0 FROM usertable WHERE ycsb_key = $1")
	s.write = s.s.MustPrepare(update)
	return s
}

// openYCSBSessions creates the per-client sessions. It runs after the crash
// victim is known so that no gateway is the victim.
func openYCSBSessions(e *env) {
	for _, cl := range e.in.Clients {
		e.sessions = append(e.sessions, e.openYCSBSession(e.c.Regions()[cl.Region]))
	}
	if e.spec.openLoop {
		e.pools = make([][]*session, len(e.in.Clients))
		for i, s := range e.sessions {
			e.pools[i] = []*session{s}
		}
	}
}

func execYCSB(p *sim.Proc, e *env, s *session, o *op) error {
	e.stmts++
	key := e.keys[o.Key]
	if o.Kind == kindRead {
		res, err := s.s.ExecPrepared(p, s.read, key)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("read of row %d returned %d rows", o.Key, len(res.Rows))
		}
		return nil
	}
	_, err := s.s.ExecPrepared(p, s.write, key, valueOf(o.Tag))
	return err
}

// verifyUsertable reads the whole table back and checks, per row, that it
// holds the value of an update that was not strictly followed by another
// acknowledged update of the same row (single-key linearizability of the
// final state) — or the loaded value when no update touched it.
func verifyUsertable(p *sim.Proc, e *env) error {
	s := sql.NewSession(e.c, e.cat, e.sessions[0].s.Gateway)
	s.Database = "ycsb"
	res, err := s.Exec(p, "SELECT ycsb_key, field0 FROM usertable")
	if err != nil {
		return fmt.Errorf("verify scan: %w", err)
	}
	if len(res.Rows) != len(e.keys) {
		return fmt.Errorf("verify: table has %d rows, loaded %d", len(res.Rows), len(e.keys))
	}
	got := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		got[row[0].(string)] = row[1].(string)
	}
	type upd struct {
		tag        uint32
		start, end sim.Time
		acked      bool
	}
	byRow := map[int32][]upd{}
	for ci, cl := range e.in.Clients {
		for i, o := range cl.Ops {
			if o.Kind != kindUpdate {
				continue
			}
			r := e.results[ci][i]
			byRow[o.Key] = append(byRow[o.Key], upd{o.Tag, r.Start, r.End, r.OK})
		}
	}
	for i := range e.keys {
		have := got[ycsbKey(i)]
		ups := byRow[int32(i)]
		var lastStart sim.Time
		anyAcked := false
		for _, u := range ups {
			if u.acked {
				anyAcked = true
				lastStart = max(lastStart, u.start)
			}
		}
		ok := !anyAcked && have == loadedValue(i)
		for _, u := range ups {
			if have != valueOf(u.tag) {
				continue
			}
			// An unacknowledged update may or may not have applied; an
			// acknowledged one may be final only if no acknowledged
			// update started after it ended.
			if !u.acked || u.end >= lastStart {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("verify: row %d holds %q, not the last acknowledged value (%d updates)", i, have, len(ups))
		}
	}
	return nil
}

// --- TPC-C --------------------------------------------------------------

// tpccStmts is the prepared-statement set of the three transactions.
type tpccStmts struct {
	warehouseTax, districtBump, districtNext, customerName *sql.Prepared
	insertOrder, insertNewOrd, itemPrice, stockQty         *sql.Prepared
	stockUpdate, insertLine                                *sql.Prepared
	whPay, distPay, custPay, insertHist                    *sql.Prepared
	custStatus, orderByID, orderLines                      *sql.Prepared
}

func prepareTPCC(s *sql.Session) *tpccStmts {
	const lineNums = "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14"
	return &tpccStmts{
		warehouseTax: s.MustPrepare(`SELECT w_tax FROM warehouse WHERE w_id = $1`),
		districtBump: s.MustPrepare(`UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2`),
		districtNext: s.MustPrepare(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`),
		customerName: s.MustPrepare(`SELECT c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`),
		insertOrder:  s.MustPrepare(`INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES ($1, $2, $3, $4, $5, $6)`),
		insertNewOrd: s.MustPrepare(`INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES ($1, $2, $3)`),
		itemPrice:    s.MustPrepare(`SELECT i_price FROM item WHERE i_id = $1`),
		stockQty:     s.MustPrepare(`SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2`),
		stockUpdate:  s.MustPrepare(`UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`),
		insertLine:   s.MustPrepare(`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`),
		whPay:        s.MustPrepare(`UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2`),
		distPay:      s.MustPrepare(`UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3`),
		custPay:      s.MustPrepare(`UPDATE customer SET c_balance = c_balance - $1, c_ytd_payment = c_ytd_payment + $2, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = $3 AND c_d_id = $4 AND c_id = $5`),
		insertHist:   s.MustPrepare(`INSERT INTO history (h_w_id, h_seq, h_amount) VALUES ($1, $2, $3)`),
		custStatus:   s.MustPrepare(`SELECT c_balance, c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`),
		orderByID:    s.MustPrepare(`SELECT * FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`),
		orderLines:   s.MustPrepare(`SELECT * FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (` + lineNums + `)`),
	}
}

func setupTPCC(p *sim.Proc, e *env) error {
	cfg := workload.DefaultTPCCConfig()
	t := workload.NewTPCC(e.c, e.cat, cfg)
	if err := t.SetupSchema(p); err != nil {
		return err
	}
	p.Sleep(2 * sim.Second)
	if err := t.Load(p); err != nil {
		return err
	}
	e.districts = len(e.c.Regions()) * cfg.WarehousesPerRegion * cfg.DistrictsPerWH
	// Input region i is the i-th region alphabetically, the order
	// region_from_warehouse maps warehouses over.
	regions := append([]simnet.Region(nil), e.c.Regions()...)
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, cl := range e.in.Clients {
		s := e.newSession(regions[cl.Region])
		s.s.Database = "tpcc"
		s.tp = prepareTPCC(s.s)
		e.sessions = append(e.sessions, s)
	}
	return nil
}

func execTPCC(p *sim.Proc, e *env, s *session, o *op) error {
	ps, t := s.tp, o.TPCC
	w, d, c := int64(o.Key), int64(t.District), int64(t.Customer)
	exec := func(tx *txn.Txn, st *sql.Prepared, args ...sql.Datum) (*sql.Result, error) {
		e.stmts++
		return s.s.ExecPreparedTxn(p, tx, st, args...)
	}
	one := func(tx *txn.Txn, st *sql.Prepared, what string, args ...sql.Datum) ([]sql.Datum, error) {
		res, err := exec(tx, st, args...)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) == 0 {
			return nil, fmt.Errorf("tpcc: no row in %s", what)
		}
		return res.Rows[0], nil
	}
	switch o.Kind {
	case kindNewOrder:
		return s.s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := one(tx, ps.warehouseTax, "warehouse", w); err != nil {
				return err
			}
			if _, err := exec(tx, ps.districtBump, w, d); err != nil {
				return err
			}
			drow, err := one(tx, ps.districtNext, "district", w, d)
			if err != nil {
				return err
			}
			oid := drow[0].(int64) - 1
			if _, err := one(tx, ps.customerName, "customer", w, d, c); err != nil {
				return err
			}
			if _, err := exec(tx, ps.insertOrder, w, d, oid, c, int64(0), int64(len(t.Lines))); err != nil {
				return err
			}
			if _, err := exec(tx, ps.insertNewOrd, w, d, oid); err != nil {
				return err
			}
			for n, l := range t.Lines {
				irow, err := one(tx, ps.itemPrice, "item", int64(l.Item))
				if err != nil {
					return err
				}
				srow, err := one(tx, ps.stockQty, "stock", int64(l.StockWH), int64(l.Item))
				if err != nil {
					return err
				}
				qty := srow[0].(int64) - int64(l.Qty)
				if qty < 10 {
					qty += 91
				}
				if _, err := exec(tx, ps.stockUpdate, qty, int64(l.Qty), int64(l.StockWH), int64(l.Item)); err != nil {
					return err
				}
				if _, err := exec(tx, ps.insertLine, w, d, oid, int64(n), int64(l.Item), int64(l.Qty),
					irow[0].(float64)*float64(l.Qty)); err != nil {
					return err
				}
			}
			return nil
		})
	case kindPayment:
		return s.s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := exec(tx, ps.whPay, t.Amount, w); err != nil {
				return err
			}
			if _, err := exec(tx, ps.distPay, t.Amount, w, d); err != nil {
				return err
			}
			if _, err := exec(tx, ps.custPay, t.Amount, t.Amount, w, d, c); err != nil {
				return err
			}
			_, err := exec(tx, ps.insertHist, w, int64(t.HistSeq), t.Amount)
			return err
		})
	default: // kindOrderStatus
		return s.s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := one(tx, ps.custStatus, "customer", w, d, c); err != nil {
				return err
			}
			drow, err := one(tx, ps.districtNext, "district", w, d)
			if err != nil {
				return err
			}
			last := drow[0].(int64) - 1
			if last < 1 {
				return nil // no orders in this district yet
			}
			res, err := exec(tx, ps.orderByID, w, d, last)
			if err != nil || len(res.Rows) == 0 {
				return err
			}
			_, err = exec(tx, ps.orderLines, w, d, last)
			return err
		})
	}
}

// verifyTPCC checks Σ(d_next_o_id − initial) = committed New-Orders = rows
// in orders = rows in new_order.
func verifyTPCC(p *sim.Proc, e *env) error {
	s := sql.NewSession(e.c, e.cat, e.sessions[0].s.Gateway)
	s.Database = "tpcc"
	res, err := s.Exec(p, "SELECT d_next_o_id FROM district")
	if err != nil {
		return fmt.Errorf("verify district scan: %w", err)
	}
	if len(res.Rows) != e.districts {
		return fmt.Errorf("verify: %d district rows, loaded %d", len(res.Rows), e.districts)
	}
	consumed := int64(0)
	for _, row := range res.Rows {
		consumed += row[0].(int64) - 1
	}
	committed, unknown := int64(0), int64(0)
	for ci, cl := range e.in.Clients {
		for i, o := range cl.Ops {
			if o.Kind != kindNewOrder {
				continue
			}
			if e.results[ci][i].OK {
				committed++
			} else {
				unknown++
			}
		}
	}
	count := func(table string) (int64, error) {
		res, err := s.Exec(p, "SELECT * FROM "+table)
		if err != nil {
			return 0, fmt.Errorf("verify %s scan: %w", table, err)
		}
		return int64(len(res.Rows)), nil
	}
	orders, err := count("orders")
	if err != nil {
		return err
	}
	newOrders, err := count("new_order")
	if err != nil {
		return err
	}
	if orders != consumed || newOrders != consumed ||
		consumed < committed || consumed > committed+unknown {
		return fmt.Errorf("verify: order ids consumed=%d orders=%d new_order=%d committed New-Orders=%d (+%d unacknowledged)",
			consumed, orders, newOrders, committed, unknown)
	}
	return nil
}

// --- the four workloads -------------------------------------------------

func baseConfig(regions []cluster.RegionSpec) cluster.Config {
	return cluster.Config{Regions: regions, MaxOffset: 250 * sim.Millisecond, Jitter: 0.02}
}

// Sizes. Each repetition's window is sized to a few seconds of host time on
// two cores while keeping at least 1 000 samples in every latency class.
const (
	rbrRows, rbrClients, rbrOpsPerClient          = 20000, 10, 10000
	globalRows, globalClients, globalOpsPerClient = 2000, 5, 6000
	tpccTxnsPerTerminal                           = 672 // one terminal per region
	failoverRows                                  = 2000
	failoverInterval                              = 50 * sim.Millisecond
	failoverHorizon                               = 40 * sim.Second
	failoverCrashAt, failoverRestartAt            = 10 * sim.Second, 20 * sim.Second
	failoverQuiet                                 = 500 * sim.Millisecond
)

var workloads = []*workloadSpec{
	{
		Name: "ycsb_b_rbr_local",
		Why:  "95/5 point read/update on REGIONAL BY ROW rows, 95% homed in the client's region: ~11 events/op, so sql/txn/kv/mvcc CPU is the host time and an event diet should read flat",
		gen: func(seed int64) *input {
			return genYCSB("ycsb_b_rbr_local", seed, ycsbShape{
				Regions: 5, Rows: rbrRows, Clients: rbrClients, OpsPerCli: rbrOpsPerClient,
				WriteFrac: 0.05, LocalFrac: 0.92,
			})
		},
		config: func() cluster.Config { return baseConfig(cluster.PaperRegions()) },
		setup: func(p *sim.Proc, e *env) error {
			if err := setupUsertable(p, e, rbrRows, "REGIONAL BY ROW"); err != nil {
				return err
			}
			openYCSBSessions(e)
			return nil
		},
		exec:          execYCSB,
		verify:        verifyUsertable,
		nominalWindow: 3.5,
	},
	{
		Name: "ycsb_a_global",
		Why:  "50/50 zipfian read/update on a GLOBAL table: follower reads beside future-time writes that commit-wait; ~130 events/op, mostly raft and closed-timestamp ticks, so sim/simnet/raft carry the host time",
		gen: func(seed int64) *input {
			return genYCSB("ycsb_a_global", seed, ycsbShape{
				Regions: 5, Rows: globalRows, Clients: globalClients, OpsPerCli: globalOpsPerClient,
				WriteFrac: 0.5, Zipf: true,
			})
		},
		config: func() cluster.Config { return baseConfig(cluster.PaperRegions()) },
		setup: func(p *sim.Proc, e *env) error {
			if err := setupUsertable(p, e, globalRows, "GLOBAL"); err != nil {
				return err
			}
			openYCSBSessions(e)
			return nil
		},
		exec:          execYCSB,
		verify:        verifyUsertable,
		nominalWindow: 2.5,
	},
	{
		Name: "tpcc_mix3",
		Why:  "New-Order, Payment, Order-Status (1:1:2) over ~30 ranges in 3 regions: multi-statement transactions with intents, parallel commits, refreshes, d_next_o_id contention; txn and raft traffic both matter",
		gen: func(seed int64) *input {
			cfg := workload.DefaultTPCCConfig()
			return genTPCC("tpcc_mix3", seed, tpccShape{
				Regions: 3, Districts: cfg.DistrictsPerWH,
				Customers: cfg.CustomersPerDist, Items: cfg.Items,
				TxnsPerTerminal: tpccTxnsPerTerminal, RemoteFrac: cfg.RemoteWarehouseFrac,
			})
		},
		config:        func() cluster.Config { return baseConfig(cluster.ThreeRegions()) },
		setup:         setupTPCC,
		exec:          execTPCC,
		verify:        verifyTPCC,
		nominalWindow: 6.5,
	},
	{
		Name: "failover_durable",
		Why:  "open loop (one op per region per 50ms) on a REGIONAL BY TABLE range with durability, load-based allocation, GC and sampling on; the leaseholder crashes at +10s and restarts at +20s",
		gen: func(seed int64) *input {
			return genOpenLoop("failover_durable", seed, openLoopShape{
				Regions: 3, Rows: failoverRows, Interval: failoverInterval, Horizon: failoverHorizon,
				QuietEnd: failoverCrashAt, Quiet: failoverQuiet,
			})
		},
		config: func() cluster.Config {
			cfg := baseConfig(cluster.ThreeRegions())
			cfg.Durability, cfg.LoadBased, cfg.Sampling = true, true, true
			cfg.GCTTL = 10 * sim.Second
			return cfg
		},
		setup: func(p *sim.Proc, e *env) error {
			if err := setupUsertable(p, e, failoverRows, "REGIONAL BY TABLE IN PRIMARY REGION"); err != nil {
				return err
			}
			// Bulk load bypasses the WAL (it models IMPORT); a checkpoint
			// makes it durable, as IMPORT's final flush would.
			for _, id := range e.c.Topo.Nodes() {
				e.c.Stores[id].CheckpointNow()
			}
			start, end := sql.IndexSpan(e.table, e.table.Primary().ID, "")
			descs := e.c.Catalog.LookupSpan(start, end)
			if len(descs) == 0 {
				return fmt.Errorf("usertable has no range")
			}
			e.victim = descs[0].Leaseholder
			openYCSBSessions(e)
			return nil
		},
		exec:      execYCSB,
		verify:    verifyUsertable,
		openLoop:  true,
		crashAt:   failoverCrashAt,
		restartAt: failoverRestartAt,
		// How long the range stays leaderless is drawn by the program
		// (election check phase x liveness expiry: 3.4-4.6s), and p99, the
		// stall and host time all follow it: a median of five draws.
		minReps:       5,
		nominalWindow: 4.5,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
