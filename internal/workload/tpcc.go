package workload

import (
	"fmt"
	"sort"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
)

// TPCCConfig parameterizes the TPC-C reproduction (§7.4). The schema
// follows the paper's multi-region adaptation: the item table is GLOBAL
// (never updated after import) and the other eight tables are REGIONAL BY
// ROW with the region computed from the warehouse ID, so all transactions
// touching one warehouse stay in its region.
//
// Data sizes are scaled down from spec (documented in DESIGN.md): the
// figures of interest are throughput *scaling* and latency locality, which
// depend on region counts and key distribution, not on raw cardinality.
type TPCCConfig struct {
	WarehousesPerRegion int
	DistrictsPerWH      int
	CustomersPerDist    int
	Items               int // every warehouse stocks every item
	TerminalsPerRegion  int
	TxnsPerTerminal     int
	// RunFor, when set, runs each terminal in a closed loop until the
	// deadline instead of a fixed transaction count; throughput is then
	// free of straggler skew.
	RunFor sim.Duration
	// RemoteWarehouseFrac is the fraction of new-order transactions that
	// touch a remote warehouse (spec: ~10%).
	RemoteWarehouseFrac float64
}

// DefaultTPCCConfig returns a laptop-scale configuration.
func DefaultTPCCConfig() TPCCConfig {
	return TPCCConfig{
		WarehousesPerRegion: 2,
		DistrictsPerWH:      10, // spec value; fewer districts convoy on d_next_o_id
		CustomersPerDist:    10,
		Items:               500,
		TerminalsPerRegion:  3,
		TxnsPerTerminal:     20,
		RemoteWarehouseFrac: 0.10,
	}
}

// TPCC drives the workload.
type TPCC struct {
	Cfg     TPCCConfig
	Cluster *cluster.Cluster
	Catalog *sql.Catalog

	// Latency recorders per transaction type, plus per-region new-order
	// recorders for the p50/p90 locality claim.
	NewOrderLat    *LatencyRecorder
	PaymentLat     *LatencyRecorder
	OrderStatusLat *LatencyRecorder
	DeliveryLat    *LatencyRecorder
	StockLevelLat  *LatencyRecorder
	PerRegionNO    map[simnet.Region]*LatencyRecorder

	// NewOrders counts committed new-order transactions (the tpmC
	// numerator).
	NewOrders int64
	// Elapsed is the measurement duration in virtual time.
	Elapsed sim.Duration

	regions []simnet.Region
	histSeq int
}

// NewTPCC builds the workload over a cluster.
func NewTPCC(c *cluster.Cluster, catalog *sql.Catalog, cfg TPCCConfig) *TPCC {
	t := &TPCC{
		Cfg: cfg, Cluster: c, Catalog: catalog,
		NewOrderLat:    NewLatencyRecorder("new-order"),
		PaymentLat:     NewLatencyRecorder("payment"),
		OrderStatusLat: NewLatencyRecorder("order-status"),
		DeliveryLat:    NewLatencyRecorder("delivery"),
		StockLevelLat:  NewLatencyRecorder("stock-level"),
		PerRegionNO:    map[simnet.Region]*LatencyRecorder{},
		regions:        sortedRegions(c.Regions()),
	}
	for _, r := range t.regions {
		t.PerRegionNO[r] = NewLatencyRecorder(fmt.Sprintf("new-order/%s", r))
	}
	return t
}

// sortedRegions orders regions alphabetically to match the database's
// region enum, which region_from_warehouse maps over.
func sortedRegions(in []simnet.Region) []simnet.Region {
	out := append([]simnet.Region(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// totalWarehouses returns the cluster-wide warehouse count.
func (t *TPCC) totalWarehouses() int {
	return t.Cfg.WarehousesPerRegion * len(t.regions)
}

// SetupSchema creates the TPC-C database and its nine tables.
func (t *TPCC) SetupSchema(p *sim.Proc) error {
	s := sql.NewSession(t.Cluster, t.Catalog, t.Cluster.GatewayFor(t.regions[0]))
	create := fmt.Sprintf(`CREATE DATABASE tpcc PRIMARY REGION "%s"`, t.regions[0])
	if len(t.regions) > 1 {
		create += " REGIONS "
		for i, r := range t.regions[1:] {
			if i > 0 {
				create += ", "
			}
			create += fmt.Sprintf("%q", string(r))
		}
	}
	if _, err := s.Exec(p, create); err != nil {
		return err
	}
	region := func(col string) string {
		return fmt.Sprintf("crdb_region crdb_internal_region AS (region_from_warehouse(%s)) STORED", col)
	}
	stmts := []string{
		// The paper's multi-region TPC-C: item is GLOBAL (read-only
		// reference data), everything else REGIONAL BY ROW computed from
		// the warehouse column.
		`CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT) LOCALITY GLOBAL`,
		// Composite primary keys prefixed by the warehouse column mean
		// the computed region is derived from the PK, so global
		// uniqueness checks are elided (§4.1 case 3) — exactly the
		// paper's TPC-C adaptation.
		fmt.Sprintf(`CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING, w_tax FLOAT, w_ytd FLOAT, %s) LOCALITY REGIONAL BY ROW`, region("w_id")),
		fmt.Sprintf(`CREATE TABLE district (d_w_id INT, d_id INT, d_tax FLOAT, d_ytd FLOAT, d_next_o_id INT, %s, PRIMARY KEY (d_w_id, d_id)) LOCALITY REGIONAL BY ROW`, region("d_w_id")),
		fmt.Sprintf(`CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_name STRING, c_balance FLOAT, c_ytd_payment FLOAT, c_payment_cnt INT, %s, PRIMARY KEY (c_w_id, c_d_id, c_id)) LOCALITY REGIONAL BY ROW`, region("c_w_id")),
		fmt.Sprintf(`CREATE TABLE history (h_w_id INT, h_seq INT, h_amount FLOAT, %s, PRIMARY KEY (h_w_id, h_seq)) LOCALITY REGIONAL BY ROW`, region("h_w_id")),
		fmt.Sprintf(`CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_carrier_id INT, o_ol_cnt INT, %s, PRIMARY KEY (o_w_id, o_d_id, o_id)) LOCALITY REGIONAL BY ROW`, region("o_w_id")),
		fmt.Sprintf(`CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, %s, PRIMARY KEY (no_w_id, no_d_id, no_o_id)) LOCALITY REGIONAL BY ROW`, region("no_w_id")),
		fmt.Sprintf(`CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount FLOAT, %s, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) LOCALITY REGIONAL BY ROW`, region("ol_w_id")),
		fmt.Sprintf(`CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd INT, %s, PRIMARY KEY (s_w_id, s_i_id)) LOCALITY REGIONAL BY ROW`, region("s_w_id")),
	}
	for _, stmt := range stmts {
		if _, err := s.Exec(p, stmt); err != nil {
			return fmt.Errorf("tpcc schema: %w", err)
		}
	}
	return nil
}

// Load bulk-loads initial data.
func (t *TPCC) Load(p *sim.Proc) error {
	s := sql.NewSession(t.Cluster, t.Catalog, t.Cluster.GatewayFor(t.regions[0]))
	s.Database = "tpcc"
	ts := hlc.Timestamp{WallTime: 1}
	load := func(table string, vals map[string]sql.Datum) error {
		tbl, ok := t.Catalog.Table("tpcc", table)
		if !ok {
			return fmt.Errorf("tpcc: missing table %s", table)
		}
		return s.BulkLoadRow(tbl, vals, ts)
	}
	for i := 0; i < t.Cfg.Items; i++ {
		if err := load("item", map[string]sql.Datum{
			"i_id": int64(i), "i_name": fmt.Sprintf("item-%d", i), "i_price": 1.0 + float64(i%100)/10,
		}); err != nil {
			return err
		}
	}
	for w := 0; w < t.totalWarehouses(); w++ {
		if err := load("warehouse", map[string]sql.Datum{
			"w_id": int64(w), "w_name": fmt.Sprintf("wh-%d", w), "w_tax": 0.05, "w_ytd": 0.0,
		}); err != nil {
			return err
		}
		for d := 0; d < t.Cfg.DistrictsPerWH; d++ {
			if err := load("district", map[string]sql.Datum{
				"d_w_id": int64(w), "d_id": int64(d),
				"d_tax": 0.07, "d_ytd": 0.0, "d_next_o_id": int64(1),
			}); err != nil {
				return err
			}
			for c := 0; c < t.Cfg.CustomersPerDist; c++ {
				if err := load("customer", map[string]sql.Datum{
					"c_w_id": int64(w), "c_d_id": int64(d), "c_id": int64(c),
					"c_name":    fmt.Sprintf("cust-%d-%d-%d", w, d, c),
					"c_balance": 0.0, "c_ytd_payment": 0.0, "c_payment_cnt": int64(0),
				}); err != nil {
					return err
				}
			}
		}
		for i := 0; i < t.Cfg.Items; i++ {
			if err := load("stock", map[string]sql.Datum{
				"s_w_id": int64(w), "s_i_id": int64(i),
				"s_quantity": int64(100), "s_ytd": int64(0),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run spawns terminals and measures throughput.
func (t *TPCC) Run(p *sim.Proc) error {
	start := p.Now()
	wg := sim.NewWaitGroup(t.Cluster.Sim)
	var firstErr error
	for ri, region := range t.regions {
		for term := 0; term < t.Cfg.TerminalsPerRegion; term++ {
			ri, term, region := ri, term, region
			wg.Add(1)
			t.Cluster.Sim.Spawn(fmt.Sprintf("tpcc/%s/%d", region, term), func(tp *sim.Proc) {
				defer wg.Done()
				if err := t.terminal(tp, region, ri, term); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		}
	}
	wg.Wait(p)
	t.Elapsed = p.Now().Sub(start)
	return firstErr
}

// TpmC returns committed new-order transactions per virtual minute. With
// RunFor set the denominator is the configured window, avoiding straggler
// skew.
func (t *TPCC) TpmC() float64 {
	d := t.Elapsed
	if t.Cfg.RunFor > 0 {
		d = t.Cfg.RunFor
	}
	if d == 0 {
		return 0
	}
	return float64(t.NewOrders) / (float64(d) / float64(60*sim.Second))
}

// lineNums is the bounded IN list over possible order-line numbers
// (TPC-C orders carry 5-15 lines).
const lineNums = "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14"

// tpccStmts is the per-terminal prepared-statement set: every statement
// shape in the five transactions, prepared once so repeated executions
// bind values into the statement's shape.
type tpccStmts struct {
	warehouseTax *sql.Prepared
	districtBump *sql.Prepared
	districtNext *sql.Prepared
	customerName *sql.Prepared
	insertOrder  *sql.Prepared
	insertNewOrd *sql.Prepared
	itemPrice    *sql.Prepared
	stockQty     *sql.Prepared
	stockUpdate  *sql.Prepared
	insertLine   *sql.Prepared
	whPay        *sql.Prepared
	distPay      *sql.Prepared
	custPay      *sql.Prepared
	insertHist   *sql.Prepared
	custStatus   *sql.Prepared
	orderByID    *sql.Prepared
	orderLines   *sql.Prepared
	lineItemIDs  *sql.Prepared
	newOrdByID   *sql.Prepared
	delNewOrd    *sql.Prepared
	orderCarrier *sql.Prepared
}

func (t *TPCC) prepare(s *sql.Session) *tpccStmts {
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
		lineItemIDs:  s.MustPrepare(`SELECT ol_i_id FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (` + lineNums + `)`),
		newOrdByID:   s.MustPrepare(`SELECT * FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3`),
		delNewOrd:    s.MustPrepare(`DELETE FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3`),
		orderCarrier: s.MustPrepare(`UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`),
	}
}

// terminal runs one closed-loop client: standard-ish mix of 45% new-order,
// 43% payment, 4% each of order-status, delivery, stock-level.
func (t *TPCC) terminal(p *sim.Proc, region simnet.Region, regionIdx, termIdx int) error {
	s := sql.NewSession(t.Cluster, t.Catalog, t.Cluster.GatewayFor(region))
	s.Database = "tpcc"
	ps := t.prepare(s)
	rng := clientStream(t.Cluster, "tpcc", region, termIdx)
	localWarehouse := func() int {
		return regionIdx + len(t.regions)*(rng.Intn(t.Cfg.WarehousesPerRegion))
	}
	deadline := p.Now().Add(t.Cfg.RunFor)
	for i := 0; ; i++ {
		if t.Cfg.RunFor > 0 {
			if p.Now() >= deadline {
				break
			}
		} else if i >= t.Cfg.TxnsPerTerminal {
			break
		}
		w := localWarehouse()
		roll := rng.Float64()
		start := p.Now()
		var err error
		switch {
		case roll < 0.45:
			// ~10% of new-orders access a remote warehouse's stock
			// (§7.4: "only the 10% of new-order transactions that
			// access remote warehouses" cross regions).
			remote := rng.Float64() < t.Cfg.RemoteWarehouseFrac
			err = t.newOrder(p, s, ps, w, rng.Intn(t.Cfg.DistrictsPerWH), rng.Intn(t.Cfg.CustomersPerDist), remote, rng)
			if err == nil {
				t.NewOrders++
				t.NewOrderLat.Record(p.Now().Sub(start))
				t.PerRegionNO[region].Record(p.Now().Sub(start))
			} else {
				t.NewOrderLat.RecordError()
			}
		case roll < 0.88:
			err = t.payment(p, s, ps, w, rng.Intn(t.Cfg.DistrictsPerWH), rng.Intn(t.Cfg.CustomersPerDist), rng)
			record(t.PaymentLat, p.Now().Sub(start), err)
		case roll < 0.92:
			err = t.orderStatus(p, s, ps, w, rng.Intn(t.Cfg.DistrictsPerWH), rng.Intn(t.Cfg.CustomersPerDist))
			record(t.OrderStatusLat, p.Now().Sub(start), err)
		case roll < 0.96:
			err = t.delivery(p, s, ps, w)
			record(t.DeliveryLat, p.Now().Sub(start), err)
		default:
			err = t.stockLevel(p, s, ps, w, rng.Intn(t.Cfg.DistrictsPerWH))
			record(t.StockLevelLat, p.Now().Sub(start), err)
		}
		if err != nil {
			return fmt.Errorf("tpcc %s terminal %d: %w", region, termIdx, err)
		}
	}
	return nil
}

func record(r *LatencyRecorder, d sim.Duration, err error) {
	if err != nil {
		r.RecordError()
	} else {
		r.Record(d)
	}
}

// --- Transactions ---

// selectOne executes a prepared single-row lookup and returns the row.
func selectOne(p *sim.Proc, s *sql.Session, tx *txn.Txn, ps *sql.Prepared, table string, args ...sql.Datum) ([]sql.Datum, error) {
	res, err := s.ExecPreparedTxn(p, tx, ps, args...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("tpcc: no row in %s", table)
	}
	return res.Rows[0], nil
}

// newOrder implements the New-Order transaction: read warehouse/district/
// customer, consume an order ID, insert orders/new_order, and for each of
// 5-15 lines read the GLOBAL item table, update stock, insert order_line.
func (t *TPCC) newOrder(p *sim.Proc, s *sql.Session, ps *tpccStmts, w, d, c int, remote bool, rng interface{ Intn(int) int }) error {
	lines := 5 + rng.Intn(11)
	items := make([]int, lines)
	qtys := make([]int, lines)
	stockWH := make([]int, lines)
	for i := range items {
		items[i] = rng.Intn(t.Cfg.Items)
		qtys[i] = 1 + rng.Intn(10)
		stockWH[i] = w
	}
	if remote && t.totalWarehouses() > len(t.regions) {
		// One line sources stock from a warehouse in another region.
		stockWH[rng.Intn(lines)] = (w + 1) % t.totalWarehouses()
	}
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		if _, err := selectOne(p, s, tx, ps.warehouseTax, "warehouse", int64(w)); err != nil {
			return err
		}
		// Consume the order ID with an in-place increment (the
		// read-modify-write stays inside one statement, as with
		// CockroachDB's implicit SELECT FOR UPDATE), then read our own
		// intent back for the assigned ID.
		if _, err := s.ExecPreparedTxn(p, tx, ps.districtBump, int64(w), int64(d)); err != nil {
			return err
		}
		drow, err := selectOne(p, s, tx, ps.districtNext, "district", int64(w), int64(d))
		if err != nil {
			return err
		}
		oid := int(drow[0].(int64)) - 1
		if _, err := selectOne(p, s, tx, ps.customerName, "customer", int64(w), int64(d), int64(c)); err != nil {
			return err
		}
		if _, err := s.ExecPreparedTxn(p, tx, ps.insertOrder,
			int64(w), int64(d), int64(oid), int64(c), int64(0), int64(lines)); err != nil {
			return err
		}
		if _, err := s.ExecPreparedTxn(p, tx, ps.insertNewOrd, int64(w), int64(d), int64(oid)); err != nil {
			return err
		}
		for line := 0; line < lines; line++ {
			item := items[line]
			// GLOBAL item read: local in every region (§7.4).
			irow, err := selectOne(p, s, tx, ps.itemPrice, "item", int64(item))
			if err != nil {
				return err
			}
			price := irow[0].(float64)
			// Stock for this line may come from a remote warehouse
			// (per-line, matching the TPC-C spec's remote item rule).
			sw := stockWH[line]
			srow, err := selectOne(p, s, tx, ps.stockQty, "stock", int64(sw), int64(item))
			if err != nil {
				return err
			}
			qty := int(srow[0].(int64))
			newQty := qty - qtys[line]
			if newQty < 10 {
				newQty += 91
			}
			if _, err := s.ExecPreparedTxn(p, tx, ps.stockUpdate,
				int64(newQty), int64(qtys[line]), int64(sw), int64(item)); err != nil {
				return err
			}
			if _, err := s.ExecPreparedTxn(p, tx, ps.insertLine,
				int64(w), int64(d), int64(oid), int64(line), int64(item), int64(qtys[line]),
				price*float64(qtys[line])); err != nil {
				return err
			}
		}
		return nil
	})
}

// payment updates warehouse/district YTD and the customer balance, and
// appends a history row.
func (t *TPCC) payment(p *sim.Proc, s *sql.Session, ps *tpccStmts, w, d, c int, rng interface{ Intn(int) int }) error {
	amount := 1.0 + float64(rng.Intn(5000))/100
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		if _, err := s.ExecPreparedTxn(p, tx, ps.whPay, amount, int64(w)); err != nil {
			return err
		}
		if _, err := s.ExecPreparedTxn(p, tx, ps.distPay, amount, int64(w), int64(d)); err != nil {
			return err
		}
		if _, err := s.ExecPreparedTxn(p, tx, ps.custPay,
			amount, amount, int64(w), int64(d), int64(c)); err != nil {
			return err
		}
		t.histSeq++
		_, err := s.ExecPreparedTxn(p, tx, ps.insertHist, int64(w), int64(t.histSeq), amount)
		return err
	})
}

// orderStatus reads a customer and their most recent order with its lines.
func (t *TPCC) orderStatus(p *sim.Proc, s *sql.Session, ps *tpccStmts, w, d, c int) error {
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		if _, err := selectOne(p, s, tx, ps.custStatus, "customer", int64(w), int64(d), int64(c)); err != nil {
			return err
		}
		drow, err := selectOne(p, s, tx, ps.districtNext, "district", int64(w), int64(d))
		if err != nil {
			return err
		}
		last := int(drow[0].(int64)) - 1
		if last < 1 {
			return nil // no orders yet
		}
		res, err := s.ExecPreparedTxn(p, tx, ps.orderByID, int64(w), int64(d), int64(last))
		if err != nil || len(res.Rows) == 0 {
			return err
		}
		// Order lines for that order: bounded IN over line numbers.
		_, err = s.ExecPreparedTxn(p, tx, ps.orderLines, int64(w), int64(d), int64(last))
		return err
	})
}

// delivery processes the oldest undelivered order in each district.
func (t *TPCC) delivery(p *sim.Proc, s *sql.Session, ps *tpccStmts, w int) error {
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		for d := 0; d < t.Cfg.DistrictsPerWH; d++ {
			drow, err := selectOne(p, s, tx, ps.districtNext, "district", int64(w), int64(d))
			if err != nil {
				return err
			}
			next := int(drow[0].(int64))
			// Probe for the oldest new_order still present (bounded).
			for o := 1; o < next && o < 50; o++ {
				res, err := s.ExecPreparedTxn(p, tx, ps.newOrdByID, int64(w), int64(d), int64(o))
				if err != nil {
					return err
				}
				if len(res.Rows) == 0 {
					continue
				}
				if _, err := s.ExecPreparedTxn(p, tx, ps.delNewOrd, int64(w), int64(d), int64(o)); err != nil {
					return err
				}
				if _, err := s.ExecPreparedTxn(p, tx, ps.orderCarrier, int64(w), int64(d), int64(o)); err != nil {
					return err
				}
				break
			}
		}
		return nil
	})
}

// stockLevel reads the stock of every recently sold item, as TPC-C's
// Stock-Level does to count those below a threshold; nothing reports the
// count, so only the reads are made.
func (t *TPCC) stockLevel(p *sim.Proc, s *sql.Session, ps *tpccStmts, w, d int) error {
	return s.Coord.Run(p, func(tx *txn.Txn) error {
		drow, err := selectOne(p, s, tx, ps.districtNext, "district", int64(w), int64(d))
		if err != nil {
			return err
		}
		next := int(drow[0].(int64))
		seen := map[int64]bool{}
		for o := next - 5; o < next; o++ {
			if o < 1 {
				continue
			}
			res, err := s.ExecPreparedTxn(p, tx, ps.lineItemIDs, int64(w), int64(d), int64(o))
			if err != nil {
				return err
			}
			for _, row := range res.Rows {
				seen[row[0].(int64)] = true
			}
		}
		items := make([]int64, 0, len(seen))
		for item := range seen {
			items = append(items, item)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		for _, item := range items {
			if _, err := selectOne(p, s, tx, ps.stockQty, "stock", int64(w), item); err != nil {
				return err
			}
		}
		return nil
	})
}
