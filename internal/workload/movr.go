package workload

import (
	"fmt"
	"math/rand"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
)

// hlcLoadTS is the timestamp bulk loads happen at: before all traffic.
func hlcLoadTS() hlc.Timestamp { return hlc.Timestamp{WallTime: 1} }

// Movr drives the paper's motivating ride-sharing application (§1.1,
// §7.5.1) as a workload: signups and ride transactions are region-local
// REGIONAL BY ROW traffic, promo-code browsing is GLOBAL-table read
// traffic, and every ride transaction joins the two.
type Movr struct {
	Cluster *cluster.Cluster
	Catalog *sql.Catalog

	// UsersPerRegion seeds this many users in each region.
	UsersPerRegion int
	// Promos seeds this many promo codes.
	Promos int

	SignupLat *LatencyRecorder
	RideLat   *LatencyRecorder
	BrowseLat *LatencyRecorder

	regions []simnet.Region
	nextID  int
}

// NewMovr builds the workload harness.
func NewMovr(c *cluster.Cluster, catalog *sql.Catalog) *Movr {
	return &Movr{
		Cluster:        c,
		Catalog:        catalog,
		UsersPerRegion: 10,
		Promos:         5,
		SignupLat:      NewLatencyRecorder("movr/signup"),
		RideLat:        NewLatencyRecorder("movr/start-ride"),
		BrowseLat:      NewLatencyRecorder("movr/browse-promos"),
		regions:        c.Regions(),
	}
}

// session opens a movr session at a region's gateway.
func (m *Movr) session(region simnet.Region) *sql.Session {
	s := sql.NewSession(m.Cluster, m.Catalog, m.Cluster.GatewayFor(region))
	s.Database = "movr"
	return s
}

// Setup creates the movr schema exactly as paper Fig. 1c prescribes.
func (m *Movr) Setup(p *sim.Proc) error {
	s := m.session(m.regions[0])
	create := fmt.Sprintf(`CREATE DATABASE movr PRIMARY REGION "%s"`, m.regions[0])
	if len(m.regions) > 1 {
		create += " REGIONS "
		for i, r := range m.regions[1:] {
			if i > 0 {
				create += ", "
			}
			create += fmt.Sprintf("%q", string(r))
		}
	}
	stmts := []string{
		create,
		`CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE, name STRING) LOCALITY REGIONAL BY ROW`,
		`CREATE TABLE rides (id INT PRIMARY KEY, rider_id INT, vehicle STRING, promo STRING) LOCALITY REGIONAL BY ROW`,
		`CREATE TABLE promo_codes (code STRING PRIMARY KEY, description STRING) LOCALITY GLOBAL`,
	}
	for _, stmt := range stmts {
		if _, err := s.Exec(p, stmt); err != nil {
			return fmt.Errorf("movr setup: %w", err)
		}
	}
	return nil
}

// Load seeds users (region-homed) and promo codes.
func (m *Movr) Load(p *sim.Proc) error {
	s := m.session(m.regions[0])
	users, ok := m.Catalog.Table("movr", "users")
	if !ok {
		return fmt.Errorf("movr: users missing")
	}
	promos, ok := m.Catalog.Table("movr", "promo_codes")
	if !ok {
		return fmt.Errorf("movr: promo_codes missing")
	}
	ts := hlcLoadTS()
	id := 0
	for _, r := range m.regions {
		for u := 0; u < m.UsersPerRegion; u++ {
			id++
			if err := s.BulkLoadRow(users, map[string]sql.Datum{
				"id":                 int64(id),
				"email":              fmt.Sprintf("user%d@movr.com", id),
				"name":               fmt.Sprintf("user-%d", id),
				sql.RegionColumnName: string(r),
			}, ts); err != nil {
				return err
			}
		}
	}
	for i := 0; i < m.Promos; i++ {
		if err := s.BulkLoadRow(promos, map[string]sql.Datum{
			"code":        fmt.Sprintf("PROMO%d", i),
			"description": fmt.Sprintf("promo %d", i),
		}, ts); err != nil {
			return err
		}
	}
	m.nextID = id
	return nil
}

// movrStmts is the per-client prepared-statement set. Each client
// prepares once and binds values per op, so repeated executions reuse
// each statement's shape instead of re-planning.
type movrStmts struct {
	browsePromo *sql.Prepared
	userByID    *sql.Prepared
	insertRide  *sql.Prepared
	insertUser  *sql.Prepared
}

func (m *Movr) prepare(s *sql.Session) *movrStmts {
	return &movrStmts{
		browsePromo: s.MustPrepare(`SELECT * FROM promo_codes WHERE code = $1`),
		userByID:    s.MustPrepare(`SELECT name FROM users WHERE id = $1`),
		insertRide:  s.MustPrepare(`INSERT INTO rides (id, rider_id, vehicle, promo) VALUES ($1, $2, $3, $4)`),
		insertUser:  s.MustPrepare(`INSERT INTO users (id, email, name) VALUES ($1, $2, $3)`),
	}
}

// Run has every client in every region run opsPerClient operations of the
// MovR mix (op).
func (m *Movr) Run(p *sim.Proc, clientsPerRegion, opsPerClient int) error {
	wg := sim.NewWaitGroup(m.Cluster.Sim)
	var firstErr error
	for ri, region := range m.regions {
		for cl := 0; cl < clientsPerRegion; cl++ {
			ri, region := ri, region
			wg.Add(1)
			m.Cluster.Sim.Spawn(fmt.Sprintf("movr/%s/%d", region, cl), func(wp *sim.Proc) {
				defer wg.Done()
				s := m.session(region)
				ps := m.prepare(s)
				rng := clientStream(m.Cluster, "movr", region, cl)
				for range opsPerClient {
					if _, err := m.op(wp, s, ps, rng, ri); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			})
		}
	}
	wg.Wait(p)
	return firstErr
}

// op runs one operation of the MovR mix for a client in the ri'th region:
// promo browsing (70%), ride starts by one of the region's own users (25%)
// and signups (5%). It records the latency under the operation's class and
// returns when the operation started.
func (m *Movr) op(p *sim.Proc, s *sql.Session, ps *movrStmts, rng *rand.Rand, ri int) (start sim.Time, err error) {
	roll := rng.Float64()
	start = p.Now()
	switch {
	case roll < 0.70:
		err = m.browse(p, s, ps, rng.Intn(m.Promos))
		record(m.BrowseLat, p.Now().Sub(start), err)
	case roll < 0.95:
		userID := ri*m.UsersPerRegion + 1 + rng.Intn(m.UsersPerRegion)
		err = m.startRide(p, s, ps, userID, rng.Intn(m.Promos))
		record(m.RideLat, p.Now().Sub(start), err)
	default:
		err = m.signup(p, s, ps)
		record(m.SignupLat, p.Now().Sub(start), err)
	}
	return start, err
}

func (m *Movr) browse(p *sim.Proc, s *sql.Session, ps *movrStmts, promo int) error {
	res, err := s.ExecPrepared(p, ps.browsePromo, fmt.Sprintf("PROMO%d", promo))
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("movr: promo missing")
	}
	return nil
}

// startRide is the paper's canonical multi-table transaction: a REGIONAL
// BY ROW write that reads a GLOBAL dimension table, staying region-local.
func (m *Movr) startRide(p *sim.Proc, s *sql.Session, ps *movrStmts, userID, promo int) error {
	m.nextID++
	rideID := 1000000 + m.nextID
	return s.RunTxn(p, func(tx *txn.Txn) error {
		res, err := s.ExecPreparedTxn(p, tx, ps.userByID, int64(userID))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("movr: user %d missing", userID)
		}
		if _, err := s.ExecPreparedTxn(p, tx, ps.browsePromo, fmt.Sprintf("PROMO%d", promo)); err != nil {
			return err
		}
		_, err = s.ExecPreparedTxn(p, tx, ps.insertRide,
			int64(rideID), int64(userID), "scooter", fmt.Sprintf("PROMO%d", promo))
		return err
	})
}

func (m *Movr) signup(p *sim.Proc, s *sql.Session, ps *movrStmts) error {
	m.nextID++
	id := m.nextID
	_, err := s.ExecPrepared(p, ps.insertUser,
		int64(id), fmt.Sprintf("user%d@movr.com", id), fmt.Sprintf("user-%d", id))
	return err
}
