package chaos

import (
	"fmt"
	"strings"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
)

// The SQL workloads give the paper's SQL mechanisms traffic under faults: a
// bank on a REGIONAL BY ROW table (§2.3.2), whose reads of rows homed
// elsewhere are locality-optimized searches (§4.2), audited in a consistent
// read and in a bounded-staleness scan (§5.3); and a cycler that changes a
// second table's locality by index swap and backfill (§2.4.2). Each proc has
// sessions of its own: a session runs one statement at a time.

const (
	// ledgerRows is the size of the table the cycler changes the locality
	// of.
	ledgerRows = 12
	// staleBound is the bounded-staleness audit's with_max_staleness. The
	// first such audit runs staleBound after the load, so it must see every
	// row.
	staleBound = 10 * sim.Second
	// cyclePause is the cycler's pause between locality changes.
	cyclePause = 10 * sim.Second
)

// localities is the cycler's rotation of ledger's locality, which starts
// REGIONAL BY TABLE: into and out of REGIONAL BY ROW both to GLOBAL and to
// REGIONAL BY TABLE, and metadata-only changes between the other two.
var localities = []string{
	`REGIONAL BY ROW`,
	`GLOBAL`,
	`REGIONAL BY TABLE IN "europe-west2"`,
	`REGIONAL BY ROW`,
	`REGIONAL BY TABLE`,
	`GLOBAL`,
}

// LocalityChange is one ALTER TABLE ledger SET LOCALITY of the cycler: its
// target, whether it succeeded, its virtual duration (the table's
// write-unavailability window, since DML concurrent with an ALTER of the
// same table is unsupported), and what the reads and write after it found:
// "ok", "unavailable" when one of them failed, or what was wrong.
type LocalityChange struct {
	At     sim.Time
	Target string
	OK     bool
	Took   sim.Duration
	Check  string
}

// Bad reports whether the change broke the table: it succeeded but the
// table reads wrong, or failed and left the table changed or reading wrong.
func (lc LocalityChange) Bad() bool {
	return lc.Check != "ok" && lc.Check != "unavailable"
}

func (lc LocalityChange) String() string {
	status := "ok"
	if !lc.OK {
		status = "failed"
	}
	return fmt.Sprintf("t=%v %s %s took=%v check=%s", lc.At, lc.Target, status, lc.Took, lc.Check)
}

// sessions hands out one SQL session per gateway to a single proc.
type sessions struct {
	h  *harness
	by map[simnet.NodeID]*sql.Session
}

func (h *harness) sessions() *sessions {
	return &sessions{h: h, by: map[simnet.NodeID]*sql.Session{}}
}

func (ss *sessions) at(gw simnet.NodeID) *sql.Session {
	s, ok := ss.by[gw]
	if !ok {
		s = sql.NewSession(ss.h.c, ss.h.catalog, gw)
		s.Database = "bank"
		ss.by[gw] = s
	}
	return s
}

// setupSQL creates the database bank over the three regions, the REGIONAL
// BY ROW acct table with its rows inserted from rotating gateways (so they
// are homed across the regions), and the ledger with a non-storing unique
// secondary index created after its rows are loaded.
func (h *harness) setupSQL(p *sim.Proc) error {
	h.catalog = sql.NewCatalog()
	ss := h.sessions()
	regions := h.c.Regions()
	ddl := ss.at(h.c.GatewayFor(regions[0]))
	exec := func(s *sql.Session, stmt string) error {
		if _, err := s.Exec(p, stmt); err != nil {
			return fmt.Errorf("chaos: %s: %w", stmt, err)
		}
		return nil
	}
	for _, stmt := range []string{
		`CREATE DATABASE bank PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
		`CREATE TABLE acct (id INT PRIMARY KEY, balance INT) LOCALITY REGIONAL BY ROW`,
		`CREATE TABLE ledger (id INT PRIMARY KEY, code STRING, amount INT)`,
	} {
		if err := exec(ddl, stmt); err != nil {
			return err
		}
	}
	for i := 0; i < accounts; i++ {
		s := ss.at(h.c.GatewayFor(regions[i%len(regions)]))
		if err := exec(s, fmt.Sprintf(`INSERT INTO acct (id, balance) VALUES (%d, %d)`, i, initialBalance)); err != nil {
			return err
		}
	}
	var rows []string
	for i := 0; i < ledgerRows; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'c%d', %d)", i, i, 10*i))
	}
	if err := exec(ddl, `INSERT INTO ledger (id, code, amount) VALUES `+strings.Join(rows, ", ")); err != nil {
		return err
	}
	if err := exec(ddl, `CREATE UNIQUE INDEX ledger_code_key ON ledger (code)`); err != nil {
		return err
	}
	h.sqlLoaded = p.Now()
	return nil
}

// spawnSQLMovers starts one mover per region, each with its own session on
// its region's gateway. A transfer reads both balances, then updates both,
// in one transaction.
func (h *harness) spawnSQLMovers(wg *sim.WaitGroup) {
	for m, region := range h.c.Regions() {
		wg.Add(1)
		h.c.Sim.Spawn(fmt.Sprintf("chaos/sql-mover%d", m), func(p *sim.Proc) {
			defer wg.Done()
			s := h.sessions().at(h.c.GatewayFor(region))
			rng := h.c.Sim.Stream(p.Name())
			for !h.stopped {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					p.Sleep(50 * sim.Millisecond)
					continue
				}
				amount := int64(1 + rng.Intn(5))
				err := s.RunTxn(p, func(tx *txn.Txn) error {
					var bal [2]int64
					for i, id := range []int{from, to} {
						res, err := s.ExecTxn(p, tx, fmt.Sprintf(`SELECT balance FROM acct WHERE id = %d`, id))
						if err != nil {
							return err
						}
						if len(res.Rows) != 1 {
							return fmt.Errorf("chaos: account %d has %d rows", id, len(res.Rows))
						}
						bal[i] = res.Rows[0][0].(int64)
					}
					if bal[0] < amount {
						return nil
					}
					for i, id := range []int{from, to} {
						bal[i] += amount * int64(2*i-1)
						if _, err := s.ExecTxn(p, tx, fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, bal[i], id)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					h.rep.SQLTransfersFailed++
					p.Sleep(500 * sim.Millisecond)
				} else {
					h.rep.SQLTransfersOK++
					p.Sleep(200 * sim.Millisecond)
				}
			}
		})
	}
}

// sqlTotal sums acct through s: rows read and their total. asOf, when not
// empty, makes the read a stale one.
func sqlTotal(p *sim.Proc, s *sql.Session, asOf string) (rows int, total int64, err error) {
	res, err := s.Exec(p, `SELECT balance FROM acct`+asOf)
	if err != nil {
		return 0, 0, err
	}
	for _, row := range res.Rows {
		total += row[0].(int64)
	}
	return len(res.Rows), total, nil
}

// spawnSQLAuditor audits acct every two seconds from a healthy gateway, in
// a consistent read and, from staleBound after the load on, in a
// bounded-staleness scan. A failed read is tolerated; a read that misses a
// row or sums wrong is a violation.
func (h *harness) spawnSQLAuditor(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/sql-auditor", func(p *sim.Proc) {
		defer wg.Done()
		ss := h.sessions()
		stale := fmt.Sprintf(` AS OF SYSTEM TIME with_max_staleness('%v')`, staleBound)
		for !h.stopped {
			s := ss.at(h.healthyGateway(p.Now()))
			if rows, total, err := sqlTotal(p, s, ""); err == nil {
				h.rep.SQLAudits++
				if rows != accounts || total != int64(h.rep.BankExpected) {
					h.rep.SQLAuditBad++
				}
			}
			if p.Now() >= h.sqlLoaded.Add(staleBound) {
				if rows, total, err := sqlTotal(p, s, stale); err == nil {
					h.rep.StaleAudits++
					if rows != accounts || total != int64(h.rep.BankExpected) {
						h.rep.StaleAuditBad++
					}
				}
			}
			p.Sleep(2 * sim.Second)
		}
	})
}

// finalSQLAudit reads acct's total once everything healed, with a little
// patience for stragglers.
func (h *harness) finalSQLAudit(p *sim.Proc) error {
	ss := h.sessions()
	var err error
	for i := 0; i < 5; i++ {
		var total int64
		if _, total, err = sqlTotal(p, ss.at(h.healthyGateway(p.Now())), ""); err == nil {
			h.rep.SQLBankFinal = int(total)
			return nil
		}
		p.Sleep(2 * sim.Second)
	}
	return fmt.Errorf("chaos: final SQL audit: %w", err)
}

// spawnCycler starts the one proc that touches ledger: every cyclePause it
// changes the table's locality to the next in the rotation from a healthy
// gateway, then checks the table from a rotating gateway.
func (h *harness) spawnCycler(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/cycler", func(p *sim.Proc) {
		defer wg.Done()
		ss := h.sessions()
		nodes := h.c.Topo.Nodes()
		for i := 0; ; i++ {
			p.Sleep(cyclePause)
			if h.stopped {
				return
			}
			target := localities[i%len(localities)]
			t, _ := h.catalog.Table("bank", "ledger")
			loc, home, primary := t.Locality, t.HomeRegion, t.Primary()
			lc := LocalityChange{At: p.Now(), Target: target}
			_, err := ss.at(h.healthyGateway(p.Now())).Exec(p, `ALTER TABLE ledger SET LOCALITY `+target)
			lc.OK, lc.Took = err == nil, p.Now().Sub(lc.At)
			if !lc.OK && (t.Locality != loc || t.HomeRegion != home || t.Primary() != primary) {
				lc.Check = "failed-alter-changed-the-table"
			} else {
				lc.Check = checkLedger(p, ss.at(nodes[i%len(nodes)]), i%ledgerRows)
			}
			h.rep.LocalityChanges = append(h.rep.LocalityChanges, lc)
		}
	})
}

// checkLedger reads every row of ledger and their checksum, one row
// through the secondary index and writes that row's amount back unchanged.
// It returns "ok", "unavailable" if a statement failed, or what it found
// wrong.
func checkLedger(p *sim.Proc, s *sql.Session, probe int) string {
	res, err := s.Exec(p, `SELECT id, amount FROM ledger`)
	if err != nil {
		return "unavailable"
	}
	var sum, want int64
	for _, row := range res.Rows {
		sum += row[0].(int64)*1000 + row[1].(int64)
	}
	for i := 0; i < ledgerRows; i++ {
		want += int64(i)*1000 + int64(10*i)
	}
	if len(res.Rows) != ledgerRows || sum != want {
		return fmt.Sprintf("scan-read-%d-rows-checksum-%d", len(res.Rows), sum)
	}
	if res, err = s.Exec(p, fmt.Sprintf(`SELECT id, amount FROM ledger WHERE code = 'c%d'`, probe)); err != nil {
		return "unavailable"
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(probe) || res.Rows[0][1] != int64(10*probe) {
		return fmt.Sprintf("index-lookup-of-c%d-read-%v", probe, res.Rows)
	}
	if res, err = s.Exec(p, fmt.Sprintf(`UPDATE ledger SET amount = %d WHERE id = %d`, 10*probe, probe)); err != nil {
		return "unavailable"
	}
	if res.RowsAffected != 1 {
		return fmt.Sprintf("update-changed-%d-rows", res.RowsAffected)
	}
	return "ok"
}
