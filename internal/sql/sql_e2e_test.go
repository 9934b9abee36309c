package sql

import (
	"fmt"
	"strings"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// e2e harness: a 3-region cluster with one SQL session per region.
type sqlHarness struct {
	c        *cluster.Cluster
	catalog  *Catalog
	sessions map[simnet.Region]*Session
}

func newSQLHarness(seed int64) *sqlHarness {
	c := cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
	})
	h := &sqlHarness{c: c, catalog: NewCatalog(), sessions: map[simnet.Region]*Session{}}
	for _, r := range c.Regions() {
		h.sessions[r] = NewSession(c, h.catalog, c.GatewayFor(r))
	}
	return h
}

// run executes fn in the root test process and then drains the simulation.
func (h *sqlHarness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.c.Sim.Spawn("test", func(p *sim.Proc) {
		p.Sleep(100 * sim.Millisecond)
		fn(p)
	})
	h.c.Sim.RunFor(20 * 60 * sim.Second)
	if n := h.c.ApplyErrors(); n != 0 {
		t.Fatalf("%d command application errors", n)
	}
}

// setupMovr creates the movr-style schema used by most tests.
func (h *sqlHarness) setupMovr(t *testing.T, p *sim.Proc) *Session {
	t.Helper()
	s := h.sessions[simnet.USEast1]
	stmts := []string{
		`CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
		`CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE, name STRING) LOCALITY REGIONAL BY ROW`,
		`CREATE TABLE promo_codes (code STRING PRIMARY KEY, description STRING) LOCALITY GLOBAL`,
	}
	for _, stmt := range stmts {
		if _, err := s.Exec(p, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	for _, sess := range h.sessions {
		sess.Database = "movr"
	}
	p.Sleep(500 * sim.Millisecond) // closed timestamps propagate
	return s
}

func TestSQLInsertSelect(t *testing.T) {
	h := newSQLHarness(1)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice'), (2, 'b@x.com', 'bob')`); err != nil {
			t.Error(err)
			return
		}
		res, err := s.Exec(p, `SELECT * FROM users WHERE id = 1`)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res.Rows) != 1 || res.Rows[0][2] != "alice" {
			t.Errorf("rows = %v", res.Rows)
		}
		// Hidden crdb_region is not in SELECT * (§2.3.2)...
		for _, c := range res.Columns {
			if c == RegionColumnName {
				t.Error("hidden column leaked into SELECT *")
			}
		}
		// ...but is accessible by name.
		res, err = s.Exec(p, `SELECT crdb_region, id FROM users WHERE id = 1`)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Rows[0][0] != "us-east1" {
			t.Errorf("crdb_region = %v, want gateway region us-east1", res.Rows[0][0])
		}
	})
}

func TestSQLUniqueConstraintGlobal(t *testing.T) {
	h := newSQLHarness(2)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		eu := h.sessions[simnet.EuropeW2]
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (1, 'dup@x.com', 'alice')`); err != nil {
			t.Error(err)
			return
		}
		// Same email from another region: rows live in different
		// partitions, but the global unique constraint must hold (§4.1).
		_, err := eu.Exec(p, `INSERT INTO users (id, email, name) VALUES (2, 'dup@x.com', 'eve')`)
		if err == nil || !strings.Contains(err.Error(), "unique") {
			t.Errorf("duplicate email accepted across regions: %v", err)
		}
		// Same id too (the PK excludes crdb_region, §4.1).
		_, err = eu.Exec(p, `INSERT INTO users (id, email, name) VALUES (1, 'other@x.com', 'eve')`)
		if err == nil || !strings.Contains(err.Error(), "unique") {
			t.Errorf("duplicate PK accepted across regions: %v", err)
		}
	})
}

func TestSQLLocalityOptimizedSearch(t *testing.T) {
	h := newSQLHarness(3)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		eu := h.sessions[simnet.EuropeW2]
		// Insert one row in each region.
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (1, 'east@x.com', 'east-user')`); err != nil {
			t.Error(err)
			return
		}
		if _, err := eu.Exec(p, `INSERT INTO users (id, email, name) VALUES (2, 'eu@x.com', 'eu-user')`); err != nil {
			t.Error(err)
			return
		}
		// Local hit: LOS keeps the lookup in-region → fast.
		start := p.Now()
		res, err := eu.Exec(p, `SELECT name FROM users WHERE email = 'eu@x.com'`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("local read: %v, %v", res, err)
			return
		}
		localLat := p.Now().Sub(start)
		if localLat > 10*sim.Millisecond {
			t.Errorf("LOS local hit took %v, want in-region latency", localLat)
		}
		// Remote hit: local miss, then fan-out (one cross-region RTT).
		start = p.Now()
		res, err = eu.Exec(p, `SELECT name FROM users WHERE email = 'east@x.com'`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "east-user" {
			t.Errorf("remote read: %v, %v", res, err)
			return
		}
		remoteLat := p.Now().Sub(start)
		if remoteLat < 50*sim.Millisecond || remoteLat > 400*sim.Millisecond {
			t.Errorf("LOS remote hit took %v, want ~one cross-region RTT", remoteLat)
		}
		// With LOS disabled every lookup fans out: local reads also pay
		// cross-region latency (§7.2.1 "Unoptimized").
		mustExec(t, p, eu, `SET enable_locality_optimized_search = off`)
		start = p.Now()
		if _, err := eu.Exec(p, `SELECT name FROM users WHERE email = 'eu@x.com'`); err != nil {
			t.Error(err)
			return
		}
		unoptLat := p.Now().Sub(start)
		if unoptLat < 50*sim.Millisecond {
			t.Errorf("unoptimized local read took %v, expected cross-region fan-out", unoptLat)
		}
	})
}

func TestSQLGlobalTableReads(t *testing.T) {
	h := newSQLHarness(4)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		start := p.Now()
		if _, err := s.Exec(p, `INSERT INTO promo_codes (code, description) VALUES ('SAVE10', 'ten percent off')`); err != nil {
			t.Error(err)
			return
		}
		writeLat := p.Now().Sub(start)
		if writeLat < 200*sim.Millisecond {
			t.Errorf("global write took %v; expected commit-wait dominated latency", writeLat)
		}
		// Strongly consistent reads from every region are local.
		for r, sess := range h.sessions {
			start := p.Now()
			res, err := sess.Exec(p, `SELECT description FROM promo_codes WHERE code = 'SAVE10'`)
			if err != nil || len(res.Rows) != 1 {
				t.Errorf("%s: %v %v", r, res, err)
				return
			}
			if d := p.Now().Sub(start); d > 10*sim.Millisecond {
				t.Errorf("%s: global read took %v, want local", r, d)
			}
		}
	})
}

func TestSQLComputedRegionColumn(t *testing.T) {
	h := newSQLHarness(5)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		stmt := `CREATE TABLE accounts (
			id INT PRIMARY KEY,
			state STRING NOT NULL,
			crdb_region crdb_internal_region AS (
				CASE WHEN state = 'CA' THEN 'asia-northeast1'
				     WHEN state = 'NY' THEN 'us-east1'
				     ELSE 'europe-west2' END) STORED,
			balance INT
		) LOCALITY REGIONAL BY ROW`
		if _, err := s.Exec(p, stmt); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		if _, err := s.Exec(p, `INSERT INTO accounts (id, state, balance) VALUES (1, 'CA', 100), (2, 'NY', 200)`); err != nil {
			t.Error(err)
			return
		}
		res, err := s.Exec(p, `SELECT crdb_region FROM accounts WHERE id = 1`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "asia-northeast1" {
			t.Errorf("computed region: %v %v", res, err)
			return
		}
		// When the determinant column is in WHERE, the query stays in
		// one region (§2.3.2): NY → us-east1, local for this session.
		start := p.Now()
		res, err = s.Exec(p, `SELECT balance FROM accounts WHERE id = 2 AND state = 'NY'`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("%v %v", res, err)
			return
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("computed-region-pinned read took %v", d)
		}
	})
}

func TestSQLAutoRehoming(t *testing.T) {
	h := newSQLHarness(6)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		eu := h.sessions[simnet.EuropeW2]
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (10, 'mover@x.com', 'mover')`); err != nil {
			t.Error(err)
			return
		}
		// Update from Europe without rehoming: row stays in us-east1.
		if _, err := eu.Exec(p, `UPDATE users SET name = 'moved1' WHERE id = 10`); err != nil {
			t.Error(err)
			return
		}
		res, _ := s.Exec(p, `SELECT crdb_region FROM users WHERE id = 10`)
		if res.Rows[0][0] != "us-east1" {
			t.Errorf("row rehomed with setting off: %v", res.Rows[0][0])
		}
		// With auto-rehoming on, the update moves the row (§2.3.2).
		mustExec(t, p, eu, `SET enable_auto_rehoming = on`)
		if _, err := eu.Exec(p, `UPDATE users SET name = 'moved2' WHERE id = 10`); err != nil {
			t.Error(err)
			return
		}
		res, err := eu.Exec(p, `SELECT crdb_region, name FROM users WHERE id = 10`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("%v %v", res, err)
			return
		}
		if res.Rows[0][0] != "europe-west2" || res.Rows[0][1] != "moved2" {
			t.Errorf("rehoming failed: %v", res.Rows[0])
		}
		// Subsequent reads from Europe are now local.
		start := p.Now()
		if _, err := eu.Exec(p, `SELECT name FROM users WHERE id = 10`); err != nil {
			t.Error(err)
			return
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("read after rehome took %v, want local", d)
		}
	})
}

func TestSQLStaleReads(t *testing.T) {
	h := newSQLHarness(7)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (20, 's@x.com', 'stale')`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(4 * sim.Second)
		asia := h.sessions[simnet.AsiaNE1]
		// Exact staleness from a remote region: local follower read.
		start := p.Now()
		res, err := asia.Exec(p, `SELECT name FROM users AS OF SYSTEM TIME '-3.5s' WHERE id = 20`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("exact stale: %v %v", res, err)
			return
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("exact stale read took %v", d)
		}
		// Bounded staleness picks a local timestamp (§5.3.2).
		start = p.Now()
		res, err = asia.Exec(p, `SELECT name FROM users AS OF SYSTEM TIME with_max_staleness('30s') WHERE id = 20`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "stale" {
			t.Errorf("bounded stale: %v %v", res, err)
			return
		}
		if d := p.Now().Sub(start); d > 15*sim.Millisecond {
			t.Errorf("bounded stale read took %v", d)
		}
	})
}

// TestAsOfSystemTimeRejectedInEveryTransaction: a stale read cannot run
// inside a read-write transaction, however the statement enters it — ExecTxn
// or ExecPreparedTxn. Outside one the same statement is a stale read.
func TestAsOfSystemTimeRejectedInEveryTransaction(t *testing.T) {
	h := newSQLHarness(9)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (30, 'a@x.com', 'asof')`)
		p.Sleep(4 * sim.Second)
		const stmt = `SELECT name FROM users AS OF SYSTEM TIME '-3.5s' WHERE id = 30`
		const want = "sql: AS OF SYSTEM TIME not allowed in a read-write transaction"
		ps := s.MustPrepare(stmt)
		for _, c := range []struct {
			name string
			exec func() error
		}{
			{"ExecTxn", func() error {
				return s.RunTxn(p, func(tx *txn.Txn) error {
					_, err := s.ExecTxn(p, tx, stmt)
					return err
				})
			}},
			{"ExecPreparedTxn", func() error {
				return s.RunTxn(p, func(tx *txn.Txn) error {
					_, err := s.ExecPreparedTxn(p, tx, ps)
					return err
				})
			}},
		} {
			if err := c.exec(); err == nil || err.Error() != want {
				t.Errorf("%s: %v, want %q", c.name, err, want)
			}
		}
		if res := mustExec(t, p, s, stmt); len(res.Rows) != 1 || res.Rows[0][0] != "asof" {
			t.Errorf("stale read outside a transaction: %v", res.Rows)
		}
	})
}

func TestSQLAddDropRegion(t *testing.T) {
	h := newSQLHarness(8)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		// us-west1 has no nodes in this 3-region cluster: rejected.
		if _, err := s.Exec(p, `ALTER DATABASE movr ADD REGION "us-west1"`); err == nil {
			t.Error("added region with no nodes")
		}
		res, err := s.Exec(p, `SHOW REGIONS FROM DATABASE movr`)
		if err != nil || len(res.Rows) != 3 {
			t.Errorf("%v %v", res, err)
			return
		}
		// Put a row in asia, then try dropping asia: validation fails.
		asia := h.sessions[simnet.AsiaNE1]
		if _, err := asia.Exec(p, `INSERT INTO users (id, email, name) VALUES (30, 'asia@x.com', 'tokyo')`); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Exec(p, `ALTER DATABASE movr DROP REGION "asia-northeast1"`); err == nil {
			t.Error("dropped region with homed rows")
			return
		}
		// State rolled back: inserts to asia still work.
		if _, err := asia.Exec(p, `INSERT INTO users (id, email, name) VALUES (31, 'asia2@x.com', 'osaka')`); err != nil {
			t.Errorf("region not writable after failed drop: %v", err)
			return
		}
		// Move the rows away, then the drop succeeds.
		if _, err := s.Exec(p, `DELETE FROM users WHERE id = 30`); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Exec(p, `DELETE FROM users WHERE id = 31`); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Exec(p, `ALTER DATABASE movr DROP REGION "asia-northeast1"`); err != nil {
			t.Errorf("drop after cleanup: %v", err)
			return
		}
		res, _ = s.Exec(p, `SHOW REGIONS FROM DATABASE movr`)
		if len(res.Rows) != 2 {
			t.Errorf("regions after drop: %v", res.Rows)
		}
	})
}

func TestSQLAlterLocalityRBTToGlobal(t *testing.T) {
	h := newSQLHarness(9)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `CREATE TABLE refdata (k STRING PRIMARY KEY, v STRING)`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(300 * sim.Millisecond)
		if _, err := s.Exec(p, `INSERT INTO refdata (k, v) VALUES ('x', '1')`); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Exec(p, `ALTER TABLE refdata SET LOCALITY GLOBAL`); err != nil {
			t.Errorf("alter to GLOBAL: %v", err)
			return
		}
		p.Sleep(time2(p)) // let lead closed timestamps establish
		// Reads from remote regions are now local.
		asia := h.sessions[simnet.AsiaNE1]
		start := p.Now()
		res, err := asia.Exec(p, `SELECT v FROM refdata WHERE k = 'x'`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "1" {
			t.Errorf("%v %v", res, err)
			return
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("read after GLOBAL conversion took %v", d)
		}
	})
}

func time2(p *sim.Proc) sim.Duration { return 2 * sim.Second }

// TestSQLAlterLocalityGlobalAndBackThenLeaseMove: a table made GLOBAL and
// then REGIONAL BY TABLE again closes timestamps in the past on every
// replica, so after its lease moves back to a replica that led it while it
// was GLOBAL, an auto-commit UPDATE writes at present time and does not
// commit-wait.
func TestSQLAlterLocalityGlobalAndBackThenLeaseMove(t *testing.T) {
	h := newSQLHarness(12)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		mustExec(t, p, s, `INSERT INTO kvt (k, v) VALUES (1, 'a')`)
		key := h.kvtRow(t, 1, "")[0].Key
		mustExec(t, p, s, `ALTER TABLE kvt SET LOCALITY GLOBAL`)
		desc, target := h.otherVoter(t, key)
		home := desc.Leaseholder
		if err := h.c.Admin.TransferLease(p, desc.RangeID, target); err != nil {
			t.Fatal(err)
		}
		mustExec(t, p, s, `ALTER TABLE kvt SET LOCALITY REGIONAL BY TABLE`)
		if err := h.c.Admin.TransferLease(p, desc.RangeID, home); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time2(p)) // past the last leading promise
		res := mustExec(t, p, s, `EXPLAIN ANALYZE UPDATE kvt SET v = 'b' WHERE k = 1`)
		if got := eaField(t, res, "commit wait"); got != "0s" {
			t.Errorf("commit wait = %s after the lease moved, want 0s", got)
		}
	})
}

func TestSQLAlterLocalityToRegionalByRow(t *testing.T) {
	h := newSQLHarness(10)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `CREATE TABLE orders (id INT PRIMARY KEY, item STRING)`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(300 * sim.Millisecond)
		for i := 1; i <= 3; i++ {
			if _, err := s.Exec(p, fmt.Sprintf(`INSERT INTO orders (id, item) VALUES (%d, 'thing-%d')`, i, i)); err != nil {
				t.Error(err)
				return
			}
		}
		// Convert to REGIONAL BY ROW: index swap + backfill (§2.4.2).
		if _, err := s.Exec(p, `ALTER TABLE orders SET LOCALITY REGIONAL BY ROW`); err != nil {
			t.Errorf("alter to RBR: %v", err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		res, err := s.Exec(p, `SELECT item FROM orders WHERE id = 2`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "thing-2" {
			t.Errorf("row lost in conversion: %v %v", res, err)
			return
		}
		res, err = s.Exec(p, `SELECT crdb_region FROM orders WHERE id = 2`)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "us-east1" {
			t.Errorf("backfilled region: %v %v", res, err)
		}
		// New inserts from other regions partition by gateway.
		eu := h.sessions[simnet.EuropeW2]
		if _, err := eu.Exec(p, `INSERT INTO orders (id, item) VALUES (4, 'thing-4')`); err != nil {
			t.Error(err)
			return
		}
		res, err = eu.Exec(p, `SELECT crdb_region FROM orders WHERE id = 4`)
		if err != nil || res.Rows[0][0] != "europe-west2" {
			t.Errorf("%v %v", res, err)
		}
	})
}

func TestSQLDuplicateIndexesBaseline(t *testing.T) {
	h := newSQLHarness(11)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `CREATE TABLE dup_codes (code STRING PRIMARY KEY, v STRING) WITH DUPLICATE INDEXES`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		// Writes fan out to all index copies (slow).
		start := p.Now()
		if _, err := s.Exec(p, `INSERT INTO dup_codes (code, v) VALUES ('A', '1')`); err != nil {
			t.Error(err)
			return
		}
		writeLat := p.Now().Sub(start)
		if writeLat < 100*sim.Millisecond {
			t.Errorf("dup-index write took %v; expected multi-region fan-out", writeLat)
		}
		// Reads use the local pinned copy (fast) in every region.
		for r, sess := range h.sessions {
			sess.Database = "movr"
			start := p.Now()
			res, err := sess.Exec(p, `SELECT v FROM dup_codes WHERE code = 'A'`)
			if err != nil || len(res.Rows) != 1 {
				t.Errorf("%s: %v %v", r, res, err)
				return
			}
			if d := p.Now().Sub(start); d > 10*sim.Millisecond {
				t.Errorf("%s: dup-index read took %v, want local", r, d)
			}
		}
	})
}

func TestSQLMultiStatementTxn(t *testing.T) {
	h := newSQLHarness(12)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		err := s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := s.ExecTxn(p, tx, `INSERT INTO users (id, email, name) VALUES (50, 'txn@x.com', 'before')`); err != nil {
				return err
			}
			if _, err := s.ExecTxn(p, tx, `UPDATE users SET name = 'after' WHERE id = 50`); err != nil {
				return err
			}
			res, err := s.ExecTxn(p, tx, `SELECT name FROM users WHERE id = 50`)
			if err != nil {
				return err
			}
			// Read-your-writes inside the transaction.
			if len(res.Rows) != 1 || res.Rows[0][0] != "after" {
				return fmt.Errorf("read-your-writes failed: %v", res.Rows)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		res, _ := s.Exec(p, `SELECT name FROM users WHERE id = 50`)
		if len(res.Rows) != 1 || res.Rows[0][0] != "after" {
			t.Errorf("committed state: %v", res.Rows)
		}
	})
}

func TestSQLDeleteAndScan(t *testing.T) {
	h := newSQLHarness(13)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		for i := 1; i <= 5; i++ {
			if _, err := s.Exec(p, fmt.Sprintf(`INSERT INTO users (id, email, name) VALUES (%d, 'u%d@x.com', 'user%d')`, i, i, i)); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := s.Exec(p, `DELETE FROM users WHERE id = 3`); err != nil {
			t.Error(err)
			return
		}
		res, err := s.Exec(p, `SELECT id FROM users`)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res.Rows) != 4 {
			t.Errorf("full scan rows = %d, want 4", len(res.Rows))
		}
		// Deleted secondary index entry too.
		res, err = s.Exec(p, `SELECT id FROM users WHERE email = 'u3@x.com'`)
		if err != nil || len(res.Rows) != 0 {
			t.Errorf("deleted row still visible via index: %v %v", res, err)
		}
		// LIMIT.
		res, err = s.Exec(p, `SELECT id FROM users LIMIT 2`)
		if err != nil || len(res.Rows) != 2 {
			t.Errorf("limit: %v %v", res, err)
		}
	})
}

func TestSQLSurvivabilityChange(t *testing.T) {
	h := newSQLHarness(14)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (60, 'r@x.com', 'region-survivor')`); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Exec(p, `ALTER DATABASE movr SURVIVE REGION FAILURE`); err != nil {
			t.Errorf("survive region: %v", err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		// Verify the users ranges now have 5 voters spanning regions.
		tbl, _ := h.catalog.Table("movr", "users")
		start, _ := IndexSpan(tbl, PrimaryIndexID, simnet.USEast1)
		desc, err := h.c.Catalog.Lookup(start)
		if err != nil {
			t.Error(err)
			return
		}
		if len(desc.Voters) != 5 {
			t.Errorf("voters after SURVIVE REGION = %d, want 5", len(desc.Voters))
		}
		regions := map[simnet.Region]int{}
		for _, v := range desc.Voters {
			loc, _ := h.c.Topo.LocalityOf(v)
			regions[loc.Region]++
		}
		for r, n := range regions {
			if n > 2 {
				t.Errorf("region %s holds %d of 5 voters", r, n)
			}
		}
		// Data still there; writes work.
		res, err := s.Exec(p, `SELECT name FROM users WHERE id = 60`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("%v %v", res, err)
		}
	})
}

func TestSQLPlacementRestricted(t *testing.T) {
	h := newSQLHarness(15)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		if _, err := s.Exec(p, `ALTER DATABASE movr PLACEMENT RESTRICTED`); err != nil {
			t.Errorf("placement restricted: %v", err)
			return
		}
		p.Sleep(300 * sim.Millisecond)
		// users partitions keep all replicas in their home region…
		tbl, _ := h.catalog.Table("movr", "users")
		start, _ := IndexSpan(tbl, PrimaryIndexID, simnet.USEast1)
		desc, err := h.c.Catalog.Lookup(start)
		if err != nil {
			t.Error(err)
			return
		}
		for _, id := range desc.Replicas() {
			loc, _ := h.c.Topo.LocalityOf(id)
			if loc.Region != simnet.USEast1 {
				t.Errorf("RESTRICTED replica on %s", loc.Region)
			}
		}
		// …but GLOBAL tables are unaffected (§3.3.4).
		gt, _ := h.catalog.Table("movr", "promo_codes")
		gstart, _ := IndexSpan(gt, PrimaryIndexID, "")
		gdesc, err := h.c.Catalog.Lookup(gstart)
		if err != nil {
			t.Error(err)
			return
		}
		regions := map[simnet.Region]bool{}
		for _, id := range gdesc.Replicas() {
			loc, _ := h.c.Topo.LocalityOf(id)
			regions[loc.Region] = true
		}
		if len(regions) != 3 {
			t.Errorf("GLOBAL table restricted too: %v", regions)
		}
	})
}

func TestSQLDeterministicExecution(t *testing.T) {
	runOnce := func() string {
		h := newSQLHarness(42)
		var out string
		h.run(t, func(p *sim.Proc) {
			s := h.setupMovr(t, p)
			for i := 0; i < 10; i++ {
				s.Exec(p, fmt.Sprintf(`INSERT INTO users (id, email, name) VALUES (%d, 'd%d@x.com', 'det')`, i, i))
			}
			res, _ := s.Exec(p, `SELECT id FROM users`)
			out = fmt.Sprintf("%v@%v", res.Rows, p.Now())
		})
		return out
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("nondeterministic SQL execution:\n%s\nvs\n%s", a, b)
	}
}
