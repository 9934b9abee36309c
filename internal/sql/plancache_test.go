package sql

import (
	"fmt"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// mustExec executes one statement and fails the test on error.
func mustExec(t *testing.T, p *sim.Proc, s *Session, stmt string) *Result {
	t.Helper()
	res, err := s.Exec(p, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// mustExecTxn executes one statement inside tx and fails the test on error.
func mustExecTxn(t *testing.T, p *sim.Proc, s *Session, tx *txn.Txn, stmt string) *Result {
	t.Helper()
	res, err := s.ExecTxn(p, tx, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// TestPlanCacheHitMissAndDDLInvalidation covers the cache's basic
// lifecycle: first execution of a statement shape misses and populates the
// cache, re-execution hits, and any DDL (here CREATE INDEX) drops every
// cached plan so the next execution replans against the new schema.
func TestPlanCacheHitMissAndDDLInvalidation(t *testing.T) {
	h := newSQLHarness(921)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice'), (2, 'b@x.com', 'bob')`)

		q := `SELECT name FROM users WHERE id = 1 AND crdb_region = 'us-east1'`
		mustExec(t, p, s, q)
		if s.lastPlanCache != planCacheMiss {
			t.Errorf("first execution: plan cache = %q, want miss", s.lastPlanCache)
		}
		res := mustExec(t, p, s, q)
		if s.lastPlanCache != planCacheHit {
			t.Errorf("re-execution: plan cache = %q, want hit", s.lastPlanCache)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
			t.Errorf("cached read returned %v", res.Rows)
		}
		if n := h.catalog.PlanCacheLen(); n == 0 {
			t.Error("cache is empty after a miss that should have populated it")
		}
		hits, misses := h.catalog.PlanCacheStats()
		if hits == 0 || misses == 0 {
			t.Errorf("stats: hits=%d misses=%d, want both non-zero", hits, misses)
		}

		// DDL: every cached shape is dropped, and the replanned statement
		// sees the new index.
		mustExec(t, p, s, `CREATE UNIQUE INDEX users_name_idx ON users (name)`)
		if n := h.catalog.PlanCacheLen(); n != 0 {
			t.Errorf("cache holds %d plans after DDL, want 0", n)
		}
		mustExec(t, p, s, q)
		if s.lastPlanCache != planCacheMiss {
			t.Errorf("post-DDL execution: plan cache = %q, want miss", s.lastPlanCache)
		}
		res = mustExec(t, p, s, `SELECT id FROM users WHERE name = 'bob'`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
			t.Errorf("read through new index returned %v", res.Rows)
		}
	})
}

// TestPlanCacheAlterLocalityInvalidation pins the stale-plan hazard of
// ALTER TABLE ... SET LOCALITY: a cached plan against the old partitioning
// must not survive the repartition.
func TestPlanCacheAlterLocalityInvalidation(t *testing.T) {
	h := newSQLHarness(922)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO promo_codes (code, description) VALUES ('GO', 'ten percent off')`)

		q := `SELECT description FROM promo_codes WHERE code = 'GO'`
		mustExec(t, p, s, q)
		res := mustExec(t, p, s, q)
		if s.lastPlanCache != planCacheHit {
			t.Fatalf("warmup: plan cache = %q, want hit", s.lastPlanCache)
		}

		// GLOBAL -> REGIONAL BY ROW moves every row under a region-prefixed
		// key; the cached unpartitioned plan would read the old key span.
		mustExec(t, p, s, `ALTER TABLE promo_codes SET LOCALITY REGIONAL BY ROW`)
		res = mustExec(t, p, s, q)
		if s.lastPlanCache != planCacheMiss {
			t.Errorf("post-ALTER execution: plan cache = %q, want miss", s.lastPlanCache)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "ten percent off" {
			t.Errorf("read after repartition returned %v", res.Rows)
		}
	})
}

// TestPlanCacheAddDropRegionInvalidation pins the subtlest invalidation: a
// cached search-mode plan memoizes the partition probe order, so ALTER
// DATABASE ADD REGION must drop it or rows homed in the new region would be
// invisible to the stale region list. DROP REGION is the mirror image.
func TestPlanCacheAddDropRegionInvalidation(t *testing.T) {
	h := newSQLHarness(924)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		for _, stmt := range []string{
			`CREATE DATABASE bank PRIMARY REGION "us-east1" REGIONS "europe-west2"`,
			`CREATE TABLE accts (id INT PRIMARY KEY, balance INT) LOCALITY REGIONAL BY ROW`,
		} {
			mustExec(t, p, s, stmt)
		}
		s.Database = "bank"
		p.Sleep(500 * sim.Millisecond)
		mustExec(t, p, s, `INSERT INTO accts (id, balance) VALUES (1, 100)`)

		// Warm a search-mode plan: id alone does not constrain the region,
		// so the plan memoizes the two-region probe order.
		q := `SELECT balance FROM accts WHERE id = %d`
		mustExec(t, p, s, fmt.Sprintf(q, 1))
		mustExec(t, p, s, fmt.Sprintf(q, 1))
		if s.lastPlanCache != planCacheHit {
			t.Fatalf("warmup: plan cache = %q, want hit", s.lastPlanCache)
		}

		p.Sleep(10 * sim.Second) // let partition ranges settle before reconfiguring
		mustExec(t, p, s, `ALTER DATABASE bank ADD REGION "asia-northeast1"`)
		p.Sleep(500 * sim.Millisecond)
		mustExec(t, p, s, `INSERT INTO accts (id, balance, crdb_region) VALUES (7, 700, 'asia-northeast1')`)
		res := mustExec(t, p, s, fmt.Sprintf(q, 7))
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(700) {
			t.Fatalf("row homed in the added region is invisible: %v (stale cached probe order?)", res.Rows)
		}

		// Drop the region again (after evacuating its row) and make sure the
		// replanned probe order still finds the surviving rows.
		mustExec(t, p, s, `DELETE FROM accts WHERE id = 7`)
		mustExec(t, p, s, `ALTER DATABASE bank DROP REGION "asia-northeast1"`)
		res = mustExec(t, p, s, fmt.Sprintf(q, 1))
		if s.lastPlanCache != planCacheMiss {
			t.Errorf("post-DROP execution: plan cache = %q, want miss", s.lastPlanCache)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(100) {
			t.Errorf("read after DROP REGION returned %v", res.Rows)
		}
	})
}

// TestExplainAnalyzePlanCacheLine pins the introspection surface: EXPLAIN
// ANALYZE renders the plan-cache outcome of the analyzed statement.
func TestExplainAnalyzePlanCacheLine(t *testing.T) {
	h := newSQLHarness(923)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)

		q := `EXPLAIN ANALYZE SELECT name FROM users WHERE id = 1 AND crdb_region = 'us-east1'`
		res := mustExec(t, p, s, q)
		if got := eaField(t, res, "plan cache"); got != "miss" {
			t.Errorf("first EXPLAIN ANALYZE: plan cache = %q, want miss", got)
		}
		res = mustExec(t, p, s, q)
		if got := eaField(t, res, "plan cache"); got != "hit" {
			t.Errorf("second EXPLAIN ANALYZE: plan cache = %q, want hit", got)
		}

		h.catalog.noPlanCache = true
		res = mustExec(t, p, s, q)
		if got := eaField(t, res, "plan cache"); got != "off" {
			t.Errorf("reference planner: plan cache = %q, want off", got)
		}
		h.catalog.noPlanCache = false
	})
}

// TestPreparedStatements covers the prepared-statement surface: placeholder
// binding, result correctness across rebinds, and fingerprint sharing with
// the ad-hoc form of the same statement.
func TestPreparedStatements(t *testing.T) {
	h := newSQLHarness(926)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)

		ins := s.MustPrepare(`INSERT INTO users (id, email, name) VALUES ($1, $2, $3)`)
		for i := 1; i <= 3; i++ {
			if _, err := s.ExecPrepared(p, ins, int64(i), fmt.Sprintf("u%d@x.com", i), fmt.Sprintf("user%d", i)); err != nil {
				t.Fatalf("prepared insert %d: %v", i, err)
			}
		}
		sel := s.MustPrepare(`SELECT name FROM users WHERE id = $1`)
		if sel.NumArgs() != 1 {
			t.Fatalf("NumArgs = %d, want 1", sel.NumArgs())
		}
		for i := 3; i >= 1; i-- {
			res, err := s.ExecPrepared(p, sel, int64(i))
			if err != nil {
				t.Fatalf("prepared select %d: %v", i, err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != fmt.Sprintf("user%d", i) {
				t.Errorf("prepared select %d returned %v", i, res.Rows)
			}
		}
		// Wrong arity is rejected up front.
		if _, err := s.ExecPrepared(p, sel); err == nil {
			t.Error("arity mismatch not rejected")
		}
		// The prepared form and the ad-hoc literal form share a fingerprint,
		// and therefore a cache entry: the ad-hoc execution hits.
		mustExec(t, p, s, `SELECT name FROM users WHERE id = 2`)
		if s.lastPlanCache != planCacheHit {
			t.Errorf("ad-hoc form of prepared statement: plan cache = %q, want hit", s.lastPlanCache)
		}
	})
}

// TestPlanCacheAblationMetamorphicDeterminism is the cache's core safety
// property: the full elastic loop — load splits, merges, lease moves, a
// region added and dropped mid-run — produces byte-identical span trees,
// statement statistics and mrdb_internal.ranges output with the plan cache
// on and off. The cache may only cut wall-clock planning cost, never change
// what the simulation does.
func TestPlanCacheAblationMetamorphicDeterminism(t *testing.T) {
	on := runElasticLoop(t, 911, false)
	off := runElasticLoop(t, 911, true)
	if on.spanHash != off.spanHash {
		t.Errorf("span hash differs cache on vs off: %016x vs %016x", on.spanHash, off.spanHash)
	}
	if on.ranges != off.ranges {
		t.Errorf("mrdb_internal.ranges differs cache on vs off:\n--- on:\n%s--- off:\n%s", on.ranges, off.ranges)
	}
	if on.stats == "" {
		t.Error("no statement statistics recorded")
	}
	if on.stats != off.stats {
		t.Errorf("statement statistics differ cache on vs off:\n--- on:\n%s--- off:\n%s", on.stats, off.stats)
	}
	if on.loadSplits != off.loadSplits || on.merges != off.merges || on.leaseMoves != off.leaseMoves {
		t.Errorf("decision counts differ: on splits=%d merges=%d leases=%d, off splits=%d merges=%d leases=%d",
			on.loadSplits, on.merges, on.leaseMoves, off.loadSplits, off.merges, off.leaseMoves)
	}
}

// TestPlanCacheManySessionsSmoke interleaves many sessions executing
// prepared statements against the shared cache while DDL invalidates it
// mid-flight; run under -race in CI it doubles as the cache's race smoke.
func TestPlanCacheManySessionsSmoke(t *testing.T) {
	h := newSQLHarness(925)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)

		const workers = 8
		wg := sim.NewWaitGroup(h.c.Sim)
		wg.Add(workers)
		regions := h.c.Regions()
		for w := 0; w < workers; w++ {
			w := w
			h.c.Sim.Spawn(fmt.Sprintf("worker-%d", w), func(wp *sim.Proc) {
				defer wg.Done()
				ws := NewSession(h.c, h.catalog, h.c.GatewayFor(regions[w%len(regions)]))
				ws.Database = "movr"
				sel := ws.MustPrepare(`SELECT name FROM users WHERE id = $1`)
				ins := ws.MustPrepare(`INSERT INTO users (id, email, name) VALUES ($1, $2, $3)`)
				for i := 0; i < 25; i++ {
					id := int64(100 + w*100 + i)
					if _, err := ws.ExecPrepared(wp, ins, id, fmt.Sprintf("w%d@x.com", id), fmt.Sprintf("w%d", id)); err != nil {
						t.Errorf("worker %d insert: %v", w, err)
						return
					}
					if _, err := ws.ExecPrepared(wp, sel, id); err != nil {
						t.Errorf("worker %d select: %v", w, err)
						return
					}
					wp.Sleep(sim.Duration(w+1) * 7 * sim.Millisecond)
				}
			})
		}
		// Invalidate the shared cache twice while the workers churn.
		p.Sleep(300 * sim.Millisecond)
		mustExec(t, p, s, `CREATE UNIQUE INDEX users_name_idx ON users (name)`)
		p.Sleep(300 * sim.Millisecond)
		mustExec(t, p, s, `ALTER TABLE promo_codes SET LOCALITY REGIONAL BY ROW`)
		wg.Wait(p)
		hits, misses := h.catalog.PlanCacheStats()
		if hits == 0 {
			t.Errorf("no cache hits across %d sessions (misses=%d)", workers, misses)
		}
	})
}

// benchSQLCluster builds a three-region cluster with a movr-style schema
// and one warm row, returning the cluster and a us-east1 session.
func benchSQLCluster(b *testing.B, seed int64) (*cluster.Cluster, *Session) {
	b.Helper()
	c := cluster.New(cluster.Config{Seed: seed, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	catalog := NewCatalog()
	s := NewSession(c, catalog, c.GatewayFor(simnet.USEast1))
	c.Sim.Spawn("setup", func(p *sim.Proc) {
		p.Sleep(100 * sim.Millisecond)
		for _, stmt := range []string{
			`CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
			`CREATE TABLE users (id INT PRIMARY KEY, email STRING, name STRING) LOCALITY REGIONAL BY ROW`,
		} {
			if _, err := s.Exec(p, stmt); err != nil {
				b.Errorf("%s: %v", stmt, err)
				return
			}
		}
		s.Database = "movr"
		if _, err := s.Exec(p, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`); err != nil {
			b.Error(err)
		}
	})
	c.Sim.RunFor(5 * sim.Second)
	return c, s
}

// BenchmarkExecPointRead measures the wall-clock cost of one prepared
// point read through the full SQL+KV stack (plan cache on).
func BenchmarkExecPointRead(b *testing.B) {
	c, s := benchSQLCluster(b, 11)
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		ps := s.MustPrepare(`SELECT name FROM users WHERE id = $1 AND crdb_region = 'us-east1'`)
		if _, err := s.ExecPrepared(p, ps, int64(1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecPrepared(p, ps, int64(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	c.Sim.Run()
}

// BenchmarkExecInsert measures the wall-clock cost of one prepared
// single-row INSERT through the full SQL+KV stack (plan cache on).
func BenchmarkExecInsert(b *testing.B) {
	c, s := benchSQLCluster(b, 12)
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		ps := s.MustPrepare(`INSERT INTO users (id, email, name) VALUES ($1, $2, $3)`)
		if _, err := s.ExecPrepared(p, ps, int64(2), "b@x.com", "bob"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecPrepared(p, ps, int64(1000+i), "x@x.com", "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
	c.Sim.Run()
}
