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

// shapeDelta returns a function that reports how many shapes c's
// statements reused (hits) and derived (misses) since shapeDelta was
// called.
func shapeDelta(c *Catalog) func() (hits, misses uint64) {
	h0, m0 := c.PlanCacheStats()
	return func() (uint64, uint64) {
		h, m := c.PlanCacheStats()
		return h - h0, m - m0
	}
}

// mustExecPrepared executes ps with args and fails the test on error.
func mustExecPrepared(t *testing.T, p *sim.Proc, s *Session, ps *Prepared, args ...Datum) *Result {
	t.Helper()
	res, err := s.ExecPrepared(p, ps, args...)
	if err != nil {
		t.Fatalf("%s %v: %v", Fingerprint(ps.Stmt), args, err)
	}
	return res
}

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

// TestPlanCacheHitMissAndDDLInvalidation covers a prepared statement's
// shape lifecycle: the first execution derives the shape, re-execution
// reuses it, and any DDL (here CREATE INDEX) makes the next execution
// derive it again against the new schema.
func TestPlanCacheHitMissAndDDLInvalidation(t *testing.T) {
	h := newSQLHarness(921)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice'), (2, 'b@x.com', 'bob')`)

		ps := s.MustPrepare(`SELECT name FROM users WHERE id = $1 AND crdb_region = 'us-east1'`)
		delta := shapeDelta(h.catalog)
		mustExecPrepared(t, p, s, ps, int64(1))
		if hits, misses := delta(); hits != 0 || misses != 1 {
			t.Errorf("first execution: hits=%d misses=%d, want 0 and 1", hits, misses)
		}
		delta = shapeDelta(h.catalog)
		res := mustExecPrepared(t, p, s, ps, int64(1))
		if hits, misses := delta(); hits != 1 || misses != 0 {
			t.Errorf("re-execution: hits=%d misses=%d, want 1 and 0", hits, misses)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
			t.Errorf("reused shape read %v", res.Rows)
		}

		// DDL: the shape is derived again, and a statement the new index
		// serves reads through it.
		mustExec(t, p, s, `CREATE UNIQUE INDEX users_name_idx ON users (name)`)
		delta = shapeDelta(h.catalog)
		mustExecPrepared(t, p, s, ps, int64(1))
		if hits, misses := delta(); hits != 0 || misses != 1 {
			t.Errorf("post-DDL execution: hits=%d misses=%d, want 0 and 1", hits, misses)
		}
		res = mustExec(t, p, s, `SELECT id FROM users WHERE name = 'bob'`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
			t.Errorf("read through new index returned %v", res.Rows)
		}
	})
}

// TestPlanCacheAlterLocalityInvalidation pins the stale-shape hazard of
// ALTER TABLE ... SET LOCALITY: a prepared shape of the old partitioning
// must not survive the repartition.
func TestPlanCacheAlterLocalityInvalidation(t *testing.T) {
	h := newSQLHarness(922)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO promo_codes (code, description) VALUES ('GO', 'ten percent off')`)

		ps := s.MustPrepare(`SELECT description FROM promo_codes WHERE code = $1`)
		mustExecPrepared(t, p, s, ps, "GO")
		delta := shapeDelta(h.catalog)
		mustExecPrepared(t, p, s, ps, "GO")
		if hits, _ := delta(); hits != 1 {
			t.Fatalf("warmup: %d hits, want 1", hits)
		}

		// GLOBAL -> REGIONAL BY ROW moves every row under a region-prefixed
		// key; the old unpartitioned shape would read the old key span.
		mustExec(t, p, s, `ALTER TABLE promo_codes SET LOCALITY REGIONAL BY ROW`)
		delta = shapeDelta(h.catalog)
		res := mustExecPrepared(t, p, s, ps, "GO")
		if hits, misses := delta(); hits != 0 || misses != 1 {
			t.Errorf("post-ALTER execution: hits=%d misses=%d, want 0 and 1", hits, misses)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "ten percent off" {
			t.Errorf("read after repartition returned %v", res.Rows)
		}
	})
}

// TestPlanCacheAddDropRegionInvalidation pins the subtlest invalidation: a
// search-mode shape holds the partition probe order, so ALTER DATABASE ADD
// REGION must make it derive again or rows homed in the new region would be
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

		// Warm a search-mode shape: id alone does not constrain the region,
		// so the shape holds the two-region probe order.
		ps := s.MustPrepare(`SELECT balance FROM accts WHERE id = $1`)
		mustExecPrepared(t, p, s, ps, int64(1))
		delta := shapeDelta(h.catalog)
		mustExecPrepared(t, p, s, ps, int64(1))
		if hits, _ := delta(); hits != 1 {
			t.Fatalf("warmup: %d hits, want 1", hits)
		}

		p.Sleep(10 * sim.Second) // let partition ranges settle before reconfiguring
		mustExec(t, p, s, `ALTER DATABASE bank ADD REGION "asia-northeast1"`)
		p.Sleep(500 * sim.Millisecond)
		mustExec(t, p, s, `INSERT INTO accts (id, balance, crdb_region) VALUES (7, 700, 'asia-northeast1')`)
		res := mustExecPrepared(t, p, s, ps, int64(7))
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(700) {
			t.Fatalf("row homed in the added region is invisible: %v (stale probe order?)", res.Rows)
		}

		// Drop the region again (after evacuating its row) and make sure the
		// re-derived probe order still finds the surviving rows.
		mustExec(t, p, s, `DELETE FROM accts WHERE id = 7`)
		mustExec(t, p, s, `ALTER DATABASE bank DROP REGION "asia-northeast1"`)
		delta = shapeDelta(h.catalog)
		res = mustExecPrepared(t, p, s, ps, int64(1))
		if hits, misses := delta(); hits != 0 || misses != 1 {
			t.Errorf("post-DROP execution: hits=%d misses=%d, want 0 and 1", hits, misses)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(100) {
			t.Errorf("read after DROP REGION returned %v", res.Rows)
		}
	})
}

// TestPreparedShapeValidity executes one prepared statement across every
// change a shape depends on and requires each execution to return what a
// fresh ad-hoc execution of the same text returns, to bind the plan a fresh
// derivation binds, and to derive its shape exactly when the change is one
// the shape depends on: the catalog version (CREATE INDEX, SET LOCALITY,
// ADD/DROP REGION), the gateway region and the session's database. The
// locality-optimized-search setting is bound per execution, so turning it
// off reuses the shape.
func TestPreparedShapeValidity(t *testing.T) {
	h := newSQLHarness(927)
	h.run(t, func(p *sim.Proc) {
		us, eu := h.sessions[simnet.USEast1], h.sessions[simnet.EuropeW2]
		for _, stmt := range []string{
			`CREATE DATABASE a PRIMARY REGION "us-east1" REGIONS "europe-west2"`,
			`CREATE DATABASE b PRIMARY REGION "us-east1" REGIONS "europe-west2"`,
		} {
			mustExec(t, p, us, stmt)
		}
		us.Database, eu.Database = "b", "b"
		mustExec(t, p, us, `CREATE TABLE kv (k INT PRIMARY KEY, v STRING) LOCALITY GLOBAL`)
		us.Database, eu.Database = "a", "a"
		mustExec(t, p, us, `CREATE TABLE kv (k INT PRIMARY KEY, v STRING) LOCALITY REGIONAL BY ROW`)
		p.Sleep(500 * sim.Millisecond)
		mustExec(t, p, us, `INSERT INTO kv (k, v, crdb_region) VALUES (1, 'x', 'us-east1'), (2, 'y', 'europe-west2')`)
		us.Database = "b"
		mustExec(t, p, us, `INSERT INTO kv (k, v) VALUES (7, 'y')`)
		us.Database = "a"
		p.Sleep(2 * sim.Second)

		// v has no index at first, so the statement scans every partition,
		// gateway first; a unique index on v turns it into a point lookup
		// that locality-optimized search may serve.
		const text = `SELECT k FROM kv WHERE v = $1`
		ps := us.MustPrepare(text)
		exec := func(step string, gs *Session, v string, derive bool) {
			t.Helper()
			delta := shapeDelta(h.catalog)
			got := renderResult(mustExecPrepared(t, p, gs, ps, v))
			hits, misses := delta()
			if want := renderResult(mustExec(t, p, gs, strings.Replace(text, "$1", "'"+v+"'", 1))); got != want {
				t.Errorf("%s: prepared read %s, ad hoc %s", step, got, want)
			}
			if derive && misses != 1 || !derive && (misses != 0 || hits == 0) {
				t.Errorf("%s: hits=%d misses=%d, derive=%v", step, hits, misses, derive)
			}
			if reused, fresh := planOf(t, gs, ps, []Datum{v}), planOf(t, gs, newPrepared(ps.Stmt), []Datum{v}); reused != fresh {
				t.Errorf("%s: the reused shape binds\n %s\na fresh derivation binds\n %s", step, reused, fresh)
			}
		}
		steps := []struct {
			name   string
			change string // a statement us runs first, if any
			gs     *Session
			v      string
			derive bool
		}{
			{"first execution", "", us, "y", true},
			{"unchanged", "", us, "x", false},
			{"after CREATE INDEX", `CREATE UNIQUE INDEX kv_v_idx ON kv (v)`, us, "y", true},
			{"after SET enable_locality_optimized_search = off", `SET enable_locality_optimized_search = off`, us, "y", false},
			{"after SET enable_locality_optimized_search = on", `SET enable_locality_optimized_search = on`, us, "y", false},
			{"from another region's gateway", "", eu, "x", true},
			{"back at the first gateway", "", us, "x", true},
			{"after ADD REGION", `ALTER DATABASE a ADD REGION "asia-northeast1"`, us, "x", true},
			{"a row homed in the added region", `INSERT INTO kv (k, v, crdb_region) VALUES (3, 'z', 'asia-northeast1')`, us, "z", false},
			{"after evacuating the added region", `DELETE FROM kv WHERE k = 3`, us, "y", false},
			{"after DROP REGION", `ALTER DATABASE a DROP REGION "asia-northeast1"`, us, "y", true},
			{"after SET LOCALITY", `ALTER TABLE kv SET LOCALITY GLOBAL`, us, "y", true},
			{"after the session's database changes", `SET database = b`, us, "y", true},
		}
		for _, st := range steps {
			if st.change != "" {
				if strings.HasPrefix(st.change, "ALTER DATABASE") {
					p.Sleep(10 * sim.Second) // let partition ranges settle before reconfiguring
				}
				mustExec(t, p, us, st.change)
				p.Sleep(500 * sim.Millisecond)
			}
			exec(st.name, st.gs, st.v, st.derive)
		}
	})
}

// TestExplainAnalyzeDerivesItsShape: an ad-hoc EXPLAIN ANALYZE derives its
// statement's shape every time — one miss and no hit per run, however often
// the same text runs — and renders no plan-cache line.
func TestExplainAnalyzeDerivesItsShape(t *testing.T) {
	h := newSQLHarness(923)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)

		q := `EXPLAIN ANALYZE SELECT name FROM users WHERE id = 1 AND crdb_region = 'us-east1'`
		for run := 1; run <= 2; run++ {
			delta := shapeDelta(h.catalog)
			res := mustExec(t, p, s, q)
			if hits, misses := delta(); hits != 0 || misses != 1 {
				t.Errorf("EXPLAIN ANALYZE %d: hits=%d misses=%d, want 0 and 1", run, hits, misses)
			}
			if got := eaField(t, res, "rows"); got != "1" {
				t.Errorf("EXPLAIN ANALYZE %d: rows = %s, want 1", run, got)
			}
			for _, row := range res.Rows {
				if row[0] == "plan cache" {
					t.Errorf("EXPLAIN ANALYZE %d renders %v", run, row)
				}
			}
		}
	})
}

// TestPreparedStatements covers the prepared-statement surface: placeholder
// binding, result correctness across rebinds and arity checking.
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
	})
}

// TestPlanCacheAblationMetamorphicDeterminism is shape reuse's core safety
// property: the full elastic loop — load splits, merges, lease moves, a
// region added and dropped mid-run — produces byte-identical span trees,
// statement statistics and mrdb_internal.ranges output whether its reads
// run as one prepared statement, which reuses its shape, or as ad-hoc
// statements, each deriving its own. Reusing a shape may only cut
// wall-clock planning cost, never change what the simulation does.
func TestPlanCacheAblationMetamorphicDeterminism(t *testing.T) {
	prepared := runElasticLoop(t, 911, false)
	adHoc := runElasticLoop(t, 911, true)
	if prepared.spanHash != adHoc.spanHash {
		t.Errorf("span hash differs prepared vs ad hoc: %016x vs %016x", prepared.spanHash, adHoc.spanHash)
	}
	if prepared.ranges != adHoc.ranges {
		t.Errorf("mrdb_internal.ranges differs prepared vs ad hoc:\n--- prepared:\n%s--- ad hoc:\n%s", prepared.ranges, adHoc.ranges)
	}
	if prepared.stats == "" {
		t.Error("no statement statistics recorded")
	}
	if prepared.stats != adHoc.stats {
		t.Errorf("statement statistics differ prepared vs ad hoc:\n--- prepared:\n%s--- ad hoc:\n%s", prepared.stats, adHoc.stats)
	}
	if prepared.loadSplits != adHoc.loadSplits || prepared.merges != adHoc.merges || prepared.leaseMoves != adHoc.leaseMoves {
		t.Errorf("decision counts differ: prepared splits=%d merges=%d leases=%d, ad hoc splits=%d merges=%d leases=%d",
			prepared.loadSplits, prepared.merges, prepared.leaseMoves, adHoc.loadSplits, adHoc.merges, adHoc.leaseMoves)
	}
	if prepared.hits == 0 || adHoc.hits != 0 {
		t.Errorf("shape reuses: prepared %d, ad hoc %d; want some and none", prepared.hits, adHoc.hits)
	}
}

// TestPlanCacheManySessionsSmoke interleaves many sessions executing
// prepared statements while DDL invalidates their shapes mid-flight; CI
// runs it under -race with the rest of the package.
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
		// Invalidate every shape twice while the workers churn.
		p.Sleep(300 * sim.Millisecond)
		mustExec(t, p, s, `CREATE UNIQUE INDEX users_name_idx ON users (name)`)
		p.Sleep(300 * sim.Millisecond)
		mustExec(t, p, s, `ALTER TABLE promo_codes SET LOCALITY REGIONAL BY ROW`)
		wg.Wait(p)
		hits, misses := h.catalog.PlanCacheStats()
		if hits == 0 {
			t.Errorf("no shape reused across %d sessions (misses=%d)", workers, misses)
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
// point read through the full SQL+KV stack (its shape reused).
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
// single-row INSERT through the full SQL+KV stack (its shape reused).
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
