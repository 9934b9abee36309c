package sql

import (
	"strconv"
	"strings"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// setupMovrSurvivable is setupMovr with SURVIVE REGION FAILURE, the
// configuration under which the paper's §7.2 claims hold: a REGIONAL BY
// ROW home write needs exactly one inter-region quorum trip (2/2/1 voter
// spread, quorum 3, two local voters) and no commit-wait.
func (h *sqlHarness) setupMovrSurvivable(t *testing.T, p *sim.Proc) *Session {
	t.Helper()
	s := h.sessions[simnet.USEast1]
	stmts := []string{
		`CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
		`ALTER DATABASE movr SURVIVE REGION FAILURE`,
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

// eaField extracts one field's value from an EXPLAIN ANALYZE result.
func eaField(t *testing.T, res *Result, field string) string {
	t.Helper()
	for _, row := range res.Rows {
		if row[0] == field {
			return row[1].(string)
		}
	}
	t.Fatalf("EXPLAIN ANALYZE output has no field %q: %v", field, res.Rows)
	return ""
}

// TestExplainAnalyzeRegionalHomeWrite pins the paper's §7.2 claim at the
// EXPLAIN ANALYZE surface: a point write to a REGIONAL BY ROW table from
// its home region pays exactly one inter-region quorum round trip and zero
// commit-wait, matching the PR 2 trace assertions.
func TestExplainAnalyzeRegionalHomeWrite(t *testing.T) {
	h := newSQLHarness(502)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovrSurvivable(t, p)
		// A pure point write: no uniqueness-check reads alongside it.
		s.UniquenessChecks = false
		res, err := s.Exec(p, `EXPLAIN ANALYZE INSERT INTO users (id, name) VALUES (1, 'alice')`)
		if err != nil {
			t.Fatal(err)
		}
		if got := eaField(t, res, "inter-region quorum trips"); got != "1" {
			t.Errorf("inter-region quorum trips = %s, want 1", got)
		}
		if got := eaField(t, res, "raft quorum trips"); got != "1" {
			t.Errorf("raft quorum trips = %s, want 1", got)
		}
		if got := eaField(t, res, "commit wait"); got != "0s" {
			t.Errorf("commit wait = %s, want 0s", got)
		}
		if got := eaField(t, res, "rows affected"); got != "1" {
			t.Errorf("rows affected = %s, want 1", got)
		}
		// The write took effect despite the EXPLAIN wrapper.
		sel, err := s.Exec(p, `SELECT name FROM users WHERE id = 1 AND crdb_region = 'us-east1'`)
		if err != nil || len(sel.Rows) != 1 {
			t.Fatalf("analyzed INSERT did not persist: %v %v", sel, err)
		}
		// EXPLAIN ANALYZE turned tracing on only for the statement.
		if h.c.Tracer.Enabled() {
			t.Error("tracer left enabled after EXPLAIN ANALYZE")
		}
	})
}

// TestExplainAnalyzeGlobalWrite pins the flip side: a GLOBAL table write
// commits in the future and must commit-wait (§4.4), which EXPLAIN ANALYZE
// reports as a nonzero commit-wait duration.
func TestExplainAnalyzeGlobalWrite(t *testing.T) {
	h := newSQLHarness(503)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovrSurvivable(t, p)
		res, err := s.Exec(p, `EXPLAIN ANALYZE INSERT INTO promo_codes (code, description) VALUES ('SAVE10', 'ten percent off')`)
		if err != nil {
			t.Fatal(err)
		}
		wait := eaField(t, res, "commit wait")
		d, perr := parseDuration(wait)
		if perr != nil || d <= 0 {
			t.Errorf("commit wait = %q, want a positive duration", wait)
		}
	})
}

// TestShowRangesLeaseEpoch covers the SHOW RANGES extension: every range
// reports the liveness epoch its lease is bound to.
func TestShowRangesLeaseEpoch(t *testing.T) {
	h := newSQLHarness(504)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		res, err := s.Exec(p, `SHOW RANGES FROM TABLE users`)
		if err != nil {
			t.Fatal(err)
		}
		idx := -1
		for i, c := range res.Columns {
			if c == "lease_epoch" {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("no lease_epoch column in %v", res.Columns)
		}
		for _, row := range res.Rows {
			if epoch, ok := row[idx].(int64); !ok || epoch < 1 {
				t.Errorf("lease_epoch = %v, want >= 1", row[idx])
			}
		}
	})
}

// virtualTables is the full mrdb_internal catalog.
var virtualTables = []string{
	"statement_statistics", "contention_events", "ranges", "node_liveness", "net_links",
}

// renderResult gives a canonical byte rendering of a result for
// determinism comparisons.
func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(FormatDatum(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestVirtualTablesDeterministic runs the same workload under the same seed
// twice and requires byte-identical SELECT * output from every
// mrdb_internal table, plus sanity on their shape.
func TestVirtualTablesDeterministic(t *testing.T) {
	runOnce := func() map[string]string {
		out := map[string]string{}
		h := newSQLHarness(505)
		h.run(t, func(p *sim.Proc) {
			s := h.setupMovr(t, p)
			for _, stmt := range []string{
				`INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice'), (2, 'b@x.com', 'bob')`,
				`SELECT * FROM users WHERE id = 1`,
				`SELECT * FROM users WHERE id = 9`,
				`UPDATE users SET name = 'al' WHERE id = 1`,
			} {
				if _, err := s.Exec(p, stmt); err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
			}
			for _, vt := range virtualTables {
				res, err := s.Exec(p, `SELECT * FROM mrdb_internal.`+vt)
				if err != nil {
					t.Errorf("select from %s: %v", vt, err)
					return
				}
				out[vt] = renderResult(res)
			}
		})
		return out
	}
	first, second := runOnce(), runOnce()
	for _, vt := range virtualTables {
		if first[vt] != second[vt] {
			t.Errorf("%s differs across same-seed runs:\n%s\nvs\n%s", vt, first[vt], second[vt])
		}
	}
	// Shape sanity: the workload above must surface statistics and state.
	if !strings.Contains(first["statement_statistics"], "INSERT INTO users") {
		t.Errorf("statement_statistics missing INSERT fingerprint:\n%s", first["statement_statistics"])
	}
	if strings.Count(first["ranges"], "\n") < 2 {
		t.Errorf("ranges nearly empty:\n%s", first["ranges"])
	}
	if strings.Count(first["node_liveness"], "\n") != 10 { // header + 9 nodes
		t.Errorf("node_liveness rows:\n%s", first["node_liveness"])
	}
	if strings.Count(first["net_links"], "\n") != 7 { // header + 6 region pairs
		t.Errorf("net_links rows:\n%s", first["net_links"])
	}
}

// TestVirtualTableSemantics covers filtering, projection, LIMIT,
// read-only enforcement, and that no current database is required.
func TestVirtualTableSemantics(t *testing.T) {
	h := newSQLHarness(506)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		// A fresh session with no current database can still introspect.
		fresh := NewSession(h.c, h.catalog, h.c.GatewayFor(simnet.EuropeW2))
		res, err := fresh.Exec(p, `SELECT node_id, region FROM mrdb_internal.node_liveness WHERE region = 'europe-west2' LIMIT 2`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Columns) != 2 || len(res.Rows) != 2 {
			t.Errorf("filtered projection: %v %v", res.Columns, res.Rows)
		}
		for _, row := range res.Rows {
			if row[1] != "europe-west2" {
				t.Errorf("WHERE not applied: %v", row)
			}
		}
		if _, err := fresh.Exec(p, `INSERT INTO mrdb_internal.ranges (range_id) VALUES (1)`); err == nil ||
			!strings.Contains(err.Error(), "read-only") {
			t.Errorf("write to virtual table: err = %v, want read-only error", err)
		}
		if _, err := fresh.Exec(p, `DELETE FROM mrdb_internal.node_liveness`); err == nil ||
			!strings.Contains(err.Error(), "read-only") {
			t.Errorf("delete from virtual table: err = %v, want read-only error", err)
		}
		if _, err := fresh.Exec(p, `SELECT * FROM mrdb_internal.nonexistent`); err == nil {
			t.Error("unknown virtual table did not error")
		}
	})
}

// TestFingerprintNormalization pins the fingerprinting scheme: literals
// normalize away, multi-row VALUES collapse, IN lists collapse.
func TestFingerprintNormalization(t *testing.T) {
	fp := func(q string) string {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return Fingerprint(stmt)
	}
	a := fp(`INSERT INTO users (id, name) VALUES (1, 'alice')`)
	b := fp(`INSERT INTO users (id, name) VALUES (42, 'bob')`)
	if a != b {
		t.Errorf("literal normalization: %q vs %q", a, b)
	}
	if want := "INSERT INTO users (id, name) VALUES (_, _)"; a != want {
		t.Errorf("fingerprint = %q, want %q", a, want)
	}
	multi := fp(`INSERT INTO users (id, name) VALUES (1, 'a'), (2, 'b')`)
	if want := "INSERT INTO users (id, name) VALUES (_, _), ..."; multi != want {
		t.Errorf("multi-row fingerprint = %q, want %q", multi, want)
	}
	s1 := fp(`SELECT name FROM users WHERE id = 7 LIMIT 3`)
	s2 := fp(`SELECT name FROM users WHERE id = 9 LIMIT 5`)
	if s1 != s2 {
		t.Errorf("select normalization: %q vs %q", s1, s2)
	}
	in1 := fp(`SELECT * FROM users WHERE id IN (1, 2, 3)`)
	in2 := fp(`SELECT * FROM users WHERE id IN (4)`)
	if in1 != in2 || !strings.Contains(in1, "IN (_)") {
		t.Errorf("IN collapse: %q vs %q", in1, in2)
	}
	up := fp(`UPDATE users SET name = 'x' WHERE id = 1`)
	if want := "UPDATE users SET name = _ WHERE id = _"; up != want {
		t.Errorf("update fingerprint = %q, want %q", up, want)
	}
}

// TestExplainAnalyzeBatchedMultiRangeInsert is the acceptance check for the
// batched, range-aware dispatch: a 10-row INSERT spanning all three
// partitions of a REGIONAL BY ROW table reports KV batches and RPCs bounded
// by touched ranges per phase — not by row count — while "kv requests"
// still reflects the per-row work carried inside those batches.
func TestExplainAnalyzeBatchedMultiRangeInsert(t *testing.T) {
	h := newSQLHarness(507)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovrSurvivable(t, p)
		s.UniquenessChecks = false // local checks remain, as write conditions; no remote fan-out
		res, err := s.Exec(p, `EXPLAIN ANALYZE INSERT INTO users (id, email, name, crdb_region) VALUES
			(1, '1@x', 'a', 'us-east1'), (2, '2@x', 'b', 'europe-west2'), (3, '3@x', 'c', 'asia-northeast1'),
			(4, '4@x', 'd', 'us-east1'), (5, '5@x', 'e', 'europe-west2'), (6, '6@x', 'f', 'asia-northeast1'),
			(7, '7@x', 'g', 'us-east1'), (8, '8@x', 'h', 'europe-west2'), (9, '9@x', 'i', 'asia-northeast1'),
			(10, '10@x', 'j', 'us-east1')`)
		if err != nil {
			t.Fatal(err)
		}
		if got := eaField(t, res, "rows affected"); got != "10" {
			t.Errorf("rows affected = %s, want 10", got)
		}
		num := func(field string) int {
			v, err := strconv.Atoi(eaField(t, res, field))
			if err != nil {
				t.Fatalf("%s = %q, want a number", field, eaField(t, res, field))
			}
			return v
		}
		// Per-row work is still all there: 20 index-entry writes, 20 intent
		// proofs and the commit. The uniqueness probes of each row's own
		// partition ride the writes as their conditions, so there is no probe
		// phase ...
		if reqs := num("kv requests"); reqs != 41 {
			t.Errorf("kv requests = %d, want 41 (20 writes + 20 proofs + 1 commit)", reqs)
		}
		// ... and it rides in phases x touched-ranges batches: the statement
		// touches 6 ranges (3 row partitions + 3 email-index ranges), so the
		// writes and the intent proofs cost 6 RPCs each, plus 1 commit = 13.
		// Before batching, every request was its own RPC; before the probes
		// became conditions, a third phase of 6 probe RPCs came first.
		if batches := num("kv batches"); batches != 13 {
			t.Errorf("kv batches = %d, want 13 (two phases x 6 ranges + commit)", batches)
		}
		if rpcs := num("kv rpcs"); rpcs != 13 {
			t.Errorf("kv rpcs = %d, want 13 (one per batch, bounded by touched ranges, not rows)", rpcs)
		}
		// A scan over the split table fans out across the partitions and
		// merges every row back in key order.
		sel, err := s.Exec(p, `SELECT id, name FROM users`)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Rows) != 10 {
			t.Errorf("post-insert scan: %d rows, want 10", len(sel.Rows))
		}
	})
}
