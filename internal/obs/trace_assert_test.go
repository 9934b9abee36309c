package obs_test

// Trace-driven protocol assertions: instead of asserting on latencies
// (which only imply locality), these tests collect the span tree of a
// single statement and assert the paper's structural claims directly —
// which network links a request crossed, which replica served it, and how
// many WAN acknowledgements a quorum needed.

import (
	"errors"
	"strings"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/zones"
)

// findAll returns every span of t with the given name, in creation order.
func findAll(t *obs.Trace, name string) []*obs.Span {
	var out []*obs.Span
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// traceHarness is a 3-region cluster with one SQL session per region and
// tracing initially off, so setup DDL stays out of the collected traces.
type traceHarness struct {
	c        *cluster.Cluster
	catalog  *sql.Catalog
	sessions map[simnet.Region]*sql.Session
}

func newTraceHarness(seed int64) *traceHarness {
	c := cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
	})
	h := &traceHarness{c: c, catalog: sql.NewCatalog(), sessions: map[simnet.Region]*sql.Session{}}
	for _, r := range c.Regions() {
		h.sessions[r] = sql.NewSession(c, h.catalog, c.GatewayFor(r))
	}
	return h
}

func (h *traceHarness) run(t *testing.T, fn func(p *sim.Proc)) {
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

// setup creates the movr-style schema; surviveRegion upgrades the database
// to SURVIVE REGION FAILURE (5 voters per range).
func (h *traceHarness) setup(t *testing.T, p *sim.Proc, surviveRegion bool) *sql.Session {
	t.Helper()
	s := h.sessions[simnet.USEast1]
	stmts := []string{
		`CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`,
	}
	if surviveRegion {
		stmts = append(stmts, `ALTER DATABASE movr SURVIVE REGION FAILURE`)
	}
	stmts = append(stmts,
		`CREATE TABLE users (id INT PRIMARY KEY, name STRING) LOCALITY REGIONAL BY ROW`,
		`CREATE TABLE promo_codes (code STRING PRIMARY KEY, description STRING) LOCALITY GLOBAL`,
	)
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

// lastTrace returns the most recent collected trace rooted at rootName.
func lastTrace(tr *obs.Tracer, rootName string) *obs.Trace {
	traces := tr.Traces()
	for i := len(traces) - 1; i >= 0; i-- {
		if r := traces[i].Root(); r != nil && r.Name == rootName {
			return traces[i]
		}
	}
	return nil
}

// assertNoWAN fails if any network hop in the trace crossed regions; it
// also requires at least one hop, so the assertion can't pass vacuously.
func assertNoWAN(t *testing.T, trace *obs.Trace, what string) {
	t.Helper()
	hops := findAll(trace, "net.rpc")
	if len(hops) == 0 {
		t.Fatalf("%s: no net.rpc spans recorded:\n%s", what, trace)
	}
	for _, sp := range hops {
		if wan, _ := sp.Tag("wan"); wan != "false" {
			t.Errorf("%s: crossed a WAN link:\n%s", what, trace)
			return
		}
	}
}

// TestTraceStaleReadStaysLocal: combo 1 (REGIONAL BY ROW × exact-stale
// read). A remote region's stale read of a row homed elsewhere is served
// entirely by local follower replicas — zero WAN hops (§5.3).
func TestTraceStaleReadStaysLocal(t *testing.T) {
	h := newTraceHarness(501)
	h.run(t, func(p *sim.Proc) {
		s := h.setup(t, p, false)
		if _, err := s.Exec(p, `INSERT INTO users (id, name) VALUES (1, 'alice')`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(6 * sim.Second) // age the row past the staleness bound
		h.c.Tracer.SetEnabled(true)
		asia := h.sessions[simnet.AsiaNE1]
		res, err := asia.Exec(p, `SELECT name FROM users AS OF SYSTEM TIME '-5s' WHERE id = 1`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("stale read: %v %v", res, err)
			return
		}
		trace := lastTrace(h.c.Tracer, "sql.exec")
		if trace == nil {
			t.Fatal("no sql.exec trace collected")
		}
		assertNoWAN(t, trace, "stale read from asia")
		followed := false
		for _, sp := range findAll(trace, "replica.eval") {
			if v, _ := sp.Tag("follower_read"); v == "true" {
				followed = true
			}
		}
		if !followed {
			t.Errorf("no follower read in trace:\n%s", trace)
		}
	})
}

// TestTraceHomeWriteOneWANQuorumTrip: combo 2 (REGIONAL BY ROW × home-region
// write under SURVIVE REGION FAILURE). The 5-replica quorum (3 of 5) is the
// leaseholder, one local voter, and exactly one remote voter: the write's
// critical path crosses the WAN once, in the Raft quorum, and nowhere else
// (§4.2). Uniqueness checks are disabled to isolate the write path.
func TestTraceHomeWriteOneWANQuorumTrip(t *testing.T) {
	h := newTraceHarness(502)
	h.run(t, func(p *sim.Proc) {
		s := h.setup(t, p, true)
		s.UniquenessChecks = false
		h.c.Tracer.SetEnabled(true)
		if _, err := s.Exec(p, `INSERT INTO users (id, name) VALUES (2, 'bob')`); err != nil {
			t.Error(err)
			return
		}
		trace := lastTrace(h.c.Tracer, "sql.exec")
		if trace == nil {
			t.Fatal("no sql.exec trace collected")
		}
		// The gateway is in the home region: every RPC hop is local.
		assertNoWAN(t, trace, "home-region write")
		// Exactly one consensus round, acknowledged by exactly one remote
		// voter: the quorum never waits for the slower WAN replicas.
		reps := findAll(trace, "raft.replicate")
		if len(reps) != 1 {
			t.Fatalf("raft.replicate spans = %d, want 1 (one-phase commit):\n%s", len(reps), trace)
		}
		if wan, _ := reps[0].Tag("wan_acks"); wan != "1" {
			t.Errorf("wan_acks = %q, want 1:\n%s", wan, trace)
		}
		// A REGIONAL table write must not commit-wait (beyond clock skew).
		if cw := trace.Find("txn.commitwait"); cw != nil && cw.Duration() > 10*sim.Millisecond {
			t.Errorf("regional write commit-waited %v:\n%s", cw.Duration(), trace)
		}
	})
}

// TestTraceGlobalReadServedLocally: combo 3 (GLOBAL × present-time read).
// A non-primary region reads a GLOBAL table at the current time and is
// served by its local replica without any WAN traffic, because GLOBAL
// ranges close timestamps in the future (§5.4).
func TestTraceGlobalReadServedLocally(t *testing.T) {
	h := newTraceHarness(503)
	h.run(t, func(p *sim.Proc) {
		s := h.setup(t, p, false)
		if _, err := s.Exec(p, `INSERT INTO promo_codes (code, description) VALUES ('GLOBAL10', 'ten off')`); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(2 * sim.Second) // let the lead closed timestamp cover the write
		h.c.Tracer.SetEnabled(true)
		eu := h.sessions[simnet.EuropeW2]
		res, err := eu.Exec(p, `SELECT description FROM promo_codes WHERE code = 'GLOBAL10'`)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("global read: %v %v", res, err)
			return
		}
		trace := lastTrace(h.c.Tracer, "sql.exec")
		if trace == nil {
			t.Fatal("no sql.exec trace collected")
		}
		assertNoWAN(t, trace, "global read from europe")
		followed := false
		for _, sp := range findAll(trace, "replica.eval") {
			if v, _ := sp.Tag("follower_read"); v == "true" {
				followed = true
			}
		}
		if !followed {
			t.Errorf("global read not served as a follower read:\n%s", trace)
		}
	})
}

// TestDistSenderExhaustionSurfacesLastError: when the retry budget runs
// out, the returned error wraps the final attempt's failure instead of a
// bare attempt count, and the ds.send span carries it as a tag.
func TestDistSenderExhaustionSurfacesLastError(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      504,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
		Tracing:   true,
	})
	// A range confined to us-east1: crashing that region's nodes makes
	// every routing attempt fail with an RPC error.
	cfg := zones.Config{
		NumReplicas: 3, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("k/"), []byte("k0"), cfg, kv.ClosedTSLag); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		for _, id := range c.Topo.NodesInRegion(simnet.USEast1) {
			c.Net.CrashNode(id)
		}
		gw := c.GatewayFor(simnet.EuropeW2)
		ds := c.Senders[gw]
		_, done := c.Tracer.StartRootIn(p, "test.get")
		resp := ds.Send(p, &kv.GetRequest{
			Key:       mvcc.Key("k/x"),
			Timestamp: c.Stores[gw].Clock.Now(),
		})
		done()
		sendErr = resp.Err
	})
	c.Sim.RunFor(30 * sim.Minute)

	if sendErr == nil {
		t.Fatal("send to a dead range succeeded")
	}
	msg := sendErr.Error()
	if !strings.Contains(msg, "failed after") || !strings.Contains(msg, "last attempt:") {
		t.Errorf("exhaustion error lost the cause: %q", msg)
	}
	var rpcErr *simnet.ErrRPC
	if !errors.As(sendErr, &rpcErr) {
		t.Errorf("cause not unwrappable to *simnet.ErrRPC: %q", msg)
	}
	// The ds.send span carries the final error.
	trace := lastTrace(c.Tracer, "test.get")
	if trace == nil {
		t.Fatal("no trace collected")
	}
	send := trace.Find("ds.send")
	if send == nil {
		t.Fatalf("no ds.send span:\n%s", trace)
	}
	if tag, ok := send.Tag("err"); !ok || !strings.Contains(tag, "last attempt:") {
		t.Errorf("ds.send err tag = %q", tag)
	}
}
