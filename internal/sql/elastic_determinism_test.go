package sql

import (
	"fmt"
	"strings"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// elasticLoopResult is everything one elastic-loop run produces that must be
// bit-identical across same-seed runs.
type elasticLoopResult struct {
	ranges     string // canonical mrdb_internal.ranges rendering
	stats      string // statement-statistics registry rendering
	spanHash   uint64 // full-run span-tree hash
	loadSplits int64
	merges     int64
	leaseMoves int64
	hits       uint64 // executions that reused their shape
}

// runElasticLoop drives the full elastic cycle on one cluster: hot SQL
// traffic that load-splits a table partition, a region added and dropped
// mid-run, single-region KV traffic that attracts a lease move, and a cold
// tail in which the split remnants merge back. The hot reads are one
// prepared statement, or with adHoc the same statement as literal text,
// which derives its shape on every execution.
func runElasticLoop(t *testing.T, seed int64, adHoc bool) elasticLoopResult {
	t.Helper()
	c := cluster.New(cluster.Config{
		Seed:      seed,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
		Tracing:   true,
		LoadBased: true,
		Load: kv.LoadConfig{
			Interval: 5 * sim.Second, HalfLife: 5 * sim.Second,
			SplitQPS: 20, MergeQPS: 2, MergeTicks: 2,
		},
	})
	catalog := NewCatalog()
	us := NewSession(c, catalog, c.GatewayFor(simnet.USEast1))
	hot := func(p *sim.Proc, ps *Prepared, id int) error {
		if adHoc {
			_, err := us.Exec(p, fmt.Sprintf(`SELECT name FROM users WHERE id = %d AND crdb_region = 'us-east1'`, id))
			return err
		}
		_, err := us.ExecPrepared(p, ps, int64(id))
		return err
	}
	var out elasticLoopResult
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		p.Sleep(100 * sim.Millisecond)
		for _, stmt := range []string{
			`CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2"`,
			`CREATE TABLE users (id INT PRIMARY KEY, name STRING) LOCALITY REGIONAL BY ROW`,
			`CREATE TABLE promo_codes (code STRING PRIMARY KEY, description STRING) LOCALITY GLOBAL`,
		} {
			if _, err := us.Exec(p, stmt); err != nil {
				t.Errorf("%s: %v", stmt, err)
				return
			}
		}
		us.Database = "movr"
		const userCount = 40
		var values []string
		for i := 0; i < userCount; i++ {
			values = append(values, fmt.Sprintf("(%d, 'u%d')", i, i))
		}
		if _, err := us.Exec(p, `INSERT INTO users (id, name) VALUES `+strings.Join(values, ", ")); err != nil {
			t.Errorf("seed users: %v", err)
			return
		}
		if _, err := us.Exec(p, `INSERT INTO promo_codes (code, description) VALUES ('GO', 'x')`); err != nil {
			t.Errorf("seed promo: %v", err)
			return
		}
		// A raw KV range with no lease preferences: the only range the lease
		// mover is allowed to chase (SQL tables pin their leases home).
		rbCfg := zones.Config{
			NumReplicas: 3, NumVoters: 3,
			VoterConstraints: map[simnet.Region]int{
				simnet.USEast1: 1, simnet.EuropeW2: 1, simnet.AsiaNE1: 1,
			},
		}
		if _, err := c.CreateRangeWithZoneConfig([]byte("rb/"), []byte("rb0"), rbCfg, kv.ClosedTSLag); err != nil {
			t.Errorf("rb range: %v", err)
			return
		}
		p.Sleep(500 * sim.Millisecond)

		// Phase 1 — hot: point reads hammer the us-east users partition
		// until the load queue splits it.
		ps := us.MustPrepare(`SELECT name FROM users WHERE id = $1 AND crdb_region = 'us-east1'`)
		deadline := p.Now().Add(30 * sim.Second)
		for i := 0; p.Now() < deadline; i++ {
			if err := hot(p, ps, i%userCount); err != nil {
				t.Errorf("hot read: %v", err)
				return
			}
			p.Sleep(10 * sim.Millisecond)
		}

		// Phase 2 — topology change under way: add a region, keep reading,
		// then drop it again.
		if _, err := us.Exec(p, `ALTER DATABASE movr ADD REGION "asia-northeast1"`); err != nil {
			t.Errorf("add region: %v", err)
			return
		}
		deadline = p.Now().Add(10 * sim.Second)
		for i := 0; p.Now() < deadline; i++ {
			if err := hot(p, ps, i%userCount); err != nil {
				t.Errorf("read during region add: %v", err)
				return
			}
			p.Sleep(50 * sim.Millisecond)
		}
		if _, err := us.Exec(p, `ALTER DATABASE movr DROP REGION "asia-northeast1"`); err != nil {
			t.Errorf("drop region: %v", err)
			return
		}

		// Phase 3 — rebalance: single-region KV traffic from Europe must
		// attract the rb range's lease.
		euGW := c.GatewayFor(simnet.EuropeW2)
		co := txn.NewCoordinator(c.Stores[euGW], c.Senders[euGW])
		deadline = p.Now().Add(20 * sim.Second)
		for i := 0; p.Now() < deadline; i++ {
			key := mvcc.Key(fmt.Sprintf("rb/%03d", i%30))
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, key, mvcc.Value(fmt.Sprintf("v%d", i)))
			}); err != nil {
				t.Errorf("rb write: %v", err)
				return
			}
			p.Sleep(20 * sim.Millisecond)
		}

		// Phase 4 — cold: traffic stops, rates decay, remnants merge back.
		p.Sleep(60 * sim.Second)

		res, err := us.Exec(p, `SELECT * FROM mrdb_internal.ranges`)
		if err != nil {
			t.Errorf("ranges: %v", err)
			return
		}
		out.ranges = renderResult(res)
	})
	c.Sim.RunFor(20 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
	out.stats = c.StmtStats.String()
	out.spanHash = c.Tracer.Hash()
	out.loadSplits = c.Admin.LoadSplits
	out.merges = c.Admin.Merges
	out.leaseMoves = c.Admin.LeaseMoves
	out.hits, _ = catalog.PlanCacheStats()
	return out
}

// TestElasticLoopMetamorphicDeterminism runs the full elastic loop — load
// split, merge, lease rebalance, online region add/drop — twice under the
// same seed and requires byte-identical results: the span-tree hash over
// every recorded trace and the canonical mrdb_internal.ranges rendering.
// This is the property that keeps every dynamic scenario replayable.
func TestElasticLoopMetamorphicDeterminism(t *testing.T) {
	a := runElasticLoop(t, 907, false)
	b := runElasticLoop(t, 907, false)
	// The loop genuinely exercised every elastic mechanism.
	if a.loadSplits == 0 {
		t.Error("hot phase produced no load-based splits")
	}
	if a.merges == 0 {
		t.Error("cold phase produced no merges")
	}
	if a.leaseMoves == 0 {
		t.Error("single-region traffic attracted no lease move")
	}
	// Metamorphic property: identical seeds, identical worlds.
	if a.spanHash != b.spanHash {
		t.Errorf("span hash differs across same-seed runs: %016x vs %016x", a.spanHash, b.spanHash)
	}
	if a.ranges != b.ranges {
		t.Errorf("mrdb_internal.ranges differs across same-seed runs:\n--- run 1:\n%s--- run 2:\n%s",
			a.ranges, b.ranges)
	}
	if a.loadSplits != b.loadSplits || a.merges != b.merges || a.leaseMoves != b.leaseMoves {
		t.Errorf("decision counts differ: run1 splits=%d merges=%d leases=%d, run2 splits=%d merges=%d leases=%d",
			a.loadSplits, a.merges, a.leaseMoves, b.loadSplits, b.merges, b.leaseMoves)
	}
	// The rendered table reflects the load queue's decisions.
	if !strings.Contains(a.ranges, "splits=") {
		t.Errorf("ranges output missing decisions column:\n%s", a.ranges)
	}
	// The allocator loop must fire exactly the events the load-only loop
	// fired before the size trigger was folded in (and later deleted):
	// the ranges table was captured on the last commit with two split queues.
	// The span hash also covers the message schedule (network jitter draws
	// from the seeded "simnet/jitter" stream); it was re-pinned from b6c43dfbeb40c592 when
	// replication stopped echoing appends on every ack (CHANGES.md, PR 16)
	// and from 9842abb49cf1a739 when liveness pings, timer heartbeats and
	// heartbeat acks got rarer (PR 17) — the ranges table moved neither time.
	// The span hash moved again, from 3c3c1b521f56bfb2, when an INSERT's
	// uniqueness check of its own keys became its writes' condition instead
	// of a read before them; the ranges table held again. It moved from
	// 54ee4a02236711c2 when a transaction's single-key reads and writes began
	// to go through DistSender.SendBatch like its multi-key ones: the same
	// messages, each now under a "ds.batch" span. It moved from
	// ecf7b372ed261560 when a leaseholder scan began to wait out in-flight
	// writes in its span under a "latch.wait" span, as point reads do; without
	// that span the hash repeats (unconditional writes waiting for their
	// transaction's next batch did not move it). It moved from
	// 471580a1abdf61e7 when a transaction's intents began to resolve in one
	// command per range and a replica stopped spawning a proc per request
	// where their order cannot matter: fewer messages, so other jitter draws.
	// It moved from b0b6c9f016cb53ba when every random consumer got a stream
	// of its own (Simulation.Stream): other jitter and election draws; the
	// ranges table held. It moved from bdaf1c8ab71b3401 when a leader
	// without a valid lease began to check the lease rule on every append
	// (kv's Replica.ensureLease): the first diverging event is at 31.18 s,
	// where ADD REGION's relocation transfers r3's lease from n2 to n1. The
	// eager TimeoutNow goes out as before, and n2's rule repeats it, with its
	// append, in the same instant; the repeat draws jitter, which moves every
	// later draw. The ranges table held. It moved from 3770bf0fde68058a when
	// the DistSender's one divider took over scans and a scan lost its
	// "ds.scan" parent span: the parent commit with only that span removed
	// hashes 7eaee72c8436e709 too, so no message moved. It moved from
	// 7eaee72c8436e709 when a statement's partition scans and a refresh's
	// spans each became one batch: they go out from the statement's own proc
	// under one "ds.batch" span instead of from a proc per partition or span,
	// and a refresh sends one RPC per range rather than one per span, so
	// other jitter draws. The ranges table held. It moved from
	// 534f67f2f790ea43 when a split began to fence its right half: it waits
	// out the span's held latches before it proposes, and a write or
	// resolution that meets the fence parks and re-routes instead of landing
	// in the left log behind the split, so the split's entry and those
	// requests go out at other instants and other jitter draws. The ranges
	// table held.
	const goldenSpanHash = 0xd7f4103dfc528063
	const goldenRanges = `range_id|start_key|end_key|leaseholder|lease_epoch|lease_region|policy|voters|non_voters|qps|decisions
1|"/t000001/i001/\x06europe-west2\x00\x01"|"/t000001/i001/\x06europe-west2\x00\x02"|5|1|europe-west2|LAG|[5 6 4]|[3]|0.0|splits=0 merges=0 lease_moves=0
2|"/t000001/i001/\x06us-east1\x00\x01"|"/t000001/i001/\x06us-east1\x00\x02"|3|1|us-east1|LAG|[3 1 2]|[5]|0.0|splits=2 merges=2 lease_moves=0
3|"/t000002/i001/"|"/t000002/i0010"|3|1|us-east1|LEAD|[3 1 2]|[5]|0.0|splits=0 merges=0 lease_moves=0
4|"rb/"|"rb0"|6|1|europe-west2|LAG|[7 6 2]|[]|0.0|splits=1 merges=1 lease_moves=1
`
	if a.spanHash != goldenSpanHash {
		t.Errorf("span hash %016x, want %016x", a.spanHash, uint64(goldenSpanHash))
	}
	if a.ranges != goldenRanges {
		t.Errorf("mrdb_internal.ranges differs from the pre-merge loop's:\n--- got:\n%s--- want:\n%s", a.ranges, goldenRanges)
	}
}
