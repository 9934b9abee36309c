package obs_test

// Trace assertions for the batched, range-aware KV dispatch: a multi-row
// statement's KV work collapses to one RPC per touched range per phase, and
// a multi-range scan pays the max, not the sum, of per-range round trips.

import (
	"strconv"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// TestTraceBatchedInsertOneRPCPerRange pins the tentpole's round-trip
// collapse: a 10-row INSERT spread across the 3 partitions (ranges) of a
// REGIONAL BY ROW table issues at most one KV RPC per touched range per
// phase — the writes go out as 3 per-range batches carrying all 10
// requests, and the same holds for the uniqueness probes, the parallel-
// commit QueryIntent proofs, and the async intent resolution.
func TestTraceBatchedInsertOneRPCPerRange(t *testing.T) {
	h := newTraceHarness(505)
	h.run(t, func(p *sim.Proc) {
		s := h.setup(t, p, false)
		s.UniquenessChecks = false // remote probes off; local probes remain
		h.c.Tracer.SetEnabled(true)
		if _, err := s.Exec(p, `INSERT INTO users (id, name, crdb_region) VALUES
			(1, 'a', 'us-east1'), (2, 'b', 'europe-west2'), (3, 'c', 'asia-northeast1'),
			(4, 'd', 'us-east1'), (5, 'e', 'europe-west2'), (6, 'f', 'asia-northeast1'),
			(7, 'g', 'us-east1'), (8, 'h', 'europe-west2'), (9, 'i', 'asia-northeast1'),
			(10, 'j', 'us-east1')`); err != nil {
			t.Error(err)
			return
		}
		trace := lastTrace(h.c.Tracer, "sql.exec")
		if trace == nil {
			t.Fatal("no sql.exec trace collected")
		}
		const touchedRanges = 3
		perType := map[string]int{}
		putReqs := int64(0)
		for _, sp := range findAll(trace, "ds.send") {
			typ, _ := sp.Tag("req")
			perType[typ]++
			if typ == "*kv.PutRequest" {
				reqs := int64(1)
				if v, ok := sp.Tag("reqs"); ok {
					if n, err := strconv.ParseInt(v, 10, 64); err == nil {
						reqs = n
					}
				}
				putReqs += reqs
			}
		}
		for typ, n := range perType {
			if n > touchedRanges {
				t.Errorf("%s: %d per-range RPCs, want <= %d (one per touched range):\n%s",
					typ, n, touchedRanges, trace)
			}
		}
		// The 10 row writes collapse to exactly one batch per partition.
		if perType["*kv.PutRequest"] != touchedRanges {
			t.Errorf("put batches = %d, want %d:\n%s", perType["*kv.PutRequest"], touchedRanges, trace)
		}
		if putReqs != 10 {
			t.Errorf("put requests carried = %d, want 10:\n%s", putReqs, trace)
		}
		// Total attempts stay bounded by phases x ranges, far below the
		// per-key count (>= 40 RPCs for 10 rows before batching).
		if rpcs := len(findAll(trace, "ds.rpc")); rpcs >= 20 {
			t.Errorf("kv rpcs = %d, want < 20 (bounded by touched ranges, not rows):\n%s", rpcs, trace)
		}
	})
}

// TestTraceMultiRangeScanLatencyIsMax pins the scan fan-out: a scan over a
// table split into 3 ranges is divided into one piece per range, sent in
// parallel, so its virtual latency is (about) the max over the per-range
// sends — and strictly below their sum, which is what a serial walk over the
// ranges would pay.
func TestTraceMultiRangeScanLatencyIsMax(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      506,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		Jitter:    0.02,
		Tracing:   true,
	})
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("ms/"), []byte("ms0"), cfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) mvcc.Key { return mvcc.Key("ms/" + string(rune('a'+i))) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		east := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[east], c.Senders[east])
		if err := co.Run(p, func(tx *txn.Txn) error {
			for i := 0; i < 9; i++ {
				if err := tx.Put(p, key(i), mvcc.Value("v")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Error(err)
			return
		}
		mid, err := c.Admin.SplitRange(p, desc.RangeID, key(3))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Admin.SplitRange(p, mid.RangeID, key(6)); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		// Scan from a remote gateway so per-range round trips are WAN-sized
		// and the max-vs-sum contrast is unambiguous.
		eu := c.GatewayFor(simnet.EuropeW2)
		ds := c.Senders[eu]
		_, done := c.Tracer.StartRootIn(p, "test.scan")
		resp := ds.Send(p, &kv.ScanRequest{
			StartKey: mvcc.Key("ms/"), EndKey: mvcc.Key("ms0"),
			Timestamp: c.Stores[eu].Clock.Now(),
		})
		done()
		if resp.Err != nil {
			t.Errorf("scan: %v", resp.Err)
			return
		}
		if len(resp.Scan.Rows) != 9 {
			t.Errorf("scan rows = %d, want 9", len(resp.Scan.Rows))
		}
		trace := lastTrace(c.Tracer, "test.scan")
		if trace == nil {
			t.Fatal("no trace collected")
		}
		// The scan's pieces are sent straight under the caller's span.
		scan := trace.Root()
		sends := findAll(trace, "ds.send")
		if len(sends) != 3 {
			t.Fatalf("ds.send spans = %d, want 3 (one per range):\n%s", len(sends), trace)
		}
		var sum, max sim.Duration
		for _, sp := range sends {
			if sp.Parent != scan.Context.Span {
				t.Fatalf("ds.send under another span than the scan's:\n%s", trace)
			}
			d := sp.Duration()
			if d <= 0 {
				t.Fatalf("ds.send with non-positive duration:\n%s", trace)
			}
			sum += d
			if d > max {
				max = d
			}
		}
		got := scan.Duration()
		if got < max {
			t.Errorf("scan latency %v below slowest per-range send %v:\n%s", got, max, trace)
		}
		if got >= sum {
			t.Errorf("scan latency %v >= sum of per-range sends %v (serial, not parallel):\n%s", got, sum, trace)
		}
		// Stronger: parallel dispatch pays about one range's round trip,
		// not two or three.
		if got > 2*max {
			t.Errorf("scan latency %v > 2x slowest per-range send %v:\n%s", got, max, trace)
		}
	})
	c.Sim.RunFor(10 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}
