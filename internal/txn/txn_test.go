package txn_test

import (
	"fmt"
	"reflect"
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

// harness: a 3-region cluster with one LAG range covering "k/...", homed in
// us-east1.
type harness struct {
	c    *cluster.Cluster
	desc *kv.RangeDescriptor
}

func newHarness(t *testing.T, seed int64) *harness {
	t.Helper()
	h := &harness{c: cluster.New(cluster.Config{
		Seed: seed, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond,
	})}
	h.desc = h.homedRange(t, "k/", "k0", simnet.USEast1, nil, kv.ClosedTSLag)
	return h
}

// homedRange adds a range over [start, end) whose lease prefers home: ZONE
// survivable (three voters in home, a non-voter in each other region) unless
// voters spreads five voters over regions itself.
func (h *harness) homedRange(t *testing.T, start, end string, home simnet.Region, voters map[simnet.Region]int, policy kv.ClosedTSPolicy) *kv.RangeDescriptor {
	t.Helper()
	cfg := zones.Config{NumReplicas: 5, NumVoters: 3, VoterConstraints: map[simnet.Region]int{home: 3},
		Constraints: map[simnet.Region]int{}, LeasePreferences: []simnet.Region{home}}
	for _, r := range h.c.Regions() {
		if r != home {
			cfg.Constraints[r] = 1
		}
	}
	if voters != nil {
		cfg = zones.Config{NumReplicas: 5, NumVoters: 5, VoterConstraints: voters, LeasePreferences: []simnet.Region{home}}
	}
	desc, err := h.c.CreateRangeWithZoneConfig([]byte(start), []byte(end), cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

func (h *harness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.c.Sim.Spawn("test", func(p *sim.Proc) {
		defer h.c.Sim.Stop()
		if err := h.c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		fn(p)
	})
	h.c.Sim.RunFor(30 * 60 * sim.Second)
	if n := h.c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

func (h *harness) coord(r simnet.Region) *txn.Coordinator {
	gw := h.c.GatewayFor(r)
	return txn.NewCoordinator(h.c.Stores[gw], h.c.Senders[gw])
}

func TestOnePCCommit(t *testing.T) {
	h := newHarness(t, 1)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		tx.AllowOnePC = true
		if err := tx.Put(p, mvcc.Key("k/a"), mvcc.Value("v1")); err != nil {
			t.Error(err)
			return
		}
		// The buffered write is not yet visible anywhere (no intent!).
		lh, _ := h.c.Stores[h.desc.Leaseholder].Replica(h.desc.RangeID)
		if _, ok := lh.EngineForBulkLoad().GetIntent(mvcc.Key("k/a")); ok {
			t.Error("buffered 1PC write produced an intent")
		}
		if err := tx.Commit(p); err != nil {
			t.Error(err)
			return
		}
		// Committing again is a no-op for a 1PC txn.
		if err := tx.Commit(p); err != nil {
			t.Errorf("idempotent commit: %v", err)
		}
		// Value visible to a new txn; still no intent ever existed.
		var got mvcc.Value
		if err := co.Run(p, func(tx2 *txn.Txn) error {
			v, err := tx2.Get(p, mvcc.Key("k/a"))
			got = v
			return err
		}); err != nil || string(got) != "v1" {
			t.Errorf("read back %q, %v", got, err)
		}
		if lh.EngineForBulkLoad().IntentCount() != 0 {
			t.Error("1PC left intents behind")
		}
	})
}

func TestOnePCReadYourBufferedWriteFlushes(t *testing.T) {
	h := newHarness(t, 2)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		tx.AllowOnePC = true
		if err := tx.Put(p, mvcc.Key("k/b"), mvcc.Value("mine")); err != nil {
			t.Error(err)
			return
		}
		// Reading the key returns the pending write (read-your-writes)
		// without sending it, so the commit can still be one phase.
		v, err := tx.Get(p, mvcc.Key("k/b"))
		if err != nil || string(v) != "mine" {
			t.Errorf("read-your-write: %q %v", v, err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Error(err)
		}
	})
}

func TestOnePCDeclinedFallsBack(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		// Seed a value.
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("k/c"), mvcc.Value("0"))
		}); err != nil {
			t.Error(err)
			return
		}
		// T1 reads k/c, then T2 overwrites it, then T1 tries a 1PC write
		// to another key: the server-side refresh of k/c must fail and
		// the fallback must ALSO fail the refresh — the txn restarts.
		tx1 := co.Begin(0)
		tx1.AllowOnePC = true
		if _, err := tx1.Get(p, mvcc.Key("k/c")); err != nil {
			t.Error(err)
			return
		}
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("k/c"), mvcc.Value("1"))
		}); err != nil {
			t.Error(err)
			return
		}
		if err := tx1.Put(p, mvcc.Key("k/d"), mvcc.Value("x")); err != nil {
			t.Error(err)
			return
		}
		err := tx1.Commit(p)
		// The write ts did not need to move (no conflict on k/d), so the
		// commit may succeed at the original timestamp — but if it had
		// to move, the refresh would fail. Either way the database stays
		// consistent: verify serializability by rereading.
		if err != nil {
			tx1.Abort(p)
		}
		var got mvcc.Value
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("k/c"))
			got = v
			return err
		}); err != nil || string(got) != "1" {
			t.Errorf("k/c = %q, %v", got, err)
		}
	})
}

func TestGetForUpdateSerializesIncrements(t *testing.T) {
	h := newHarness(t, 4)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("k/ctr"), mvcc.Value("0"))
		}); err != nil {
			t.Error(err)
			return
		}
		wg := sim.NewWaitGroup(h.c.Sim)
		const n = 8
		wg.Add(n)
		for i := 0; i < n; i++ {
			h.c.Sim.Spawn("inc", func(wp *sim.Proc) {
				defer wg.Done()
				err := co.Run(wp, func(tx *txn.Txn) error {
					v, err := tx.GetForUpdate(wp, mvcc.Key("k/ctr"))
					if err != nil {
						return err
					}
					cur := 0
					fmt.Sscanf(string(v), "%d", &cur)
					return tx.Put(wp, mvcc.Key("k/ctr"), mvcc.Value(fmt.Sprintf("%d", cur+1)))
				})
				if err != nil {
					t.Errorf("increment: %v", err)
				}
			})
		}
		wg.Wait(p)
		var got mvcc.Value
		co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("k/ctr"))
			got = v
			return err
		})
		if string(got) != fmt.Sprintf("%d", n) {
			t.Errorf("counter = %q, want %d", got, n)
		}
		// SELECT FOR UPDATE queues instead of restarting: restarts should
		// be rare (deadlock-free single-key workload => none).
		if co.Restarts > 1 {
			t.Errorf("SFU increments caused %d restarts", co.Restarts)
		}
	})
}

func TestPipelinedWritesProveAtCommit(t *testing.T) {
	h := newHarness(t, 5)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.EuropeW2) // remote gateway: pipelining matters
		start := p.Now()
		err := co.Run(p, func(tx *txn.Txn) error {
			var kvs []mvcc.KeyValue
			for i := 0; i < 8; i++ {
				kvs = append(kvs, mvcc.KeyValue{
					Key:   mvcc.Key(fmt.Sprintf("k/p%d", i)),
					Value: mvcc.Value("v"),
				})
			}
			return tx.PutParallel(p, kvs, nil)
		})
		if err != nil {
			t.Error(err)
			return
		}
		// 8 writes from Europe to us-east1: pipelining + parallel commit
		// keep the whole txn around two WAN round trips, far below the
		// 8x sequential-replication cost.
		elapsed := p.Now().Sub(start)
		if elapsed > 400*sim.Millisecond {
			t.Errorf("8-write remote txn took %v, pipelining broken", elapsed)
		}
		// All writes landed.
		for i := 0; i < 8; i++ {
			key := mvcc.Key(fmt.Sprintf("k/p%d", i))
			var got mvcc.Value
			if err := co.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, key)
				got = v
				return err
			}); err != nil || got == nil {
				t.Errorf("write %d lost: %v", i, err)
			}
		}
	})
}

// TestCommitIsStagedAndProved pins the one commit protocol in the trace: a
// read-write commit stages its record and proves its pipelined writes in
// parallel, exactly once each, and no other coordinator span appears.
func TestCommitIsStagedAndProved(t *testing.T) {
	h := newHarness(t, 9)
	h.c.EnableTracing()
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		root, done := h.c.Tracer.StartRootIn(p, "test.commit")
		err := co.Run(p, func(tx *txn.Txn) error {
			if err := tx.Put(p, mvcc.Key("k/s1"), mvcc.Value("v")); err != nil {
				return err
			}
			return tx.Put(p, mvcc.Key("k/s2"), mvcc.Value("v"))
		})
		done()
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(sim.Second) // let the async intent resolution join the trace
		tr := h.c.Tracer.Collect(root.Ctx().Trace)
		// Every coordinator span is one of these; anything else would be a
		// second way of writing the commit record.
		want := map[string]int{"txn.commit": 1, "txn.stage": 1, "txn.prove": 1, "txn.resolve": 1}
		got := map[string]int{}
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Name, "txn.") {
				got[sp.Name]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("coordinator spans = %v, want %v\n%s", got, want, tr)
		}
		if v, _ := tr.Find("txn.prove").Tag("writes"); v != "2" {
			t.Errorf("txn.prove writes = %q, want 2", v)
		}
	})
}

func TestAbortResolvesIntents(t *testing.T) {
	h := newHarness(t, 6)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if err := tx.Put(p, mvcc.Key("k/ab"), mvcc.Value("doomed")); err != nil {
			t.Error(err)
			return
		}
		tx.Abort(p)
		p.Sleep(500 * sim.Millisecond) // async resolution
		var got mvcc.Value
		if err := co.Run(p, func(tx2 *txn.Txn) error {
			v, err := tx2.Get(p, mvcc.Key("k/ab"))
			got = v
			return err
		}); err != nil || got != nil {
			t.Errorf("aborted write visible: %q %v", got, err)
		}
		lh, _ := h.c.Stores[h.desc.Leaseholder].Replica(h.desc.RangeID)
		if lh.EngineForBulkLoad().IntentCount() != 0 {
			t.Error("aborted intents not cleaned up")
		}
	})
}

// TestPutParallelRecordsWritesAfterAFailure: a batch whose first write fails
// (here: it queues on another transaction's lock and its own transaction is
// aborted meanwhile) may still have laid the writes after it. The batch
// must record them, or Abort never resolves those intents and they linger
// until some later request trips over them. Both transactions' writes are
// unconditional, so each waits for its transaction's next batch: a read
// sends them.
func TestPutParallelRecordsWritesAfterAFailure(t *testing.T) {
	h := newHarness(t, 8)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		holder := co.Begin(0)
		if err := holder.Put(p, mvcc.Key("k/held"), mvcc.Value("h")); err != nil {
			t.Fatal(err)
		}
		if _, err := holder.Get(p, mvcc.Key("k/other")); err != nil {
			t.Fatal(err)
		}
		tx := co.Begin(0)
		var putErr error
		wg := sim.NewWaitGroup(h.c.Sim)
		wg.Add(1)
		h.c.Sim.Spawn("put", func(wp *sim.Proc) {
			defer wg.Done()
			putErr = tx.PutParallel(wp, []mvcc.KeyValue{
				{Key: mvcc.Key("k/held"), Value: mvcc.Value("x")},
				{Key: mvcc.Key("k/free"), Value: mvcc.Value("y")},
			}, nil)
			if putErr == nil {
				_, putErr = tx.Get(wp, mvcc.Key("k/other"))
			}
		})
		p.Sleep(10 * sim.Millisecond)
		h.c.Registry.Abort(tx.ID())
		wg.Wait(p)
		if putErr == nil {
			t.Fatal("write queued behind a lock survived its transaction's abort")
		}
		tx.Abort(p)
		if err := holder.Commit(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second) // async resolution replicates to every replica
		for _, id := range h.desc.Replicas() {
			rep, _ := h.c.Stores[id].Replica(h.desc.RangeID)
			if meta, ok := rep.EngineForBulkLoad().GetIntent(mvcc.Key("k/free")); ok {
				t.Errorf("n%d still holds the aborted transaction's intent on k/free (txn %d)", id, meta.ID)
			}
		}
	})
}

func TestCommitWaitOnlyForFutureTimestamps(t *testing.T) {
	h := newHarness(t, 7)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		// LAG-range writes commit at present time: no commit wait.
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("k/cw"), mvcc.Value("x"))
		}); err != nil {
			t.Error(err)
			return
		}
		if co.CommitWaits != 0 {
			t.Errorf("present-time commit waited %d times (%v total)", co.CommitWaits, co.CommitWaitTotal)
		}
	})
}

// TestLockingReadReadsTheLatestValue: a locking read (SELECT FOR UPDATE)
// returns the key's latest committed value, even one written after the
// transaction's read timestamp and past its uncertainty interval, so the
// read-modify-write commits without a restart. Reading the stale value
// instead, the write would find it too old and the commit's refresh would
// fail — and an INSERT keyed by the stale value, as TPC-C's order ID is,
// would meet the newer transaction's row as a duplicate first. Either the
// leaseholder moves the read up (no earlier reads) or the coordinator
// refreshes to it (an earlier read).
func TestLockingReadReadsTheLatestValue(t *testing.T) {
	h := newHarness(t, 10)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		for _, earlierRead := range []bool{false, true} {
			key := mvcc.Key(fmt.Sprintf("k/ctr-%v", earlierRead))
			if err := co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, key, mvcc.Value("1")) }); err != nil {
				t.Fatal(err)
			}
			tx := co.Begin(0)
			if earlierRead {
				if _, err := tx.Get(p, mvcc.Key("k/other")); err != nil {
					t.Fatal(err)
				}
			}
			p.Sleep(400 * sim.Millisecond) // past the uncertainty interval
			if err := co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, key, mvcc.Value("2")) }); err != nil {
				t.Fatal(err)
			}
			v, err := tx.GetForUpdate(p, key)
			if err != nil || string(v) != "2" {
				t.Errorf("earlier read %v: locking read returned %q, %v; want the latest value %q", earlierRead, v, err, "2")
			}
			if err := tx.Put(p, key, mvcc.Value("3")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("earlier read %v: read-modify-write after a locking read: %v", earlierRead, err)
			}
		}
	})
}
