package kv_test

import (
	"errors"
	"fmt"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// recordCluster builds a three-region cluster with one range over [k/, k0)
// whose three voters and lease are in us-east1, and a non-voter in each
// other region.
func recordCluster(t *testing.T, seed int64) (*cluster.Cluster, *kv.RangeDescriptor) {
	t.Helper()
	c := cluster.New(cluster.Config{Seed: seed, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	zcfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("k/"), []byte("k0"), zcfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	return c, desc
}

// runRecords runs fn on a ready cluster and fails on any apply error.
func runRecords(t *testing.T, c *cluster.Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		fn(p)
	})
	c.Sim.RunFor(30 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

func coordIn(c *cluster.Cluster, r simnet.Region) *txn.Coordinator {
	gw := c.GatewayFor(r)
	return txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
}

// committedValue reads key's newest committed value and its timestamp on
// the leaseholder's engine, failing if an intent is left on it.
func committedValue(t *testing.T, c *cluster.Cluster, desc *kv.RangeDescriptor, key string) (string, hlc.Timestamp) {
	t.Helper()
	rep, ok := c.Stores[desc.Leaseholder].Replica(desc.RangeID)
	if !ok {
		t.Fatalf("n%d lost its replica", desc.Leaseholder)
	}
	eng := rep.EngineForBulkLoad()
	if meta, ok := eng.GetIntent(mvcc.Key(key)); ok {
		t.Errorf("%s holds an intent of txn %d", key, meta.ID)
	}
	v, ts, err := eng.Get(mvcc.Key(key), hlc.MaxTimestamp, mvcc.GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ts
}

// The kinds of finished transaction whose records the registry collects.
var finishedKinds = []struct {
	name string
	// finish runs one transaction of the kind on key prefix k and returns
	// its ID.
	finish func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID
	// resolves: the intents are still being resolved as finish returns.
	resolves bool
}{
	{name: "one-phase commit", finish: func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID {
		tx := co.Begin(0)
		tx.AllowOnePC = true
		mustPut(t, p, tx, k+"/a")
		mustCommit(t, p, tx)
		return tx.ID()
	}},
	{name: "parallel commit", resolves: true, finish: func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID {
		tx := co.Begin(0)
		mustPut(t, p, tx, k+"/a")
		mustPut(t, p, tx, k+"/b")
		mustCommit(t, p, tx)
		return tx.ID()
	}},
	{name: "read-only commit", finish: func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID {
		tx := co.Begin(0)
		mustGet(t, p, tx, k+"/a")
		mustCommit(t, p, tx)
		return tx.ID()
	}},
	{name: "abort with writes", resolves: true, finish: func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID {
		tx := co.Begin(0)
		mustPut(t, p, tx, k+"/a")
		mustGet(t, p, tx, k+"/read") // sends the write: the abort has an intent to resolve
		tx.Abort(p)
		return tx.ID()
	}},
	{name: "abort without writes", finish: func(t *testing.T, p *sim.Proc, co *txn.Coordinator, k string) mvcc.TxnID {
		tx := co.Begin(0)
		mustGet(t, p, tx, k+"/a")
		tx.Abort(p)
		return tx.ID()
	}},
}

func mustPut(t *testing.T, p *sim.Proc, tx *txn.Txn, key string) {
	t.Helper()
	if err := tx.Put(p, mvcc.Key(key), mvcc.Value(key)); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, p *sim.Proc, tx *txn.Txn, key string) {
	t.Helper()
	if _, err := tx.Get(p, mvcc.Key(key)); err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, p *sim.Proc, tx *txn.Txn) {
	t.Helper()
	if err := tx.Commit(p); err != nil {
		t.Fatal(err)
	}
}

// TestFinishedRecordIsCollected: a finished transaction's record is
// dropped as soon as none of its intents can still be read: at once after
// a one-phase commit, a read-only commit or an abort with no writes, and
// once every resolution reply is back after a parallel commit or an abort
// with writes, while the resolution is in flight it is still held. A
// deadlock victim's record goes once its own Abort resolved its intents.
func TestFinishedRecordIsCollected(t *testing.T) {
	c, _ := recordCluster(t, 3)
	runRecords(t, c, func(p *sim.Proc) {
		co := coordIn(c, simnet.USEast1)
		for i, kind := range finishedKinds {
			id := kind.finish(t, p, co, fmt.Sprintf("k/%d", i))
			if got := c.Registry.Holds(id); got != kind.resolves {
				t.Errorf("%s: record held %v as it returns, want %v", kind.name, got, kind.resolves)
			}
			p.Sleep(sim.Second) // the resolution returns
			if c.Registry.Holds(id) {
				t.Errorf("%s: record still held once finished", kind.name)
			}
		}

		// A deadlock: each transaction holds one key and writes the other's.
		older, younger := co.Begin(0), co.Begin(0)
		mustPut(t, p, older, "k/x")
		mustGet(t, p, older, "k/x/read")
		mustPut(t, p, younger, "k/y")
		mustGet(t, p, younger, "k/y/read")
		errs := [2]*sim.Future[error]{sim.NewFuture[error](c.Sim), sim.NewFuture[error](c.Sim)}
		for i, w := range []struct {
			tx  *txn.Txn
			key string
		}{{older, "k/y"}, {younger, "k/x"}} {
			c.Sim.Spawn("txn/deadlocked", func(wp *sim.Proc) {
				if err := w.tx.Put(wp, mvcc.Key(w.key), mvcc.Value("crossed")); err != nil {
					errs[i].Set(err)
					return
				}
				_, err := w.tx.Get(wp, mvcc.Key(w.key+"/read"))
				errs[i].Set(err)
			})
		}
		var ta *kv.TxnAbortedError
		if err := errs[1].Wait(p); !errors.As(err, &ta) {
			t.Fatalf("deadlock victim's write returned %v, want it aborted", err)
		}
		if st, _ := c.Registry.Status(younger.ID()); st != mvcc.Aborted || !c.Registry.Holds(younger.ID()) {
			t.Fatalf("victim's record: %v, held %v; want aborted and held until its Abort", st, c.Registry.Holds(younger.ID()))
		}
		younger.Abort(p)
		if err := errs[0].Wait(p); err != nil {
			t.Fatalf("the survivor's write: %v", err)
		}
		mustCommit(t, p, older)
		p.Sleep(sim.Second)
		for _, tx := range []*txn.Txn{older, younger} {
			if c.Registry.Holds(tx.ID()) {
				t.Errorf("txn %d: record still held once finished", tx.ID())
			}
		}
	})
}

// TestRecordsHeldDoNotGrowWithTransactions: after 20 sequential
// transactions of each finished kind, the registry holds as many records as
// before them. Before records were collected it held one more per writing
// transaction and per abort (80 here).
func TestRecordsHeldDoNotGrowWithTransactions(t *testing.T) {
	c, _ := recordCluster(t, 4)
	runRecords(t, c, func(p *sim.Proc) {
		co := coordIn(c, simnet.USEast1)
		before := c.Registry.Records()
		const n = 20
		for i, kind := range finishedKinds {
			for j := 0; j < n; j++ {
				kind.finish(t, p, co, fmt.Sprintf("k/%d/%02d", i, j))
			}
		}
		p.Sleep(sim.Second)
		if got := c.Registry.Records(); got != before {
			t.Errorf("registry holds %d records after %d transactions of each kind, want %d as before them", got, n, before)
		}
	})
}

// TestRecordOutlivesFailedResolution: a committed transaction whose
// resolution cannot reach its range keeps its record, so a reader that later
// meets its intent reads the committed value through the record, proposing
// nothing, and the intent and the record stay. The next write of the key
// folds the intent's resolution into its own command: the committed value
// stays below the new one.
func TestRecordOutlivesFailedResolution(t *testing.T) {
	c, desc := recordCluster(t, 5)
	gw := c.GatewayFor(simnet.EuropeW2)
	runRecords(t, c, func(p *sim.Proc) {
		tx := coordIn(c, simnet.EuropeW2).Begin(0)
		mustPut(t, p, tx, "k/a")
		mustPut(t, p, tx, "k/b")
		mustCommit(t, p, tx)
		// The resolution is queued but not sent yet: cut its gateway off
		// from every voter, so each of its attempts fails.
		for _, n := range desc.Voters {
			c.Net.Partition(gw, n)
		}
		p.Sleep(2 * sim.Minute)
		for _, n := range desc.Voters {
			c.Net.Heal(gw, n)
		}
		st, cts := c.Registry.Status(tx.ID())
		if st != mvcc.Committed || !c.Registry.Holds(tx.ID()) {
			t.Fatalf("record after a failed resolution: %v, held %v; want committed and held", st, c.Registry.Holds(tx.ID()))
		}
		rep, _ := c.Stores[desc.Leaseholder].Replica(desc.RangeID)
		eng := rep.EngineForBulkLoad()
		if _, ok := eng.GetIntent(mvcc.Key("k/a")); !ok {
			t.Fatal("setup: the failed resolution resolved k/a")
		}
		resolutions := rep.Proposed[kv.CmdResolveIntent]
		co := coordIn(c, simnet.USEast1)
		var got mvcc.Value
		if err := co.Run(p, func(rd *txn.Txn) error {
			v, err := rd.Get(p, mvcc.Key("k/a"))
			got = v
			return err
		}); err != nil || string(got) != "k/a" {
			t.Fatalf("reader got %q, %v; want the committed k/a", got, err)
		}
		if _, ok := eng.GetIntent(mvcc.Key("k/a")); !ok || !c.Registry.Holds(tx.ID()) {
			t.Fatalf("after the read: intent left %v, record held %v; want both", ok, c.Registry.Holds(tx.ID()))
		}

		w := co.Begin(0)
		if err := w.Put(p, mvcc.Key("k/a"), mvcc.Value("new")); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, p, w)
		p.Sleep(sim.Second) // the writer's own resolution
		if n := rep.Proposed[kv.CmdResolveIntent] - resolutions; n != 1 {
			t.Errorf("the reader and the writer proposed %d resolutions, want the writer's coordinator's 1", n)
		}
		if v, _ := committedValue(t, c, desc, "k/a"); v != "new" {
			t.Errorf("k/a reads %q after the write, want new", v)
		}
		if v, vts, err := eng.Get(mvcc.Key("k/a"), cts, mvcc.GetOptions{}); err != nil || string(v) != "k/a" || vts != cts {
			t.Errorf("k/a at the commit timestamp %v reads %q at %v (%v), want the committed k/a", cts, v, vts, err)
		}
	})
}

// TestLateRequestOfCollectedTxnIsRefused: a request of a committed
// transaction whose record was collected is refused wherever it asks for
// the record. A write that queues on another transaction's lock checks its
// own status when it wakes and finds it aborted: it lays no intent, takes
// no lock, and the committed value stands. A stale one-phase commit re-send
// finds no record to commit, so nothing is written.
func TestLateRequestOfCollectedTxnIsRefused(t *testing.T) {
	c, desc := recordCluster(t, 6)
	gw := c.GatewayFor(simnet.USEast1)
	ds := c.Senders[gw]
	rep, _ := c.Stores[desc.Leaseholder].Replica(desc.RangeID)
	late := func(id mvcc.TxnID, key string, ts hlc.Timestamp, onePC bool) *kv.PutRequest {
		meta := mvcc.TxnMeta{ID: id, Key: mvcc.Key(key), WriteTimestamp: ts}
		return &kv.PutRequest{
			Key: mvcc.Key(key), Value: mvcc.Value("late"), Timestamp: ts,
			Txn:       &kv.Txn{Meta: meta, ReadTimestamp: ts, GlobalUncertaintyLimit: ts},
			Commit1PC: onePC, ReadFromTS: ts,
		}
	}
	runRecords(t, c, func(p *sim.Proc) {
		co := coordIn(c, simnet.USEast1)
		var ta *kv.TxnAbortedError

		committed := co.Begin(0)
		mustPut(t, p, committed, "k/a")
		mustPut(t, p, committed, "k/b")
		mustCommit(t, p, committed)
		p.Sleep(sim.Second)
		if c.Registry.Holds(committed.ID()) {
			t.Fatal("setup: the committed record is still held")
		}
		_, committedTS := committedValue(t, c, desc, "k/a")
		holder := co.Begin(0)
		mustPut(t, p, holder, "k/a")
		mustGet(t, p, holder, "k/a/read")
		refused := sim.NewFuture[error](c.Sim)
		c.Sim.Spawn("late-write", func(lp *sim.Proc) {
			refused.Set(ds.Send(lp, late(committed.ID(), "k/a", committedTS, false)).Err)
		})
		// The write queues on the holder's lock, and checks its own status
		// when its first wait runs out.
		err, done := refused.WaitTimeout(p, 10*sim.Second)
		if !done {
			t.Fatal("the late write of a collected transaction is still queued on the lock")
		}
		if !errors.As(err, &ta) {
			t.Errorf("late write of a collected transaction returned %v, want it aborted", err)
		}
		if got := rep.LockHolder(mvcc.Key("k/a")); got != holder.ID() {
			t.Errorf("k/a's lock is held by txn %d, want the holder's %d", got, holder.ID())
		}
		holder.Abort(p)
		p.Sleep(sim.Second) // the holder's resolution
		if got := rep.LockHolder(mvcc.Key("k/a")); got == committed.ID() {
			t.Errorf("the late write took k/a's lock")
		}
		if v, ts := committedValue(t, c, desc, "k/a"); v != "k/a" || ts != committedTS {
			t.Errorf("k/a reads %q at %v, want the committed k/a at %v", v, ts, committedTS)
		}

		onePC := co.Begin(0)
		onePC.AllowOnePC = true
		mustPut(t, p, onePC, "k/c")
		mustCommit(t, p, onePC)
		if c.Registry.Holds(onePC.ID()) {
			t.Fatal("setup: the one-phase commit's record is still held")
		}
		_, onePCTS := committedValue(t, c, desc, "k/c")
		if err := ds.Send(p, late(onePC.ID(), "k/c", onePCTS, true)).Err; !errors.As(err, &ta) {
			t.Errorf("stale one-phase commit re-send returned %v, want it aborted", err)
		}
		if v, ts := committedValue(t, c, desc, "k/c"); v != "k/c" || ts != onePCTS {
			t.Errorf("k/c reads %q at %v, want the committed k/c at %v", v, ts, onePCTS)
		}
	})
}
