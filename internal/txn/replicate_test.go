package txn_test

import (
	"fmt"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// slowReplication slows the links from key's leaseholder to the range's
// other voters by d, so a write there commits no sooner than d after it is
// proposed, and returns the leaseholder's replica and the undo.
func (h *harness) slowReplication(t *testing.T, key string, d sim.Duration) (*kv.Replica, func()) {
	t.Helper()
	desc, err := h.c.Catalog.Lookup(mvcc.Key(key))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.Voters {
		if v != desc.Leaseholder {
			h.c.Net.SlowLink(desc.Leaseholder, v, d)
		}
	}
	rep, _ := h.c.Stores[desc.Leaseholder].Replica(desc.RangeID)
	return rep, func() {
		for _, v := range desc.Voters {
			h.c.Net.HealLink(desc.Leaseholder, v)
		}
	}
}

// appliedAt reports whether rep's engine holds tx's intent on key.
func appliedAt(rep *kv.Replica, tx *txn.Txn, key string) bool {
	meta, ok := rep.EngineForBulkLoad().GetIntent(mvcc.Key(key))
	return ok && meta.ID == tx.ID()
}

// TestReplicateFirstDecisionTable: from us-east1, each transaction writes its
// record key, then one more key, each as its own conditional (so sent at
// once) write, and commits. A write replicates before its leaseholder replies
// exactly when its quorum round trip is shorter than the gateway's round trip
// to its leaseholder less the round trip to the record's leaseholder. The
// leaseholder's links to its followers are slowed for the second write, so a
// replicated-first write is already applied there when its statement
// returns and a pipelined one is not; the commit proves every pipelined
// write and no other.
func TestReplicateFirstDecisionTable(t *testing.T) {
	h := newHarness(t, 52)
	h.homedRange(t, "l/", "l0", simnet.USEast1, nil, kv.ClosedTSLag)
	h.homedRange(t, "z/", "z0", simnet.EuropeW2, nil, kv.ClosedTSLag)
	h.homedRange(t, "a/", "a0", simnet.AsiaNE1, nil, kv.ClosedTSLag)
	h.homedRange(t, "r/", "r0", simnet.EuropeW2, map[simnet.Region]int{simnet.EuropeW2: 2, simnet.USEast1: 2, simnet.AsiaNE1: 1}, kv.ClosedTSLag)
	cases := []struct {
		name, record, key string
		replicate         bool
	}{
		{"local write", "k/1", "l/1", false},
		{"remote ZONE range, local record", "k/2", "z/1", true},
		{"remote range nearer than the record", "a/1", "z/2", false},
		{"the record's own remote range", "z/3", "z/4", false},
		{"remote REGION range: the quorum crosses regions", "k/3", "r/1", false},
	}
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		ds := co.Sender
		for _, c := range cases {
			tx := co.Begin(0)
			if err := tx.PutParallel(p, writesOf(c.record), []bool{true}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rep, heal := h.slowReplication(t, c.key, 300*sim.Millisecond)
			if err := tx.PutParallel(p, writesOf(c.key), []bool{true}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			applied := appliedAt(rep, tx, c.key)
			heal()
			batches, reqs := ds.Batches, ds.BatchedReqs
			if err := tx.Commit(p); err != nil {
				t.Fatalf("%s: commit: %v", c.name, err)
			}
			proofs, want := ds.BatchedReqs-reqs, int64(2)
			if c.replicate {
				want = 1
			}
			if applied != c.replicate || ds.Batches-batches != 1 || proofs != want {
				t.Errorf("%s: applied at the leaseholder when the statement returned = %v, commit sent %d batches of %d proofs; want %v, 1 batch of %d",
					c.name, applied, ds.Batches-batches, proofs, c.replicate, want)
			}
		}
		p.Sleep(sim.Second)
		if err := co.Run(p, func(tx *txn.Txn) error {
			for _, c := range cases {
				for _, k := range []string{c.record, c.key} {
					v, err := tx.Get(p, mvcc.Key(k))
					wantValue(t, k, v, err, "v-"+k)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplicateFirstIsDecidedWhenSent: whether a write needs a proof is
// settled when the write is sent, not again at commit, when the lease may
// have moved. m/ has two voters in us-east1 and three in europe-west2. With
// its lease in us-east1, a write from us-east1 is pipelined (a quorum needs a
// europe-west2 ack); moved to europe-west2, the lease would make the same
// write replicate first. A write pipelined before the move is still proved
// after it, and one replicated first before the move back is not.
func TestReplicateFirstIsDecidedWhenSent(t *testing.T) {
	h := newHarness(t, 53)
	m := h.homedRange(t, "m/", "m0", simnet.USEast1, map[simnet.Region]int{simnet.USEast1: 2, simnet.EuropeW2: 3}, kv.ClosedTSLag)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		ds := co.Sender
		us, eu := m.Leaseholder, simnet.NodeID(0)
		for _, v := range m.Voters {
			if loc, _ := h.c.Topo.LocalityOf(v); loc.Region == simnet.EuropeW2 && eu == 0 {
				eu = v
			}
		}
		for _, c := range []struct {
			key       string
			before    simnet.NodeID // the lease when the write is sent
			after     simnet.NodeID // and when the transaction commits
			wantProof int64
		}{
			{"m/1", us, eu, 2},
			{"m/2", eu, us, 1},
		} {
			if err := h.c.Admin.TransferLease(p, m.RangeID, c.before); err != nil {
				t.Fatal(err)
			}
			tx := co.Begin(0)
			if err := tx.PutParallel(p, writesOf("k/"+c.key, c.key), []bool{true, true}); err != nil {
				t.Fatal(err)
			}
			if err := h.c.Admin.TransferLease(p, m.RangeID, c.after); err != nil {
				t.Fatal(err)
			}
			reqs := ds.BatchedReqs
			if err := tx.Commit(p); err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			if got := ds.BatchedReqs - reqs; got != c.wantProof {
				t.Errorf("%s written with the lease on n%d, committed with it on n%d: %d proofs, want %d",
					c.key, c.before, c.after, got, c.wantProof)
			}
		}
	})
}

// TestReplicatedFirstWriteSurvivesItsLeaseholder: on a durable cluster, a
// transaction from us-east1 writes its record key k/a and then z/a on a
// europe-west2 ZONE range, where the write replicates first. z/a's leaseholder
// crashes after the statement returns. The commit proves k/a alone and sends
// nothing across regions, so it does not wait for the failover; once a
// survivor holds the lease, z/a reads the committed value.
func TestReplicatedFirstWriteSurvivesItsLeaseholder(t *testing.T) {
	h := &harness{c: cluster.New(cluster.Config{
		Seed: 54, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond, Durability: true,
	})}
	h.desc = h.homedRange(t, "k/", "k0", simnet.USEast1, nil, kv.ClosedTSLag)
	z := h.homedRange(t, "z/", "z0", simnet.EuropeW2, nil, kv.ClosedTSLag)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		ds := co.Sender
		tx := co.Begin(0)
		for _, k := range []string{"k/a", "z/a"} {
			if err := tx.PutParallel(p, writesOf(k), []bool{true}); err != nil {
				t.Fatal(err)
			}
		}
		h.c.CrashNode(z.Leaseholder)
		start, wan, reqs := p.Now(), ds.WANRPCs, ds.BatchedReqs
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if took := p.Now().Sub(start); ds.WANRPCs != wan || ds.BatchedReqs-reqs != 1 || took > 10*sim.Millisecond {
			t.Errorf("commit took %v and sent %d proofs, %d across regions; want a local commit proving k/a alone",
				took, ds.BatchedReqs-reqs, ds.WANRPCs-wan)
		}
		h.waitLeaseMoves(t, p, z.RangeID, z.Leaseholder)
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("z/a"))
			wantValue(t, "z/a after the failover", v, err, "v-z/a")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// waitLeaseMoves parks p until range id's lease has left node from.
func (h *harness) waitLeaseMoves(t *testing.T, p *sim.Proc, id kv.RangeID, from simnet.NodeID) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if d, _ := h.c.Catalog.LookupByID(id); d.Leaseholder != from {
			return
		}
		p.Sleep(100 * sim.Millisecond)
	}
	t.Fatalf("the lease of r%d never left n%d", id, from)
}

// TestLostPipelinedWriteRestarts: a pipelined write whose proposal never
// commits is caught by the commit's proof. From europe-west2, the first
// attempt writes k/x and sends it, pipelined, with a read of k/y. The
// leaseholder's links to the other voters are slowed so its appends are still
// on the wire when it replies; it then crashes, the survivors elect a leader
// whose log lacks the entry, and that leader takes the lease. The commit's
// QueryIntent finds no intent, so Run restarts once and commits the second
// attempt's value. A coordinator that took an accepted write as proven would
// commit the first attempt with its write lost.
func TestLostPipelinedWriteRestarts(t *testing.T) {
	h := newHarness(t, 51)
	h.run(t, func(p *sim.Proc) {
		h.seedKeys(t, p, writesOf("k/y"))
		desc, _ := h.c.Catalog.LookupByID(h.desc.RangeID)
		lh := desc.Leaseholder
		co := h.coord(simnet.EuropeW2)
		restarts, attempts := co.Restarts, 0
		err := co.Run(p, func(tx *txn.Txn) error {
			attempts++
			if err := tx.Put(p, mvcc.Key("k/x"), mvcc.Value(fmt.Sprintf("v%d", attempts))); err != nil {
				return err
			}
			if attempts > 1 {
				return nil
			}
			_, heal := h.slowReplication(t, "k/x", sim.Second)
			v, err := tx.Get(p, mvcc.Key("k/y"))
			wantValue(t, "read carrying the write", v, err, "v-k/y")
			h.c.CrashNode(lh)
			heal()
			h.waitLeaseMoves(t, p, desc.RangeID, lh)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 2 || co.Restarts-restarts != 1 {
			t.Errorf("Run took %d attempts and %d restarts, want 2 and 1", attempts, co.Restarts-restarts)
		}
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("k/x"))
			wantValue(t, "k/x after the commit", v, err, "v2")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLeadershipLostWriteBlocksCommit: a write that replicates first is
// decided by its range's log, not by its leaseholder's leadership, and one
// whose statement fails after it applied blocks the commit. From us-east1, a
// transaction writes its record key k/a and then INSERTs z/a on a
// europe-west2 ZONE range, where the write replicates first. Once z/'s
// leaseholder has proposed the entry, its followers' acks are dropped and it
// hands Raft leadership to one of them; the new leader has the entry and
// commits it. The step-down resolves nothing: the statement returns once the
// entry applies on the old leader, and the transaction commits z/a.
//
// A second transaction's INSERT of z/b applies too, but no reply from z/'s
// replicas reaches the gateway until the sender gives up, so the statement
// fails. The transaction must then refuse to commit, and its abort must
// remove the intent: a coordinator that took the error for a refusal would
// commit without z/b among its writes, and the next reader of z/b would
// resolve the intent as committed — a statement reported as failed would be
// applied.
func TestLeadershipLostWriteBlocksCommit(t *testing.T) {
	h := newHarness(t, 55)
	z := h.homedRange(t, "z/", "z0", simnet.EuropeW2, nil, kv.ClosedTSLag)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		tx := co.Begin(0)
		if err := tx.PutParallel(p, writesOf("k/a"), []bool{true}); err != nil {
			t.Fatal(err)
		}
		lh := z.Leaseholder
		rep, _ := h.c.Stores[lh].Replica(z.RangeID)
		var next *kv.Replica
		for _, v := range z.Voters {
			if v != lh && next == nil {
				next, _ = h.c.Stores[v].Replica(z.RangeID)
			}
		}
		proposed, term := rep.Raft().LastIndex(), rep.Raft().Term()
		h.c.Sim.Spawn("transfer", func(wp *sim.Proc) {
			for rep.Raft().LastIndex() == proposed {
				wp.Sleep(sim.Millisecond)
			}
			for _, v := range z.Voters {
				if v != lh {
					h.c.Net.PartitionOneWay(v, lh)
				}
			}
			rep.Raft().TransferLeadership(next.Raft().ID())
			wp.Sleep(200 * sim.Millisecond)
			for _, v := range z.Voters {
				if v != lh {
					h.c.Net.HealOneWay(v, lh)
				}
			}
		})
		if err := tx.PutParallel(p, writesOf("z/a"), []bool{true}); err != nil {
			t.Fatalf("INSERT of z/a across its leaseholder's step-down: %v", err)
		}
		if rep.Raft().Term() == term {
			t.Fatal("setup: z/'s leadership never changed hands")
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit after the step-down: %v", err)
		}
		if v := h.readBack(t, p, "z/a"); string(v) != "v-z/a" {
			t.Errorf("z/a = %q after the commit, want v-z/a", v)
		}

		tx2 := co.Begin(0)
		if err := tx2.PutParallel(p, writesOf("k/b"), []bool{true}); err != nil {
			t.Fatal(err)
		}
		gw := co.Sender.NodeID
		for _, id := range z.Replicas() {
			h.c.Net.PartitionOneWay(id, gw)
		}
		err := tx2.PutParallel(p, writesOf("z/b"), []bool{true})
		for _, id := range z.Replicas() {
			h.c.Net.HealOneWay(id, gw)
		}
		if err == nil {
			t.Fatal("setup: INSERT of z/b succeeded with every reply lost")
		}
		d, _ := h.c.Catalog.LookupByID(z.RangeID)
		if r, _ := h.c.Stores[d.Leaseholder].Replica(z.RangeID); !appliedAt(r, tx2, "z/b") {
			t.Fatalf("setup: the write whose statement failed (%v) did not apply", err)
		}
		if err := tx2.Commit(p); err == nil {
			t.Fatal("the transaction committed after a write that may have applied failed")
		}
		p.Sleep(sim.Second)
		for _, id := range z.Replicas() {
			r, _ := h.c.Stores[id].Replica(z.RangeID)
			if meta, ok := r.EngineForBulkLoad().GetIntent(mvcc.Key("z/b")); ok {
				t.Errorf("n%d still holds the aborted transaction's intent on z/b (txn %d)", id, meta.ID)
			}
		}
		if v := h.readBack(t, p, "z/b"); v != nil {
			t.Errorf("z/b = %q after the abort, want no value", v)
		}
	})
}
