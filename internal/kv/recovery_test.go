package kv

import (
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
	"mrdb/internal/zones"
)

// recoveryHarness is a minimal durable multi-store deployment for white-box
// crash/restart tests: every node gets its own simulated disk.
type recoveryHarness struct {
	s       *sim.Simulation
	topo    *simnet.Topology
	net     *simnet.Network
	nl      *NodeLiveness
	cat     *RangeCatalog
	metrics *obs.Registry
	stores  map[simnet.NodeID]*Store
	admin   *Admin
}

func newRecoveryHarness(t *testing.T, nodes int, ckptInterval sim.Duration) *recoveryHarness {
	t.Helper()
	s := sim.New(1)
	topo := simnet.NewTable1Topology()
	h := &recoveryHarness{
		s:       s,
		topo:    topo,
		net:     simnet.NewNetwork(s, topo),
		nl:      NewNodeLiveness(s),
		cat:     NewRangeCatalog(),
		metrics: obs.NewRegistry(),
		stores:  map[simnet.NodeID]*Store{},
	}
	reg := NewTxnRegistry(s, topo)
	for i := 1; i <= nodes; i++ {
		id := simnet.NodeID(i)
		topo.AddNode(id, simnet.Locality{Region: simnet.USEast1, Zone: simnet.Zone(fmt.Sprintf("us-east1-%c", 'a'+i-1))})
		clock := hlc.NewClock(hlc.SimWallSource{Sim: s}, 250*sim.Millisecond)
		st := NewStore(id, s, h.net, topo, clock, reg)
		st.Catalog = h.cat
		st.Disk = storage.NewDisk(s, 1000+int64(id), h.metrics)
		st.StartLiveness(h.nl)
		st.StartCheckpoints(ckptInterval)
		h.stores[id] = st
	}
	h.admin = &Admin{Sim: s, Topo: topo, Catalog: h.cat, Stores: h.stores}
	return h
}

// run executes fn in a fresh proc and advances the simulation until it
// finishes (or d elapses, which fails the test).
func (h *recoveryHarness) run(t *testing.T, d sim.Duration, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	done := false
	h.s.Spawn("test", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	h.s.RunFor(d)
	if !done {
		t.Fatal("test proc did not finish in time")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// createRange builds a range over [a, z) with the given voters and waits
// for its leaseholder to lead.
func (h *recoveryHarness) createRange(t *testing.T, voters []simnet.NodeID, leaseholder simnet.NodeID) *RangeDescriptor {
	t.Helper()
	desc, err := h.admin.CreateRange(mvcc.Key("a"), mvcc.Key("z"),
		zones.Placement{Voters: voters, Leaseholder: leaseholder}, ClosedTSLag, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, 15*sim.Second, func(p *sim.Proc) error {
		return h.admin.WaitReady(p, desc.RangeID)
	})
	return desc
}

func putCmd(st *Store, key, val string) *Command {
	return &Command{Kind: CmdPut, Key: mvcc.Key(key), Value: mvcc.Value(val), Ts: st.Clock.Now()}
}

// hasKey reports whether r's engine holds a version or an intent of key.
func hasKey(r *Replica, key string) bool {
	val, _, err := r.engine.Get(mvcc.Key(key), hlc.MaxTimestamp, mvcc.GetOptions{})
	return val != nil || err != nil
}

// TestRestartDropsVolatileState is the regression test for the
// restart-resurrection hole: after an honest crash + recovery, a node's
// volatile state must be gone. A Raft entry appended but not yet fsynced is
// not in the recovered log (and is never proposed again), and a latch held
// by an in-flight request at crash time is not held by the reborn replica.
func TestRestartDropsVolatileState(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)

	// A committed, fsynced write that must survive the crash.
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		return r1.propose(p, putCmd(h.stores[1], "k1", "v1"))
	})
	h.s.RunFor(sim.Second)

	// Cut n1 off so the next entry cannot replicate, then append it and
	// crash before the fsync delay elapses: the entry exists only in n1's
	// volatile WAL tail.
	h.net.Partition(1, 2)
	h.net.Partition(1, 3)
	var lastDurable uint64
	h.run(t, sim.Second, func(p *sim.Proc) error {
		// An in-flight request's latch, never released (its holder dies
		// with the node).
		h.s.Spawn("latch-holder", func(lp *sim.Proc) {
			r1.latch(lp, mvcc.Key("k2"))
		})
		return nil
	})
	if r1.keys.latched == 0 {
		t.Fatal("latch not held before crash")
	}
	lastDurable = r1.raft.DurableIndex()
	if _, err := r1.raft.Propose(putCmd(h.stores[1], "k2", "v2")); err != nil {
		t.Fatal(err)
	}
	if r1.raft.LastIndex() != lastDurable+1 {
		t.Fatalf("append not staged: last=%d durable=%d", r1.raft.LastIndex(), lastDurable)
	}
	if r1.raft.DurableIndex() != lastDurable {
		t.Fatal("entry became durable with no virtual time passing")
	}
	h.net.CrashNode(1)
	h.stores[1].Crash()

	// Recover from disk while still unreachable, then rejoin.
	restartAt := h.stores[1].Clock.Now()
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := h.stores[1].Recover(p)
		return err
	})
	nr1, ok := h.stores[1].Replica(desc.RangeID)
	if !ok {
		t.Fatal("replica not recovered")
	}
	if nr1 == r1 {
		t.Fatal("recovery resurrected the old replica object")
	}
	if got := nr1.raft.LastIndex(); got != lastDurable {
		t.Fatalf("unflushed entry survived restart: last=%d, want durable %d", got, lastDurable)
	}
	if nr1.keys.latched != 0 {
		t.Fatalf("pre-crash latches held after restart: %d", nr1.keys.latched)
	}
	if nr1.keys.floor.Less(restartAt) {
		t.Fatalf("read floor %v below restart time %v", nr1.keys.floor, restartAt)
	}
	h.net.RestartNode(1)
	h.net.Heal(1, 2)
	h.net.Heal(1, 3)
	h.s.RunFor(15 * sim.Second)

	// The durable write is everywhere; the volatile one is nowhere.
	for id := simnet.NodeID(1); id <= 3; id++ {
		r, ok := h.stores[id].Replica(desc.RangeID)
		if !ok {
			t.Fatalf("n%d lost its replica", id)
		}
		if !hasKey(r, "k1") {
			t.Fatalf("n%d: durable write k1 lost", id)
		}
		if hasKey(r, "k2") {
			t.Fatalf("n%d: unflushed write k2 resurrected", id)
		}
	}
}

// TestFencedLeaseStaysFencedThroughRestart: while a node is down its peers
// fence its lease with an epoch bump and take over; the restarted node must
// come back with a *further* bumped (and persisted) epoch, observe the new
// leaseholder from the replicated log, and never treat its pre-crash lease
// as valid.
func TestFencedLeaseStaysFencedThroughRestart(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	if e := h.nl.Epoch(1); e != 1 {
		t.Fatalf("initial epoch %d, want 1", e)
	}

	h.net.CrashNode(1)
	h.stores[1].Crash()
	// Long outage: liveness expires, a peer fences n1 and takes the lease.
	h.s.RunFor(20 * sim.Second)
	if e := h.nl.Epoch(1); e != 2 {
		t.Fatalf("peers did not fence the dead node: epoch %d, want 2", e)
	}
	cur, _ := h.cat.LookupByID(desc.RangeID)
	if cur.Leaseholder == 1 {
		t.Fatal("lease did not move off the crashed node")
	}

	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := h.stores[1].Recover(p)
		return err
	})
	// Restart bumps past both the registry epoch and the persisted one.
	if e := h.nl.Epoch(1); e != 3 {
		t.Fatalf("restart did not bump the epoch: %d, want 3", e)
	}
	nr1, _ := h.stores[1].Replica(desc.RangeID)
	if nr1.hasValidLease() {
		t.Fatal("recovered node considers its pre-crash lease valid")
	}
	h.net.RestartNode(1)
	h.s.RunFor(15 * sim.Second)

	// The recovered node catches up on the log and learns the new
	// leaseholder; its old lease (epoch 1) can never validate again.
	if nr1.desc.Leaseholder == 1 {
		t.Fatal("recovered node still believes it is leaseholder")
	}
	if nr1.hasValidLease() {
		t.Fatal("fenced lease revalidated after restart")
	}
	// The fence survives another restart: the persisted epoch keeps
	// ratcheting even if no peer notices the next (quick) outage.
	h.net.CrashNode(1)
	h.stores[1].Crash()
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := h.stores[1].Recover(p)
		return err
	})
	h.net.RestartNode(1)
	if e := h.nl.Epoch(1); e != 4 {
		t.Fatalf("quick restart did not bump the epoch: %d, want 4", e)
	}
}

// TestRecoveryReplaysOnlyPostCheckpointEntries pins the replay count: after
// a checkpoint, only entries beyond it are recovered from the WAL, and they
// re-commit through Raft rather than being applied directly.
func TestRecoveryReplaysOnlyPostCheckpointEntries(t *testing.T) {
	h := newRecoveryHarness(t, 1, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)

	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		if err := r.propose(p, putCmd(st, "k1", "v1")); err != nil {
			return err
		}
		return r.propose(p, putCmd(st, "k2", "v2"))
	})
	h.s.RunFor(sim.Second)
	st.CheckpointNow()
	ckptIdx := r.raft.Applied()
	if r.raft.FirstIndex() != ckptIdx {
		t.Fatalf("log not truncated to checkpoint: first=%d applied=%d", r.raft.FirstIndex(), ckptIdx)
	}

	// Exactly three durable post-checkpoint entries.
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		for i := 3; i <= 5; i++ {
			if err := r.propose(p, putCmd(st, fmt.Sprintf("k%d", i), "v")); err != nil {
				return err
			}
		}
		return nil
	})
	h.s.RunFor(sim.Second)

	replayedBefore := h.metrics.Counter("recovery.replay.entries").Value()
	h.net.CrashNode(1)
	st.Crash()
	var stats RecoveryStats
	var appliedAtRecovery uint64
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		var err error
		if stats, err = st.Recover(p); err != nil {
			return err
		}
		// Observed before any further virtual time passes: recovery must
		// not have applied the replayed tail directly.
		if nr, ok := st.Replica(desc.RangeID); ok {
			appliedAtRecovery = nr.raft.Applied()
		}
		return nil
	})
	h.net.RestartNode(1)
	if stats.ReplayedEntries != 3 {
		t.Fatalf("replayed %d entries, want exactly the 3 post-checkpoint ones", stats.ReplayedEntries)
	}
	if got := h.metrics.Counter("recovery.replay.entries").Value() - replayedBefore; got != 3 {
		t.Fatalf("recovery.replay.entries advanced by %d, want 3", got)
	}
	if stats.Duration <= 0 {
		t.Fatal("recovery charged no virtual time")
	}

	// The tail re-commits through Raft once the single voter re-elects
	// itself; recovery itself must not have applied it.
	if appliedAtRecovery != ckptIdx {
		t.Fatalf("recovery applied past the checkpoint: %d > %d", appliedAtRecovery, ckptIdx)
	}
	nr, _ := st.Replica(desc.RangeID)
	h.s.RunFor(15 * sim.Second)
	for i := 1; i <= 5; i++ {
		if !hasKey(nr, fmt.Sprintf("k%d", i)) {
			t.Fatalf("k%d missing after recovery + re-commit", i)
		}
	}
}

// TestRecoverFailsLoudlyOnCorruptWAL: bit rot below the durable prefix must
// abort recovery with storage.ErrCorrupt, never replay garbage.
func TestRecoverFailsLoudlyOnCorruptWAL(t *testing.T) {
	h := newRecoveryHarness(t, 1, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		return r.propose(p, putCmd(st, "k1", "v1"))
	})
	h.s.RunFor(sim.Second)

	h.net.CrashNode(1)
	st.Crash()
	st.Disk.WAL(walName(desc.RangeID)).FlipBit(10, 2)
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		if _, err := st.Recover(p); err == nil {
			return fmt.Errorf("recovery succeeded over a corrupt WAL")
		}
		return nil
	})
}

// TestZombieProposalStaysOutOfTheRebornWAL: a proc that outlives its node's
// crash — an evaluation parked in an RPC timeout, say — still holds the dead
// incarnation's replica, whose Raft node stopped while leading. Its proposal
// must be refused. Accepted, the append lands in the WAL the reborn replica
// is writing, and on the next restart it supersedes everything the reborn
// replica logged from that index on: a "wal gap" recovery failure at best
// (mrchaos -seed 12 -faults 12 -crashes), committed writes lost at worst.
func TestZombieProposalStaysOutOfTheRebornWAL(t *testing.T) {
	h := newRecoveryHarness(t, 1, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1}, 1)
	st := h.stores[1]
	restart := func() *Replica {
		t.Helper()
		h.net.CrashNode(1)
		st.Crash()
		h.run(t, 5*sim.Second, func(p *sim.Proc) error {
			_, err := st.Recover(p)
			return err
		})
		h.net.RestartNode(1)
		h.s.RunFor(15 * sim.Second) // the single voter re-elects itself
		r, _ := st.Replica(desc.RangeID)
		return r
	}
	put := func(r *Replica, keys ...string) {
		t.Helper()
		h.run(t, 10*sim.Second, func(p *sim.Proc) error {
			for _, k := range keys {
				if err := r.propose(p, putCmd(st, k, "v")); err != nil {
					return err
				}
			}
			return nil
		})
		h.s.RunFor(sim.Second)
	}

	zombie, _ := st.Replica(desc.RangeID)
	put(zombie, "k1")
	r := restart()
	put(r, "k2", "k3")
	st.CheckpointNow()
	put(r, "k4")

	wal := st.Disk.WAL(walName(desc.RangeID))
	size := wal.Size()
	if _, err := zombie.raft.Propose(putCmd(st, "kz", "v")); err == nil {
		t.Fatal("the dead incarnation's replica accepted a proposal")
	}
	if wal.Size() != size {
		t.Fatalf("the dead incarnation wrote %d bytes into the live WAL", wal.Size()-size)
	}
	h.s.RunFor(sim.Second) // anything it did write is fsynced by now

	r = restart()
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		if !hasKey(r, k) {
			t.Fatalf("%s missing after the second restart", k)
		}
	}
	if hasKey(r, "kz") {
		t.Fatal("the zombie's write was applied")
	}
}

// TestReplayResolvesEveryKeyOfAResolution: a follower that crashed once a
// multi-key resolution entry was in its WAL, with a checkpoint from before
// it, replays the entry on recovery and resolves every key it names.
func TestReplayResolvesEveryKeyOfAResolution(t *testing.T) {
	h := newRecoveryHarness(t, 3, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st, st3 := h.stores[1], h.stores[3]
	r1, _ := st.Replica(desc.RangeID)
	tx := GatewayTxn(st, mvcc.Key("k1"), 0)
	keys := []mvcc.Key{mvcc.Key("k1"), mvcc.Key("k2"), mvcc.Key("k3")}
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		for _, k := range keys {
			cmd := &Command{Kind: CmdPut, Key: k, Value: mvcc.Value("v-" + string(k)), Ts: tx.Meta.WriteTimestamp, Txn: &tx.Meta}
			if err := r1.propose(p, cmd); err != nil {
				return err
			}
		}
		return nil
	})
	h.s.RunFor(sim.Second)
	st3.CheckpointNow() // the intents, and nothing after them
	if err := st.Registry.TryCommit(tx.Meta.ID, tx.Meta.WriteTimestamp); err != nil {
		t.Fatal(err)
	}
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		before := r1.Proposed[CmdResolveIntent]
		err := r1.resolveIntents(p, tx.Meta.ID, mvcc.Committed, tx.Meta.WriteTimestamp, append([]mvcc.Key(nil), keys...))
		if n := r1.Proposed[CmdResolveIntent] - before; n != 1 {
			t.Errorf("resolving %d intents proposed %d commands, want one", len(keys), n)
		}
		return err
	})
	h.s.RunFor(sim.Second)
	r3, _ := st3.Replica(desc.RangeID)
	if r3.raft.DurableIndex() < r1.raft.LastIndex() {
		t.Fatalf("setup: n3 logged up to %d, the resolution is at %d", r3.raft.DurableIndex(), r1.raft.LastIndex())
	}

	h.net.CrashNode(3)
	st3.Crash()
	var stats RecoveryStats
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		var err error
		stats, err = st3.Recover(p)
		return err
	})
	if stats.ReplayedEntries == 0 {
		t.Fatal("recovery replayed nothing: the resolution did not come from the WAL")
	}
	h.net.RestartNode(3)
	h.s.RunFor(5 * sim.Second)
	nr3, _ := st3.Replica(desc.RangeID)
	if st3.SnapshotsApplied != 0 {
		t.Fatalf("n3 caught up by snapshot, not by replay")
	}
	for _, k := range keys {
		if _, ok := nr3.engine.GetIntent(k); ok {
			t.Errorf("intent on %s survived the replayed resolution", k)
		}
		if v, _, err := nr3.engine.Get(k, tx.Meta.WriteTimestamp, mvcc.GetOptions{}); err != nil || string(v) != "v-"+string(k) {
			t.Errorf("%s reads %q (%v) after replay", k, v, err)
		}
	}
	if n := st3.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}
