package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
)

// putMany proposes n puts on r, one after the other.
func (h *recoveryHarness) putMany(t *testing.T, r *Replica, prefix string, n int) {
	t.Helper()
	h.run(t, 60*sim.Second, func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			if err := r.propose(p, putCmd(r.store, fmt.Sprintf("%s%03d", prefix, i), "value")); err != nil {
				return err
			}
		}
		return nil
	})
	h.s.RunFor(sim.Second)
}

// TestRecoverRejectsEveryFlippedBit: a flipped bit anywhere in a checkpoint,
// the manifest, the node metadata or a durable WAL record makes Recover
// return an error and build nothing. Varints decode from almost any bytes,
// so it is the checksums that stand between bit rot and a garbage replica.
func TestRecoverRejectsEveryFlippedBit(t *testing.T) {
	h := newRecoveryHarness(t, 1, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1}, 1)
	st := h.stores[1]
	r, _ := st.Replica(desc.RangeID)
	h.putMany(t, r, "a", 20)
	st.CheckpointNow()
	h.putMany(t, r, "b", 5) // durable WAL records beyond the checkpoint
	h.net.CrashNode(1)
	st.Crash()

	mustFail := func(what string) {
		t.Helper()
		h.run(t, 5*sim.Second, func(p *sim.Proc) error {
			if _, err := st.Recover(p); err == nil {
				return fmt.Errorf("%s: recovery succeeded", what)
			}
			if len(st.replicas) != 0 {
				return fmt.Errorf("%s: recovery failed but left %d replicas behind", what, len(st.replicas))
			}
			return nil
		})
	}
	rng := rand.New(rand.NewSource(64))
	for _, name := range []string{ckptName(desc.RangeID), "manifest", "nodemeta"} {
		intact, ok := st.Disk.GetBlob(name)
		if !ok {
			t.Fatalf("no %s blob on disk", name)
		}
		for i := 0; i < 64; i++ {
			bad := append([]byte(nil), intact...)
			off, bit := rng.Intn(len(bad)), uint(rng.Intn(8))
			bad[off] ^= 1 << bit
			st.Disk.PutBlob(name, bad)
			mustFail(fmt.Sprintf("%s byte %d bit %d", name, off, bit))
		}
		st.Disk.PutBlob(name, intact)
	}
	wal := st.Disk.WAL(walName(desc.RangeID))
	if wal.DurableSize() < 100 {
		t.Fatalf("only %d durable WAL bytes to corrupt", wal.DurableSize())
	}
	for i := 0; i < 64; i++ {
		off, bit := rng.Intn(wal.DurableSize()), uint(rng.Intn(8))
		wal.FlipBit(off, bit)
		mustFail(fmt.Sprintf("wal byte %d bit %d", off, bit))
		wal.FlipBit(off, bit)
	}
	// With every bit back in place the node recovers all 25 writes.
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := st.Recover(p)
		return err
	})
	h.net.RestartNode(1)
	h.s.RunFor(15 * sim.Second)
	nr, _ := st.Replica(desc.RangeID)
	if !hasKey(nr, "a019") || !hasKey(nr, "b004") {
		t.Fatal("writes missing after recovering from the restored disk")
	}
}

// TestSnapshotInstallPersistsReceivedBytes: a follower installing a snapshot
// persists the image it was sent, byte for byte, as its checkpoint — it
// serializes nothing a second time — and a crash right after recovers, from
// that checkpoint, an engine equal to the leader's.
func TestSnapshotInstallPersistsReceivedBytes(t *testing.T) {
	h := newRecoveryHarness(t, 3, 3600*sim.Second)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	leader, _ := h.stores[1].Replica(desc.RangeID)
	h.putMany(t, leader, "k", 50)
	if _, err := leader.engine.Put(mvcc.Key("k010"), nil, h.stores[1].Clock.Now(), &mvcc.TxnMeta{ID: 9, Key: mvcc.Key("k010")}); err != nil {
		t.Fatal(err)
	}
	st := h.stores[3]
	follower, _ := st.Replica(desc.RangeID)
	index, term := follower.raft.Applied(), follower.raft.AppliedTerm()
	snap := leader.image(index, term)
	ckpt, err := decodeCheckpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Engine, leader.engine.AppendSnapshot(nil)) {
		t.Fatal("the snapshot does not carry the engine's stream")
	}

	follower.applySnapshotData(snap, index, term)
	if st.SnapshotsApplied != 1 {
		t.Fatalf("SnapshotsApplied = %d after one install", st.SnapshotsApplied)
	}
	if blob, _ := st.Disk.GetBlob(ckptName(desc.RangeID)); !bytes.Equal(blob, snap) {
		t.Fatal("the checkpoint is not the bytes received")
	}

	h.net.CrashNode(3)
	st.Crash()
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := st.Recover(p)
		return err
	})
	reborn, _ := st.Replica(desc.RangeID)
	if !bytes.Equal(reborn.engine.AppendSnapshot(nil), leader.engine.AppendSnapshot(nil)) {
		t.Fatal("the engine recovered from the installed checkpoint differs from the leader's")
	}
	if reborn.engine.IntentCount() != 1 {
		t.Fatalf("recovered %d intents, want the leader's 1", reborn.engine.IntentCount())
	}
}

// onePutBatch is the persist batch of a steady-state write.
func onePutBatch() (raft.HardState, []raft.Entry) {
	cmd := &Command{Kind: CmdPut, Key: mvcc.Key("usertable/user000000000042"), Value: mvcc.Value(bytes.Repeat([]byte("v"), 100)),
		Ts: hlc.Timestamp{WallTime: 12_345_678_901}, ClosedTS: hlc.Timestamp{WallTime: 9_345_678_901}}
	return raft.HardState{Term: 3, Vote: 2}, []raft.Entry{{Term: 3, Index: 1234, Data: cmd}}
}

// TestWALAppendEncodesWithoutAllocating pins the steady-state append: the
// record is encoded into the storage's scratch buffer, which the WAL copies.
func TestWALAppendEncodesWithoutAllocating(t *testing.T) {
	hs, entries := onePutBatch()
	buf := appendWALRecord(nil, hs, entries)
	if n := testing.AllocsPerRun(100, func() { buf = appendWALRecord(buf[:0], hs, entries) }); n != 0 {
		t.Errorf("encoding a one-entry batch into a reused buffer allocates %v objects", n)
	}
	if len(buf) > 160 {
		t.Errorf("a 126-byte put costs a %d-byte record", len(buf))
	}
}

// TestWALAppendAndSyncAllocateNothing pins a steady-state persist: the
// record is encoded into the storage's scratch, and its fsync waits in the
// log's own queue, completed by a method bound once, with the Raft
// completion carried by value. The warm-up grows the log far enough that
// its array grows at most once over the measured appends.
func TestWALAppendAndSyncAllocateNothing(t *testing.T) {
	s := sim.New(1)
	rs := &replicaStorage{wal: storage.NewDisk(s, 1, nil).WAL("w")}
	hs, entries := onePutBatch()
	persist := func() {
		rs.Append(hs, entries, raft.Completion{})
		s.Run() // the fsync completes
	}
	for i := 0; i < 1000; i++ {
		persist()
	}
	if n := testing.AllocsPerRun(100, persist); n != 0 {
		t.Errorf("an append and its fsync allocate %v objects, want 0", n)
	}
	if rs.wal.DurableSize() != rs.wal.Size() {
		t.Errorf("%d of %d bytes durable after the fsyncs", rs.wal.DurableSize(), rs.wal.Size())
	}
}

// loadedStore is one durable store holding a range of keys rows bulk-loaded
// into its engine, checkpointed once.
func loadedStore(t testing.TB, keys int) (*Store, *Replica) {
	t.Helper()
	s := sim.New(1)
	topo := simnet.NewTable1Topology()
	topo.AddNode(1, simnet.Locality{Region: simnet.USEast1, Zone: "us-east1-a"})
	st := NewStore(1, s, simnet.NewNetwork(s, topo), topo, hlc.NewClock(hlc.SimWallSource{Sim: s}, 250*sim.Millisecond), NewTxnRegistry(s, topo))
	st.Disk = storage.NewDisk(s, 1, nil)
	st.StartLiveness(NewNodeLiveness(s))
	r := st.CreateReplica(&RangeDescriptor{RangeID: 1, StartKey: mvcc.Key("a"), Voters: []simnet.NodeID{1}, Leaseholder: 1})
	for i := 0; i < keys; i++ {
		if _, err := r.engine.Put(mvcc.Key(fmt.Sprintf("usertable/user%012d", i)), bytes.Repeat([]byte("f"), 100), hlc.Timestamp{WallTime: int64(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.CheckpointNow()
	return st, r
}

// TestCheckpointAllocationsDoNotScaleWithKeys: a checkpoint is one buffer,
// sized from the previous blob, plus the blob's name — whatever the range
// holds. A deep copy of the engine, or a buffer grown by doubling, shows up
// as a count that rises with the key count.
func TestCheckpointAllocationsDoNotScaleWithKeys(t *testing.T) {
	var counts [2]float64
	for i, keys := range []int{2000, 4000} {
		st, _ := loadedStore(t, keys)
		counts[i] = testing.AllocsPerRun(10, st.CheckpointNow)
	}
	// One object of slack: under the race detector the runtime's own
	// background allocations land in the count now and then.
	if d := counts[0] - counts[1]; d < -1 || d > 1 || counts[0] > 10 || counts[1] > 10 {
		t.Errorf("a checkpoint allocates %v objects at 2000 keys and %v at 4000, want the same and at most 10", counts[0], counts[1])
	}
}

func BenchmarkWALAppend(b *testing.B) {
	s := sim.New(1)
	rs := &replicaStorage{wal: storage.NewDisk(s, 1, nil).WAL("bench")}
	hs, entries := onePutBatch()
	rs.Append(hs, entries, raft.Completion{})
	b.SetBytes(int64(len(rs.buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			rs.Reset(0, 0, hs) // keep the log, and the measurement, at a steady size
		}
		rs.Append(hs, entries, raft.Completion{})
		s.Run() // the fsync completes
	}
}

func BenchmarkCheckpoint2k(b *testing.B) {
	st, r := loadedStore(b, 2000)
	b.SetBytes(int64(r.ckptSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.CheckpointNow()
	}
}

func BenchmarkSnapshotInstall2k(b *testing.B) {
	_, leader := loadedStore(b, 2000)
	_, follower := loadedStore(b, 0)
	b.SetBytes(int64(leader.ckptSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// What one MsgSnap costs end to end: the leader serializes, the
		// follower loads and persists.
		follower.applySnapshotData(leader.image(uint64(i+1), 1), uint64(i+1), 1)
	}
}
