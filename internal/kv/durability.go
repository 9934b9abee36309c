package kv

import (
	"fmt"
	"slices"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/storage"
)

// This file is the durability glue between a Store and its simulated Disk
// (internal/storage). Per range, the node keeps:
//
//   - a WAL "r<id>/raft": every Raft persist() call appends one record
//     carrying the hard state (term, vote) and the batch of new log entries,
//     then fsyncs before Raft acks its peers;
//   - a checkpoint blob "r<id>/ckpt", the replica's image: its metadata
//     (descriptor, closed/issued timestamps, lease epoch) at a known applied
//     index, then the applied MVCC engine as the byte stream
//     mvcc.AppendSnapshot writes. Checkpoints let the WAL be truncated — at
//     checkpoint time the Raft log is compacted (as far as its responsive
//     followers allow, see raft.Node.Compact) and the WAL is atomically
//     rewritten to hold only the remaining tail. The same image is the Raft
//     snapshot a leader ships to a lagging peer, which persists it as
//     received; recovery and a snapshot install load it through one
//     function (Replica.install).
//
// Node-wide blobs: "manifest" lists the ranges with replicas on this node,
// and "nodemeta" persists the liveness epoch so a restarted node can never
// resurrect a pre-crash epoch (and with it a fenced lease). codec.go holds
// the byte formats.
//
// Recovery (Store.Recover) reverses the pipeline: for each manifest range,
// load the checkpoint, parse the WAL (discarding a torn tail, failing loudly
// on mid-log corruption), drop entries at or below the checkpoint, and prime
// a fresh Raft node with the hard state and tail. Entries beyond the
// checkpoint are NOT applied directly — they re-commit through Raft once a
// leader emerges, so recovery can never apply an uncommitted suffix.

// DefaultCheckpointInterval is the cadence of the per-store loop that
// checkpoints (on a disk), truncates Raft logs and raises key-table read
// floors.
const DefaultCheckpointInterval = 5 * sim.Second

// walName and ckptName locate a range's durable state on the node's disk.
func walName(id RangeID) string  { return fmt.Sprintf("r%d/raft", id) }
func ckptName(id RangeID) string { return fmt.Sprintf("r%d/ckpt", id) }

// checkpointRec is a replica's image: the atomically-written per-range
// checkpoint blob, and the payload of a Raft snapshot. Engine is the
// engine's byte stream, which the codec carries without parsing.
type checkpointRec struct {
	AppliedIndex uint64
	AppliedTerm  uint64
	Desc         RangeDescriptor
	Closed       hlc.Timestamp
	Issued       hlc.Timestamp
	LeaseEpoch   int64
	Engine       []byte
}

// replicaStorage adapts one range's WAL to the raft.Storage interface. buf
// is the scratch every record is encoded into: the WAL copies what it is
// given, so a steady-state append allocates nothing.
type replicaStorage struct {
	wal *storage.WAL
	buf []byte
	// noopSynced runs after the fsync of a record holding a new leader's
	// no-op (the one entry with neither a command nor a conf change): on a
	// single voter that fsync is what commits and applies it, with no
	// message for Replica.step to see.
	noopSynced func()
}

func (rs *replicaStorage) Append(hs raft.HardState, entries []raft.Entry, c raft.Completion) {
	rs.buf = appendWALRecord(rs.buf[:0], hs, entries)
	rs.wal.Append(rs.buf)
	s := walSync{c: c}
	if rs.noopSynced != nil && holdsNoop(entries) {
		s.then = rs.noopSynced
	}
	storage.SyncWith(rs.wal, walSync.run, s)
}

// walSync is what one WAL fsync completes: Raft's promise, then, for a
// record holding a no-op, the replica's noopSynced.
type walSync struct {
	c    raft.Completion
	then func()
}

func (s walSync) run() {
	s.c.Run()
	if s.then != nil {
		s.then()
	}
}

// holdsNoop reports whether entries include a leader's no-op.
func holdsNoop(entries []raft.Entry) bool {
	for _, e := range entries {
		if e.Data == nil && e.Conf == nil {
			return true
		}
	}
	return false
}

func (rs *replicaStorage) Compact(index, term uint64, tail []raft.Entry, hs raft.HardState) {
	// Log rotation: the WAL shrinks to a single record holding the current
	// hard state plus the post-checkpoint tail. The tail is the Raft node's
	// own log array, so it is encoded here and not kept.
	rs.buf = appendWALRecord(rs.buf[:0], hs, tail)
	rs.wal.ResetDurable([][]byte{rs.buf})
}

func (rs *replicaStorage) Reset(index, term uint64, hs raft.HardState) {
	rs.Compact(index, term, nil, hs)
}

// replayRaftWAL folds parsed WAL records into the final hard state and log
// tail. Hard state is last-writer-wins. Entry batches replay in append
// order; a batch whose first index overlaps previously staged entries
// supersedes the overlapped suffix — that is how a leader-change truncation
// looks on disk, since Raft rewrites the conflicting suffix by re-appending.
func replayRaftWAL(payloads [][]byte) (raft.HardState, []raft.Entry, error) {
	var hs raft.HardState
	var entries []raft.Entry
	for i, p := range payloads {
		recHS, batch, err := decodeWALRecord(p)
		if err != nil {
			return hs, nil, fmt.Errorf("kv: wal record %d: %w", i, err)
		}
		hs = recHS
		for _, e := range batch {
			for len(entries) > 0 && entries[len(entries)-1].Index >= e.Index {
				entries = entries[:len(entries)-1]
			}
			entries = append(entries, e)
		}
	}
	return hs, entries, nil
}

// --- Store-side checkpointing ---

func (s *Store) sortedRangeIDs() []RangeID {
	ids := make([]RangeID, 0, len(s.replicas))
	for id := range s.replicas {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// image is the replica's applied state as one sealed blob, declared current
// as of the log position (index, term): the checkpoint a store persists and
// the snapshot a leader ships (raft Config.Snapshot). It is built in one
// buffer sized from the previous image.
func (r *Replica) image(index, term uint64) []byte {
	buf := appendCheckpointHeader(make([]byte, 0, r.ckptSize+r.ckptSize/16+128), &checkpointRec{
		AppliedIndex: index,
		AppliedTerm:  term,
		Desc:         *r.desc,
		Closed:       r.closed.closed,
		Issued:       r.closed.issued,
		LeaseEpoch:   r.leaseEpoch,
	})
	buf = sealBlob(r.engine.AppendSnapshot(buf))
	r.ckptSize = len(buf)
	return buf
}

// checkpoint persists r's image at (index, term); a store without a disk
// returns before encoding anything. The blob write is atomic (temp +
// rename), so a crash between checkpoint and WAL truncation leaves a
// recoverable pair: the WAL simply still holds entries at or below the
// checkpoint, which recovery filters out.
func (s *Store) checkpoint(r *Replica, index, term uint64) {
	if s.Disk != nil {
		s.Disk.PutBlob(ckptName(r.desc.RangeID), r.image(index, term))
	}
}

// persistManifest records which ranges have replicas here; a store without
// a disk records nothing.
func (s *Store) persistManifest() {
	if s.Disk != nil {
		s.Disk.PutBlob("manifest", encodeManifest(s.sortedRangeIDs()))
	}
}

// persistNodeMeta records the node's liveness epoch.
func (s *Store) persistNodeMeta(epoch int64) {
	s.Disk.PutBlob("nodemeta", encodeNodeMeta(epoch))
}

// CheckpointNow is one turn of the store loop. A store with a disk first
// checkpoints every replica; then every store truncates each replica's Raft
// log through its applied index (as far as raft.Node.Compact allows) and
// raises its key table's read floor to the closed timestamp it has promised.
// All engines snapshot before any log shrinks, and within one scheduler
// step. Without a disk the applied engine is the state a lagging peer is
// sent as a snapshot.
func (s *Store) CheckpointNow() {
	ids := s.sortedRangeIDs()
	for _, id := range ids {
		r := s.replicas[id]
		s.checkpoint(r, r.raft.Applied(), r.raft.AppliedTerm())
	}
	for _, id := range ids {
		r := s.replicas[id]
		r.raft.Compact(r.raft.Applied())
		r.raiseReadFloor()
	}
}

// raiseReadFloor sweeps the key table at the closed timestamp the replica
// issued. Every write this replica evaluates lands above the promise it
// issues (writeTimestamp), which is never below r.closed.issued, so a read
// at or below issued can no longer push a write: raising the floor there
// changes no write timestamp, own reads included.
func (r *Replica) raiseReadFloor() {
	r.keys.sweep(r.closed.issued, r.store.Registry)
}

// StartCheckpoints begins the periodic store loop (CheckpointNow) on every
// store, with or without a disk. The loop stops on Crash and resumes
// automatically after Recover.
func (s *Store) StartCheckpoints(interval sim.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	s.ckptInterval = interval
	s.startCkptTicker()
	return func() {
		if s.ckptStop != nil {
			s.ckptStop()
			s.ckptStop = nil
		}
		s.ckptInterval = 0
	}
}

func (s *Store) startCkptTicker() {
	s.ckptStop = s.Sim.Ticker(s.ckptInterval, func() { s.CheckpointNow() })
}

// --- Crash and recovery ---

// Crash wipes the node's volatile state, exactly as power loss would: every
// replica (engine, key table, unapplied Raft state) is discarded, the
// checkpoint loop dies with the process, and the disk loses its un-fsynced
// WAL tails. The network handler and liveness ticker survive as objects but
// are inert while the node is partitioned off by simnet.CrashNode; Recover
// rebuilds the node from the disk alone.
func (s *Store) Crash() {
	if s.ckptStop != nil {
		s.ckptStop()
		s.ckptStop = nil
	}
	for _, id := range s.sortedRangeIDs() {
		s.replicas[id].raft.Stop()
	}
	s.replicas = map[RangeID]*Replica{}
	s.down = true
	s.forgetAcks()
	if s.Disk != nil {
		s.Disk.Crash()
	}
}

// RecoveryStats summarizes one node restart from disk.
type RecoveryStats struct {
	Ranges          int
	ReplayedEntries int
	WALBytes        int
	// Duration is the virtual time the restart charged on the clock.
	Duration sim.Duration
}

// recoveryDuration models restart cost deterministically: process boot plus
// per-range checkpoint loading plus per-entry replay plus WAL scan
// bandwidth. Being a pure function of recovered state, it keeps same-seed
// runs byte-identical.
func recoveryDuration(st RecoveryStats) sim.Duration {
	return 10*sim.Millisecond +
		sim.Duration(st.Ranges)*2*sim.Millisecond +
		sim.Duration(st.ReplayedEntries)*100*sim.Microsecond +
		sim.Duration(st.WALBytes/1024)*20*sim.Microsecond
}

// Recover boots the node from its disk: every manifest range is rebuilt
// from its checkpoint plus the WAL tail, the liveness epoch is bumped past
// the persisted one (fencing any pre-crash lease), and the restart cost is
// charged on the virtual clock before the method returns. The caller heals
// the network afterwards — recovery happens while the node is still
// unreachable, so no traffic observes a half-recovered store. Damaged durable
// state (a checksum, format or length that does not hold) is an error, and a
// failed recovery leaves no replica behind.
func (s *Store) Recover(p *sim.Proc) (stats RecoveryStats, err error) {
	if s.Disk == nil {
		return stats, fmt.Errorf("kv: node n%d has no disk to recover from", s.NodeID)
	}
	if len(s.replicas) != 0 {
		return stats, fmt.Errorf("kv: node n%d recovering over %d live replicas", s.NodeID, len(s.replicas))
	}
	defer func() {
		if err != nil {
			for _, r := range s.replicas {
				r.raft.Stop()
			}
			s.replicas = map[RangeID]*Replica{}
		}
	}()
	var ids []RangeID
	if b, ok := s.Disk.GetBlob("manifest"); ok {
		if ids, err = decodeManifest(b); err != nil {
			return stats, fmt.Errorf("kv: manifest: %w", err)
		}
	}
	for _, rid := range ids {
		b, ok := s.Disk.GetBlob(ckptName(rid))
		if !ok {
			return stats, fmt.Errorf("kv: r%d in manifest but checkpoint missing", rid)
		}
		ckpt, err := decodeCheckpoint(b)
		if err != nil {
			return stats, fmt.Errorf("kv: r%d checkpoint: %w", rid, err)
		}
		wal := s.Disk.WAL(walName(rid))
		payloads, err := wal.Records() // truncates a torn tail; *ErrCorrupt on bit rot
		if err != nil {
			return stats, fmt.Errorf("kv: r%d: %w", rid, err)
		}
		stats.WALBytes += wal.Size()
		hs, entries, err := replayRaftWAL(payloads)
		if err != nil {
			return stats, fmt.Errorf("kv: r%d: %w", rid, err)
		}
		// Entries at or below the checkpoint are already reflected in the
		// engine snapshot; only the tail beyond it is live log.
		tail := entries[:0:0]
		for _, e := range entries {
			if e.Index > ckpt.AppliedIndex {
				tail = append(tail, e)
			}
		}
		if len(tail) > 0 && tail[0].Index != ckpt.AppliedIndex+1 {
			return stats, fmt.Errorf("kv: r%d: wal gap: checkpoint at %d, first tail entry %d",
				rid, ckpt.AppliedIndex, tail[0].Index)
		}
		if err := s.recoverReplica(&ckpt, hs, tail); err != nil {
			return stats, fmt.Errorf("kv: r%d checkpoint: %w", rid, err)
		}
		stats.Ranges++
		stats.ReplayedEntries += len(tail)
	}
	// Fence the past: bump the liveness epoch past the persisted one so no
	// lease bound to a pre-crash epoch can ever be considered valid again,
	// and persist the bump before serving anything.
	var epoch int64
	if b, ok := s.Disk.GetBlob("nodemeta"); ok {
		if epoch, err = decodeNodeMeta(b); err != nil {
			return stats, fmt.Errorf("kv: nodemeta: %w", err)
		}
	}
	s.persistNodeMeta(s.liveness.SelfRestart(s.NodeID, epoch))
	// The node must not believe it is live until a peer acks a fresh
	// heartbeat under the new epoch.
	s.forgetAcks()
	stats.Duration = recoveryDuration(stats)
	p.Sleep(stats.Duration)
	m := s.Disk.Metrics()
	m.Counter("recovery.replay.entries").Add(int64(stats.ReplayedEntries))
	m.Histogram("recovery.duration").RecordDuration(stats.Duration)
	if s.ckptInterval > 0 {
		s.startCkptTicker()
	}
	s.down = false
	return stats, nil
}

// recoverReplica rebuilds one replica from its durable state. The Raft node
// is primed with commit = applied = the checkpoint index even if the tail
// holds committed entries; they re-commit through the normal Raft flow, so
// recovery never applies a suffix the cluster may have truncated.
func (s *Store) recoverReplica(ckpt *checkpointRec, hs raft.HardState, tail []raft.Entry) error {
	r := s.buildReplica(&ckpt.Desc)
	// The recovered node no longer remembers pre-crash reads: ratchet the
	// read floor past restart time plus the clock uncertainty so a
	// recovered leaseholder cannot permit a write under a forgotten read.
	if err := r.install(ckpt, s.Clock.Now().Add(s.Clock.MaxOffset())); err != nil {
		return err
	}
	r.raft.Restore(hs, ckpt.AppliedIndex, ckpt.AppliedTerm, tail)
	s.replicas[ckpt.Desc.RangeID] = r
	r.raft.Start()
	return nil
}

// applySnapshotData installs a leader's image (raft Config.ApplySnapshot
// hook) at (index, term), after which Raft resets its log and the WAL. On a
// disk the image is persisted as received: it is the checkpoint of that
// position. The image is handed over inside the simulator, so only a bug can
// make it undecodable or place it elsewhere.
func (r *Replica) applySnapshotData(data []byte, index, term uint64) {
	s := r.store
	s.SnapshotsApplied++
	c, err := decodeCheckpoint(data)
	if err == nil && (c.AppliedIndex != index || c.AppliedTerm != term) {
		err = fmt.Errorf("image of (%d,%d) sent as (%d,%d)", c.AppliedIndex, c.AppliedTerm, index, term)
	}
	if err == nil {
		err = r.install(&c, c.Closed)
	}
	if err != nil {
		panic(fmt.Sprintf("kv: r%d: installing snapshot: %v", r.desc.RangeID, err))
	}
	if s.Disk != nil {
		s.Disk.PutBlob(ckptName(r.desc.RangeID), data)
	}
}

// install makes r the replica an image describes, on recovery and on a
// snapshot install alike: a fresh engine loaded from the image's stream, its
// descriptor and lease epoch, and its closed timestamp and promise floor
// inherited, with readFloor as the key table's read floor. On an error r is
// to be discarded.
func (r *Replica) install(c *checkpointRec, readFloor hlc.Timestamp) error {
	eng := mvcc.NewEngine(r.store.engineSeed + int64(c.Desc.RangeID))
	if err := eng.LoadSnapshot(c.Engine); err != nil {
		return err
	}
	r.engine, r.ckptSize = eng, len(c.Engine)
	r.setDesc(c.Desc.Clone())
	r.leaseEpoch = c.LeaseEpoch
	r.inherit(c.Closed, c.Issued, readFloor)
	return nil
}
