package kv

import (
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
	"mrdb/internal/storage"
)

// Store is the per-node container of replicas. It owns the node's HLC
// clock, dispatches incoming RPCs to replicas, and routes Raft traffic
// between ranges.
type Store struct {
	NodeID   simnet.NodeID
	Sim      *sim.Simulation
	Net      *simnet.Network
	Topo     *simnet.Topology
	Clock    *hlc.Clock
	Registry *TxnRegistry

	// Catalog, when set, lets replicas publish descriptor changes (e.g. a
	// lease acquired after a failover) to the shared routing catalog.
	Catalog *RangeCatalog

	// Obs, when set, records server-side spans (replica evaluation,
	// latching, closed-timestamp waits, Raft replication) into incoming
	// requests' traces. Optional; nil-safe.
	Obs *obs.Tracer

	// Contention, when set, receives one event per intent wait on this
	// store's replicas, feeding mrdb_internal.contention_events. Optional;
	// nil-safe.
	Contention *obs.ContentionLog

	// Disk, when set, is the node's simulated durable device: Raft state
	// persists through per-range WALs, checkpoints truncate them, and
	// Crash/Recover model honest restarts. Nil keeps the historical fully
	// in-memory behavior.
	Disk *storage.Disk

	replicas map[RangeID]*Replica
	// down is set from Crash until Recover has rebuilt the store: a down
	// store takes no new replica (see Down).
	down bool
	// engineSeed derives per-replica skiplist seeds deterministically.
	engineSeed int64
	// applyErrors counts the commands a replica here failed to apply; the
	// store keeps the count, so a crash or a removed replica loses none.
	applyErrors int

	// store loop state (CheckpointNow's ticker).
	ckptInterval sim.Duration
	ckptStop     func()

	// liveness state: the shared registry plus this node's view of its own
	// record, maintained from peer acks. ackedExp is the latest expiration a
	// peer's ack confirmed the record holds: the ping's, not a TTL after the
	// ack landed, which would outlive the record by the ping's round trip.
	// acked is false until the first ack since the node (re)started:
	// ackedExp means nothing then, and cannot say so itself, since every
	// sim.Time, zero included, is a time. firstAcker is the peer whose ack
	// answered the current heartbeat round first (0: unanswered so far).
	liveness   *NodeLiveness
	acked      bool
	ackedExp   sim.Time
	ackEpoch   int64
	firstAcker simnet.NodeID
	// pings carves the heartbeats the store sends, each handed out once: a
	// ping in flight when the next round starts is still the receiver's to
	// read, and to answer with.
	pings slab.Of[livenessPing]

	// GCCollected counts MVCC versions collected by the GC loop.
	GCCollected int64
	// SnapshotsApplied counts Raft snapshots installed on this store's
	// replicas: each is a whole range shipped, loaded and checkpointed.
	SnapshotsApplied int64
}

// NewStore creates a store and registers its network handler.
func NewStore(id simnet.NodeID, s *sim.Simulation, net *simnet.Network, topo *simnet.Topology, clock *hlc.Clock, reg *TxnRegistry) *Store {
	st := &Store{
		NodeID:     id,
		Sim:        s,
		Net:        net,
		Topo:       topo,
		Clock:      clock,
		Registry:   reg,
		replicas:   map[RangeID]*Replica{},
		engineSeed: int64(id) * 7919,
	}
	net.Register(id, st.handleMessage)
	return st
}

// Replica returns the local replica of the given range, if any.
func (s *Store) Replica(id RangeID) (*Replica, bool) {
	r, ok := s.replicas[id]
	return r, ok
}

// Replicas returns the number of replicas on this store.
func (s *Store) Replicas() int { return len(s.replicas) }

// Counts is what a store's replicas tallied, summed over the replicas it
// holds: their number, the Raft log entries they retain, the commands they
// proposed by kind, and the Raft messages they sent by kind, without ([0])
// and with ([1]) entries.
type Counts struct {
	Replicas, Retained int64
	Proposed           [NumCommandKinds]int64
	RaftSent           [raft.NumMsgKinds][2]int64
}

// Counts sums the store's replicas' counters.
func (s *Store) Counts() Counts {
	var c Counts
	for _, r := range s.replicas {
		c.Replicas++
		c.Retained += int64(r.raft.LastIndex() - r.raft.FirstIndex())
		for k, n := range r.Proposed {
			c.Proposed[k] += n
		}
		for k, n := range r.raft.Sent {
			c.RaftSent[k][0] += n[0]
			c.RaftSent[k][1] += n[1]
		}
	}
	return c
}

// ApplyErrors counts failed command applications; tests assert zero.
func (s *Store) ApplyErrors() int { return s.applyErrors }

// handleMessage dispatches network traffic: Raft envelopes go straight to
// the replica's state machine; an RPC request is evaluated on the process the
// network delivered it on, because evaluation may block on latches, locks, or
// replication.
func (s *Store) handleMessage(m simnet.Message) {
	switch payload := m.Payload.(type) {
	case *RaftEnvelope:
		// Copy out and release first: Step may send, and finds the envelope
		// back in the free list.
		rangeID, msg := payload.RangeID, payload.Msg
		s.Registry.envelopes.put(payload)
		if r, ok := s.replicas[rangeID]; ok {
			r.step(msg)
		}
	case *livenessPing:
		s.liveness.Heartbeat(m.From, payload.Expiration)
		payload.Epoch = s.liveness.Epoch(m.From)
		s.Net.Send(s.NodeID, m.From, (*livenessAck)(payload))
	case *livenessAck:
		// A peer confirmed our record through payload.Expiration: we are
		// provably connected, and payload.Epoch is the epoch our leases
		// must be bound to. An ack of an older epoch than one already
		// acked is a late one from before a fence: it vouches for
		// nothing now, and taking its epoch back with the newer
		// expiration would revive a fenced lease past where the next one
		// starts.
		if s.acked && payload.Epoch < s.ackEpoch {
			break
		}
		if !s.acked || s.ackedExp < payload.Expiration {
			s.ackedExp = payload.Expiration
		}
		s.acked = true
		s.ackEpoch = payload.Epoch
		if s.firstAcker == 0 {
			s.firstAcker = m.From
		}
	case *simnet.RPCRequest:
		batch, ok := payload.Payload.(*BatchRequest)
		if !ok {
			payload.Reply(&BatchRequest{Resps: []Response{{Err: fmt.Errorf("kv: unexpected RPC payload %T", payload.Payload)}}})
			return
		}
		r, ok := s.replicas[batch.RangeID]
		if !ok {
			resps, err := batch.reply(), &RangeKeyMismatchError{}
			for i := range resps {
				resps[i] = Response{Err: err}
			}
			payload.Reply(batch)
			return
		}
		p := payload.Proc
		sp := s.Obs.StartSpan("replica.eval", batch.Trace)
		if sp != nil {
			sp.SetTagInt("node", int64(s.NodeID)).
				SetTagInt("range", int64(batch.RangeID)).
				SetTag("req", reqName(batch.Reqs[0]))
			if len(batch.Reqs) > 1 {
				sp.SetTagInt("reqs", int64(len(batch.Reqs)))
			}
			obs.SetProcSpan(p, sp)
		}
		resps := r.evaluateBatch(p, batch)
		if sp != nil && len(resps) == 1 && resps[0].Err != nil {
			sp.SetError(resps[0].Err)
		}
		sp.Finish()
		payload.Reply(batch)
	}
}

// StartLiveness registers this node in the shared liveness registry and
// starts its heartbeat loop: every LivenessHeartbeatInterval the store pings
// over the network; each delivered ping renews this node's record, and each
// ack renews this node's confidence in its own record. A round goes to the
// one peer whose ack answered the previous round first (the nearest), and to
// every peer only when the previous round went unanswered, so a node that
// can reach anyone renews at least every second round and background
// traffic grows with the node count, not its square. Crashes and partitions
// stop the pings, so the record expires LivenessTTL after the last delivered
// one and the node becomes eligible for an epoch bump. Every store runs it
// before it serves: its leases are bound to its epoch. Returns a stop
// function.
func (s *Store) StartLiveness(nl *NodeLiveness) (stop func()) {
	s.liveness = nl
	nl.Register(s.NodeID)
	s.acked = true
	s.ackedExp, _ = nl.Expiration(s.NodeID)
	s.ackEpoch = nl.Epoch(s.NodeID)
	if s.Disk != nil {
		s.persistNodeMeta(s.ackEpoch)
	}
	return s.Sim.Ticker(LivenessHeartbeatInterval, func() {
		exp := s.Sim.Now().Add(LivenessTTL)
		only := s.firstAcker
		s.firstAcker = 0
		for _, peer := range nl.Nodes() {
			if peer == s.NodeID || (only != 0 && peer != only) {
				continue
			}
			ping := s.pings.New()
			ping.Expiration = exp
			s.Net.Send(s.NodeID, peer, ping)
		}
	})
}

// SelfLive reports whether this node believes its own liveness record is
// current: a peer acked a heartbeat whose expiration has not passed. A node
// cut off from all peers loses this the instant its record expires, when a
// peer may bump its epoch, and must stop serving as a leaseholder.
// Single-node liveness domains are trivially live.
func (s *Store) SelfLive() bool {
	return len(s.liveness.Nodes()) <= 1 || s.acked && s.Sim.Now() <= s.ackedExp
}

// servesAt reports whether a leaseholder here may serve a read at ts: only
// below the expiration a peer acked its record to (CockroachDB's lease
// stasis). A peer may fence the record at that expiration and start the
// next lease there, so no read this node served lies at or above where the
// next lease starts. A single-node liveness domain has no expiration.
func (s *Store) servesAt(ts hlc.Timestamp) bool {
	return len(s.liveness.Nodes()) <= 1 || ts.WallTime < int64(s.ackedExp)
}

// forgetAcks returns the node to "no peer has confirmed my record": it does
// not believe itself live, holds no confirmed epoch, and its next heartbeat
// round goes to everyone.
func (s *Store) forgetAcks() {
	s.acked = false
	s.ackEpoch = 0
	s.firstAcker = 0
}

// CurrentEpoch is the epoch of this node's record as last confirmed by a
// peer; leases this store acquires are bound to it.
func (s *Store) CurrentEpoch() int64 { return s.ackEpoch }

// raftTransport adapts the network for one range's Raft node.
type raftTransport struct {
	store   *Store
	rangeID RangeID
}

func (t *raftTransport) Send(to simnet.NodeID, msg raft.Message) {
	s := t.store
	env := s.Registry.envelopes.get()
	env.RangeID, env.Msg = t.rangeID, msg
	s.Net.Send(s.NodeID, to, env)
}

// CreateReplica instantiates the local replica of a range.
func (s *Store) CreateReplica(desc *RangeDescriptor) *Replica {
	if _, ok := s.replicas[desc.RangeID]; ok {
		panic(fmt.Sprintf("kv: replica of r%d already on n%d", desc.RangeID, s.NodeID))
	}
	r := s.buildReplica(desc)
	s.replicas[desc.RangeID] = r
	// Seed the durable pair before the replica can make any promise: an
	// empty checkpoint at log position zero plus the manifest entry.
	s.checkpoint(r, 0, 0)
	s.persistManifest()
	r.raft.Start()
	return r
}

// Down reports whether the node crashed and has not recovered yet. A range
// must not be created or grown onto a down store: the replica would live in
// memory the crash emptied, and the restart refuses to recover over it.
func (s *Store) Down() bool { return s.down }

// buildReplica constructs a replica and its Raft node without registering
// or starting them, so recovery can prime engine and log state first.
func (s *Store) buildReplica(desc *RangeDescriptor) *Replica {
	r := &Replica{
		store:      s,
		desc:       desc.Clone(),
		engine:     mvcc.NewEngine(s.engineSeed + int64(desc.RangeID)),
		keys:       newKeyTable(),
		leaseEpoch: s.CurrentEpoch(),
	}
	r.leaderApplied = sim.NewCond(s.Sim)
	r.fenceLifted = sim.NewCond(s.Sim)
	r.releaseResolved = r.releaseOne
	rcfg := raft.Config{
		ID:               s.NodeID,
		Voters:           desc.Voters,
		Learners:         desc.NonVoters,
		Sim:              s.Sim,
		Transport:        &raftTransport{store: s, rangeID: desc.RangeID},
		Apply:            r.apply,
		HeartbeatPayload: r.heartbeatPayload,
		OnHeartbeat:      r.closed.advance,
		OnLeaderChange:   r.onLeaderChange,
	}
	// Snapshot hooks are wired unconditionally: besides catching lagging
	// replicas up past a compacted log, they initialize replicas added by
	// relocation, whose engines must receive state (bulk loads, merged-in
	// data) the raft log never carried.
	rcfg.Snapshot = r.image
	rcfg.ApplySnapshot = r.applySnapshotData
	if s.Disk != nil {
		rcfg.Storage = &replicaStorage{wal: s.Disk.WAL(walName(desc.RangeID)), noopSynced: r.leaderApplied.Broadcast}
	}
	r.raft = raft.NewNode(rcfg)
	r.setTiming()
	return r
}

// StartGCLoop starts periodic MVCC garbage collection on every replica of
// this store: committed versions older than ttl are removed (at least the
// newest version of each key always survives). Stale reads older than the
// ttl become unservable, exactly as with CockroachDB's gc.ttlseconds.
// It returns a stop function.
func (s *Store) StartGCLoop(ttl sim.Duration) (stop func()) {
	interval := ttl / 2
	if interval <= 0 {
		interval = sim.Second
	}
	return s.Sim.Ticker(interval, func() {
		threshold := s.Clock.Now().Add(-ttl)
		for _, r := range s.replicas {
			s.GCCollected += int64(r.engine.GC(threshold))
		}
	})
}

// RemoveReplica tears down the local replica of a range.
func (s *Store) RemoveReplica(id RangeID) {
	if r, ok := s.replicas[id]; ok {
		r.raft.Stop()
		delete(s.replicas, id)
		if s.Disk != nil {
			s.Disk.RemoveWAL(walName(id))
			s.Disk.DeleteBlob(ckptName(id))
			s.persistManifest()
		}
	}
}
