package kv

import (
	"sort"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// Node-liveness constants. Every store heartbeats its liveness record at
// LivenessHeartbeatInterval; a record not renewed within LivenessTTL is
// expired and its node treated as dead. These mirror CockroachDB's
// liveness.heartbeatInterval / livenessDuration ratio.
const (
	LivenessHeartbeatInterval = 1 * sim.Second
	LivenessTTL               = 3 * sim.Second
)

// A live node whose one heartbeat peer dies misses a renewal: the next round
// goes unanswered and only the one after reaches everyone (StartLiveness).
// Renewals are then two intervals apart, and the record must outlive that
// gap with an interval to spare for network delay. A negative difference
// does not convert, so a ratio below 3 fails to compile.
const _ = uint64(LivenessTTL - 3*LivenessHeartbeatInterval)

// livenessRecord is one node's entry: the record is "live" until Expiration
// and carries an Epoch that fences leases. A node's epoch can only be
// incremented by another node after the record expires; any lease bound to
// the old epoch becomes invalid at that instant (CockroachDB §"epoch-based
// leases": the epoch bump is the fencing point, not a timeout on the lease
// itself).
type livenessRecord struct {
	Epoch      int64
	Expiration sim.Time
	// Fenced is the expiration the latest epoch increment fenced: the last
	// instant a lease bound to an earlier epoch could be believed, and so
	// the bound on the timestamps it served reads at (Store.servesAt).
	Fenced sim.Time
}

// NodeLiveness tracks per-node liveness records. Like the range catalog and
// transaction registry, one instance is shared by all stores, standing in
// for CockroachDB's gossiped system range: reads are free, but a record only
// becomes live through heartbeats that actually traverse the simulated
// network, so crashes and partitions expire records exactly as they would
// with a real gossip transport.
type NodeLiveness struct {
	sim  *sim.Simulation
	recs map[simnet.NodeID]*livenessRecord
	ids  []simnet.NodeID // sorted, for deterministic iteration

	// EpochBumps counts epoch increments (i.e. nodes declared dead).
	EpochBumps int64
}

// NewNodeLiveness returns an empty liveness registry.
func NewNodeLiveness(s *sim.Simulation) *NodeLiveness {
	return &NodeLiveness{sim: s, recs: map[simnet.NodeID]*livenessRecord{}}
}

// Register creates the record for a node at epoch 1 with a fresh expiration
// (a grace period until its first heartbeat round completes).
func (nl *NodeLiveness) Register(id simnet.NodeID) {
	if _, ok := nl.recs[id]; ok {
		return
	}
	nl.recs[id] = &livenessRecord{Epoch: 1, Expiration: nl.sim.Now().Add(LivenessTTL)}
	nl.ids = append(nl.ids, id)
	sort.Slice(nl.ids, func(i, j int) bool { return nl.ids[i] < nl.ids[j] })
}

// Nodes returns all registered nodes in sorted order.
func (nl *NodeLiveness) Nodes() []simnet.NodeID { return nl.ids }

// Heartbeat extends a node's expiration (ratcheting forward only).
func (nl *NodeLiveness) Heartbeat(id simnet.NodeID, expiration sim.Time) {
	rec, ok := nl.recs[id]
	if !ok {
		return
	}
	if expiration > rec.Expiration {
		rec.Expiration = expiration
	}
}

// Live reports whether the node's record is unexpired at now. Unregistered
// nodes are presumed live: liveness only ever demotes known nodes.
func (nl *NodeLiveness) Live(id simnet.NodeID, now sim.Time) bool {
	rec, ok := nl.recs[id]
	if !ok {
		return true
	}
	return now <= rec.Expiration
}

// Expiration returns the last instant the node's record is live: it expires,
// and may be fenced, one nanosecond later. ok is false for an unregistered
// node, which Live presumes live at every instant.
func (nl *NodeLiveness) Expiration(id simnet.NodeID) (exp sim.Time, ok bool) {
	rec, ok := nl.recs[id]
	if !ok {
		return 0, false
	}
	return rec.Expiration, true
}

// Epoch returns the node's current epoch (0 if unregistered).
func (nl *NodeLiveness) Epoch(id simnet.NodeID) int64 {
	if rec, ok := nl.recs[id]; ok {
		return rec.Epoch
	}
	return 0
}

// IncrementEpoch declares a node dead by bumping its epoch, fencing every
// lease bound to the old epoch. It fails (returns false) while the record is
// still live — only expired records may be incremented. The record stays
// expired; only the node's own heartbeats revive it.
func (nl *NodeLiveness) IncrementEpoch(id simnet.NodeID, now sim.Time) bool {
	rec, ok := nl.recs[id]
	if !ok {
		return false
	}
	if now <= rec.Expiration {
		return false
	}
	rec.Epoch++
	rec.Fenced = rec.Expiration
	nl.EpochBumps++
	return true
}

// Fenced returns the expiration the latest increment of the node's epoch
// fenced (zero if none). Every lease bound to an earlier epoch served its
// reads below it, so a lease that replaces one starts there.
func (nl *NodeLiveness) Fenced(id simnet.NodeID) sim.Time {
	if rec, ok := nl.recs[id]; ok {
		return rec.Fenced
	}
	return 0
}

// SelfRestart re-registers a node booting from disk after a crash. The
// epoch advances unconditionally past both the registry's view and the
// node's own persisted epoch, so every lease bound to any pre-crash epoch is
// fenced forever — even if no peer noticed the outage and IncrementEpoch
// never ran. The record gets a registration-style grace period; leases
// remain unacquirable until a peer acks a heartbeat under the new epoch.
// It returns the new epoch for the caller to persist.
func (nl *NodeLiveness) SelfRestart(id simnet.NodeID, persistedEpoch int64) int64 {
	rec, ok := nl.recs[id]
	if !ok {
		nl.Register(id)
		rec = nl.recs[id]
	}
	if persistedEpoch > rec.Epoch {
		rec.Epoch = persistedEpoch
	}
	rec.Epoch++
	rec.Fenced = rec.Expiration
	nl.EpochBumps++
	if exp := nl.sim.Now().Add(LivenessTTL); exp > rec.Expiration {
		rec.Expiration = exp
	}
	return rec.Epoch
}

// livenessPing is a store's periodic heartbeat to a peer: "my record is good
// through Expiration". The receiver applies it to the shared record set and
// answers with the ping itself, as a livenessAck: the sender's carve, sent
// to one peer, is the receiver's once delivered, so the answer allocates
// nothing.
type livenessPing struct {
	Expiration sim.Time
	// Epoch is written by the receiver: its view of the sender's epoch.
	Epoch int64
}

// livenessAck is a ping answered. It carries the acker's view of the
// *sender's* epoch, so the sender learns when it has been declared dead and
// fenced, and the ping's expiration, the instant through which the ack
// vouches for the sender's record.
type livenessAck livenessPing
