package kv

import (
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TxnRegistry models the transaction-record subsystem. In CockroachDB each
// transaction writes a record on the range holding its anchor key; here the
// records live in one shared structure, but every cross-node status check
// (push) still pays the network round trip to the record's anchor node, so
// the latency behaviour — in particular readers waiting on writers during
// contention — is preserved.
//
// The registry is the cluster-wide arbiter of commit/abort races: a push
// that aborts a transaction and that transaction's own commit are serialized
// here, so exactly one wins. As on the anchor range in the paper, a record
// lives only until its transaction has finished and its intents are
// resolved (records), so the registry holds about as many records as there
// are transactions in flight.
type TxnRegistry struct {
	sim  *sim.Simulation
	topo *simnet.Topology

	nextID mvcc.TxnID
	// records holds each record by value, so beginning a transaction makes
	// no object of its own; a change is written back. A finished
	// transaction's coordinator drops its record (GC) once none of its
	// intents can still be read: at once after a one-phase or read-only
	// commit or an abort with no writes, and after every resolution reply
	// succeeded otherwise. A missing record reads as aborted. The map, not
	// a kv.Txn, holds it: a record whose resolution failed outlives the
	// transaction.
	records map[mvcc.TxnID]txnRecord
	// waitsFor tracks which transaction each blocked transaction is
	// waiting on, for deadlock detection.
	waitsFor map[mvcc.TxnID]mvcc.TxnID

	// envelopes is the cluster's free list of Raft envelopes. It has nothing
	// to do with transactions: it rides here because the registry is the one
	// kv object every store of a cluster is constructed with.
	envelopes envelopePool
}

// txnRecord is a transaction's record, without its ID: the map's key is
// that. It stays in the map from Begin until its transaction's intents are
// resolved (see records).
type txnRecord struct {
	commitTS   hlc.Timestamp
	anchorNode simnet.NodeID
	priority   int64
	status     mvcc.TxnStatus
	// staging marks a parallel commit in progress: the commit record is
	// written but the pipelined writes are still being proved. Pushers
	// must not abort a staging transaction (it may already be implicitly
	// committed); its coordinator finalizes it momentarily.
	staging bool
	// finished resolves when the txn commits or aborts; intent waiters
	// subscribe to it. The first waiter creates it: most transactions are
	// never waited on, and a Broadcast on a nil Cond is a no-op.
	finished *sim.Cond
}

// NewTxnRegistry returns an empty registry.
func NewTxnRegistry(s *sim.Simulation, topo *simnet.Topology) *TxnRegistry {
	return &TxnRegistry{
		sim: s, topo: topo,
		records:  map[mvcc.TxnID]txnRecord{},
		waitsFor: map[mvcc.TxnID]mvcc.TxnID{},
	}
}

// Begin allocates a transaction ID and creates its record in PENDING state.
// anchorNode is the gateway coordinating the transaction; pushes from other
// nodes pay the RTT to it.
func (r *TxnRegistry) Begin(anchorNode simnet.NodeID, priority int64) mvcc.TxnID {
	r.nextID++
	id := r.nextID
	r.records[id] = txnRecord{
		status:     mvcc.Pending,
		anchorNode: anchorNode,
		priority:   priority,
	}
	return id
}

// Status returns the current status and commit timestamp without paying any
// network cost; callers that model a remote lookup should use PushTxn.
func (r *TxnRegistry) Status(id mvcc.TxnID) (mvcc.TxnStatus, hlc.Timestamp) {
	rec, ok := r.records[id]
	if !ok {
		// A missing record was collected once its transaction finished and
		// no intent of it was left, so nothing can tell a commit from an
		// abort any more: it reads as aborted.
		return mvcc.Aborted, hlc.Timestamp{}
	}
	return rec.status, rec.commitTS
}

// TryCommit transitions id from PENDING to COMMITTED at commitTS. It fails
// if the transaction was already aborted by a pusher.
func (r *TxnRegistry) TryCommit(id mvcc.TxnID, commitTS hlc.Timestamp) error {
	rec, ok := r.records[id]
	if !ok {
		return &TxnAbortedError{TxnID: id}
	}
	switch rec.status {
	case mvcc.Aborted:
		return &TxnAbortedError{TxnID: id}
	case mvcc.Committed:
		if rec.commitTS == commitTS {
			// Idempotent retry: the commit claim succeeded but the claiming
			// request's replication failed retryably (lease or leadership
			// moved, range subsumed for a merge), so the coordinator re-sent
			// it. Only this transaction's coordinator commits it, so an
			// equal-timestamp re-claim is the same commit.
			return nil
		}
		return fmt.Errorf("kv: txn %d committed twice", id)
	}
	rec.status = mvcc.Committed
	rec.staging = false
	rec.commitTS = commitTS
	r.records[id] = rec
	rec.finished.Broadcast()
	return nil
}

// TryStage transitions id from PENDING to a STAGING parallel commit at
// commitTS (paper-adjacent: CockroachDB's parallel commits). It fails if a
// pusher aborted the transaction first. While staging, pushes cannot abort
// the transaction.
func (r *TxnRegistry) TryStage(id mvcc.TxnID, commitTS hlc.Timestamp) error {
	rec, ok := r.records[id]
	if !ok {
		return &TxnAbortedError{TxnID: id}
	}
	switch rec.status {
	case mvcc.Aborted:
		return &TxnAbortedError{TxnID: id}
	case mvcc.Committed:
		if rec.commitTS == commitTS {
			// Idempotent retry of a staged commit already finalized.
			return nil
		}
		return fmt.Errorf("kv: txn %d committed twice", id)
	}
	rec.staging = true
	rec.commitTS = commitTS
	r.records[id] = rec
	return nil
}

// FinalizeStaged completes a parallel commit once every in-flight write is
// proved.
func (r *TxnRegistry) FinalizeStaged(id mvcc.TxnID) error {
	rec, ok := r.records[id]
	if !ok || !rec.staging || rec.status != mvcc.Pending {
		return fmt.Errorf("kv: txn %d not staging", id)
	}
	rec.staging = false
	rec.status = mvcc.Committed
	r.records[id] = rec
	rec.finished.Broadcast()
	return nil
}

// AbortStaged rolls a failed parallel commit back to aborted.
func (r *TxnRegistry) AbortStaged(id mvcc.TxnID) {
	if rec, ok := r.records[id]; ok && rec.staging && rec.status == mvcc.Pending {
		rec.staging = false
		rec.status = mvcc.Aborted
		r.records[id] = rec
		rec.finished.Broadcast()
	}
}

// Abort transitions id to ABORTED (idempotent; loses to an earlier commit).
func (r *TxnRegistry) Abort(id mvcc.TxnID) bool {
	rec, ok := r.records[id]
	if !ok || rec.status == mvcc.Committed {
		return false
	}
	if rec.status == mvcc.Pending {
		rec.status = mvcc.Aborted
		r.records[id] = rec
		rec.finished.Broadcast()
	}
	return true
}

// BeginWait records that waiter is blocked on holder (a waits-for edge for
// deadlock detection). Zero waiter IDs (non-transactional readers) are
// ignored.
func (r *TxnRegistry) BeginWait(waiter, holder mvcc.TxnID) {
	if waiter != 0 {
		r.waitsFor[waiter] = holder
	}
}

// EndWait clears waiter's waits-for edge.
func (r *TxnRegistry) EndWait(waiter mvcc.TxnID) {
	delete(r.waitsFor, waiter)
}

// PushTxn checks pushee's status from fromNode, paying the network round
// trip to the record's anchor. A push against a live transaction does NOT
// abort it unless a deadlock cycle through the pusher exists, in which case
// the youngest pushable transaction in the cycle is aborted (CockroachDB's
// distributed deadlock detection, condensed into the shared registry).
func (r *TxnRegistry) PushTxn(p *sim.Proc, fromNode simnet.NodeID, pusherID, pusheeID mvcc.TxnID) (mvcc.TxnStatus, hlc.Timestamp) {
	rec, ok := r.records[pusheeID]
	if !ok {
		return mvcc.Aborted, hlc.Timestamp{}
	}
	// Pay the RTT to the anchor node (txn-record lookup). The record may
	// change meanwhile, or be collected once finished, so it is read again.
	if rtt := r.topo.NodeRTT(fromNode, rec.anchorNode); rtt > 0 {
		p.Sleep(rtt)
	}
	if st, ts := r.Status(pusheeID); st != mvcc.Pending {
		return st, ts
	}
	if cycle := r.findCycle(pusherID, pusheeID); len(cycle) > 0 {
		if victim := r.chooseVictim(cycle); victim != 0 {
			v := r.records[victim]
			v.status = mvcc.Aborted
			r.records[victim] = v
			v.finished.Broadcast()
		}
	}
	return r.Status(pusheeID)
}

// findCycle follows waits-for edges from pushee; if the chain reaches
// pusher, the cycle pusher -> pushee -> ... -> pusher exists and its
// members are returned.
func (r *TxnRegistry) findCycle(pusherID, pusheeID mvcc.TxnID) []mvcc.TxnID {
	if pusherID == 0 {
		return nil
	}
	chain := []mvcc.TxnID{pusherID, pusheeID}
	seen := map[mvcc.TxnID]bool{pusherID: true, pusheeID: true}
	cur := pusheeID
	for {
		next, ok := r.waitsFor[cur]
		if !ok {
			return nil
		}
		if next == pusherID {
			return chain
		}
		if seen[next] {
			return nil // a cycle not involving the pusher; its own pushes handle it
		}
		seen[next] = true
		chain = append(chain, next)
		cur = next
	}
}

// chooseVictim picks the youngest (highest-ID, lowest-priority) pending,
// non-staging member of the cycle.
func (r *TxnRegistry) chooseVictim(cycle []mvcc.TxnID) mvcc.TxnID {
	var victim mvcc.TxnID // IDs start at 1
	var priority int64
	for _, id := range cycle {
		rec, ok := r.records[id]
		if !ok || rec.status != mvcc.Pending || rec.staging {
			continue
		}
		if victim == 0 || rec.priority < priority ||
			(rec.priority == priority && id > victim) {
			victim, priority = id, rec.priority
		}
	}
	return victim
}

// WaitFinished parks p until the transaction commits or aborts, or until
// timeout elapses; it returns the status at wake-up.
func (r *TxnRegistry) WaitFinished(p *sim.Proc, id mvcc.TxnID, timeout sim.Duration) (mvcc.TxnStatus, hlc.Timestamp) {
	rec, ok := r.records[id]
	if !ok {
		return mvcc.Aborted, hlc.Timestamp{}
	}
	if rec.status != mvcc.Pending {
		return rec.status, rec.commitTS
	}
	if rec.finished == nil {
		rec.finished = sim.NewCond(r.sim)
		r.records[id] = rec
	}
	// Every Broadcast on finished ends Pending, so one timed wait is enough.
	// The record is read again after it, as it may have been collected.
	rec.finished.WaitTimeout(p, timeout)
	return r.Status(id)
}

// GC drops the record of a finished transaction. Its coordinator calls it
// once no intent of the transaction can still be read (see records); a
// pending record stays.
func (r *TxnRegistry) GC(id mvcc.TxnID) {
	if rec, ok := r.records[id]; ok && rec.status != mvcc.Pending {
		delete(r.records, id)
	}
}
