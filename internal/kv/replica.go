package kv

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
)

// pushDelay is how long a conflicting writer waits on a lock before trying
// to push (and possibly abort) the lock holder, breaking deadlocks.
const pushDelay = 50 * sim.Millisecond

// Replica is one copy of a Range on one Store. The leaseholder replica
// evaluates reads and writes; all replicas apply the Raft log to their MVCC
// engines and can serve follower reads below their closed timestamp.
type Replica struct {
	store  *Store
	desc   *RangeDescriptor
	engine *mvcc.Engine
	raft   *raft.Node

	closed closedTracker
	// keys holds each key's latch, lock and newest read (keyTable). It is
	// leaseholder-local state: nothing replicates it, and a lease transfer
	// leaves it on the old leaseholder until the store loop drops what no
	// longer lives (a new leaseholder starts above every read the old one
	// served, and locks only order writers).
	keys keyTable
	// pipelined holds the pipelined writes whose latches are held until
	// their proposals resolve, in proposal order. releaseResolved is
	// r.releaseOne, kept so that registering it allocates nothing.
	pipelined       []pipelinedWrite
	releaseResolved func()

	// leaderApplied wakes a fresh Raft leader waiting to apply the no-op its
	// term opened with (awaitLeaderApplied).
	leaderApplied *sim.Cond

	// subsumed marks the right-hand range of an in-progress merge: once
	// CmdSubsume applies, the replica rejects all evaluation and proposals
	// with RangeKeyMismatchError so senders re-route through the catalog to
	// the widened left-hand range.
	subsumed bool

	// leaseEpoch is the liveness epoch the current lease (if held here) is
	// bound to; a bump of this node's epoch by a peer fences the lease.
	leaseEpoch int64
	// leaseAcqActive guards against concurrent lease-acquisition loops.
	leaseAcqActive bool
	// transferring is set while a lease transfer this replica proposed is
	// undecided: it fences the lease (hasValidLease), so nothing lands in the
	// log behind the transfer and no promise exceeds the floor it hands on.
	transferring bool
	// fence is the split key while a split this replica proposed is
	// undecided: no write or resolution of a key at or above it is evaluated
	// (fenced), so nothing of the right half lands in the log behind the
	// split. fenceLifted wakes those parked on it.
	fence       mvcc.Key
	fenceLifted *sim.Cond
	// ckptSize is the length of this replica's latest checkpoint blob; it
	// sizes the buffer the next checkpoint or snapshot is built in.
	ckptSize int
	// cmds carves the commands this replica proposes (see command), and
	// cmdKeys the key lists of those that resolve several intents.
	cmds    slab.Of[command]
	cmdKeys slab.Short[mvcc.Key]

	// Stats.
	// Proposed counts the commands this replica proposed, by kind.
	Proposed          [NumCommandKinds]int64
	FollowerReads     int64
	RedirectsToLH     int64
	WritesEvaluated   int64
	LeaseAcquisitions int64
}

// LeaseEpoch returns the liveness epoch the current lease is bound to, as
// published at replica creation or the last lease transfer applied here.
func (r *Replica) LeaseEpoch() int64 { return r.leaseEpoch }

// ClosedTimestamp returns this replica's known closed timestamp.
func (r *Replica) ClosedTimestamp() hlc.Timestamp { return r.closed.closed }

// Raft returns the underlying consensus node (testing and admin hook).
func (r *Replica) Raft() *raft.Node { return r.raft }

// LockHolder returns the transaction holding key's unreplicated lock on
// this replica, zero for none (a test observer).
func (r *Replica) LockHolder(key mvcc.Key) mvcc.TxnID { return r.keys.entries[string(key)].holder }

// EngineForBulkLoad exposes the MVCC engine for setup-time bulk loading
// (the IMPORT path); it must not be used while the replica serves traffic.
func (r *Replica) EngineForBulkLoad() *mvcc.Engine { return r.engine }

// isLeaseholder reports whether this replica currently holds the lease.
func (r *Replica) isLeaseholder() bool {
	return r.desc.Leaseholder == r.store.NodeID
}

// hasValidLease reports whether the lease held here is still usable: the
// node must believe its own liveness record is current and the lease's
// epoch must match — if a peer bumped our epoch after our record expired,
// the lease is fenced and another replica may already hold a new one
// (CockroachDB's epoch-based lease invalidation). A lease being transferred
// away is not usable either.
func (r *Replica) hasValidLease() bool {
	return r.isLeaseholder() && !r.transferring && r.store.SelfLive() && r.store.CurrentEpoch() == r.leaseEpoch
}

// errNotLeaseholder builds the redirect error from the local descriptor.
func (r *Replica) errNotLeaseholder() error {
	return &NotLeaseholderError{RangeID: r.desc.RangeID, Leaseholder: r.desc.Leaseholder}
}

// checkLease gates leaseholder-only evaluation: a non-leaseholder redirects
// to the descriptor's leaseholder; a fenced leaseholder redirects with an
// empty hint (it no longer knows who holds the lease — the sender must
// re-route from its own catalog and liveness view).
func (r *Replica) checkLease() error {
	if !r.isLeaseholder() {
		return r.errNotLeaseholder()
	}
	if !r.hasValidLease() {
		return &NotLeaseholderError{RangeID: r.desc.RangeID}
	}
	return nil
}

// --- Request evaluation ---

// evaluate dispatches a request, blocking p as needed; it returns the
// response or a protocol error.
func (r *Replica) evaluate(p *sim.Proc, req interface{}) Response {
	if r.subsumed {
		return Response{Err: &RangeKeyMismatchError{RequestedKey: r.desc.StartKey}}
	}
	if n, ok := req.(*NegotiateRequest); ok {
		return n.eval(r, p)
	}
	q, err := asRequest(req) // not req.(evaluator): see asRequest
	if err != nil {
		return Response{Err: fmt.Errorf("kv: cannot evaluate %T", req)}
	}
	return q.eval(r, p)
}

// evaluateBatch evaluates the requests of one RPC into the envelope's reply
// space, in request order, and returns it. A lone request runs on p. Of
// several, each read and write runs on a child of its own, and they contend on
// latches like independent RPCs would: an intent wait's push timer starts when
// its wait does, so running them in turn would move the pushes. Where the
// order cannot matter, the requests run on p: the resolutions of one
// transaction become one resolveIntents call (one command for the range), and
// the QueryIntents of a commit's proofs wait out their latches in turn, each
// wait ending when its latch frees, so the last answer lands when it would
// have anyway.
func (r *Replica) evaluateBatch(p *sim.Proc, b *BatchRequest) []Response {
	reqs, resps := b.Reqs, b.reply()
	ctx := p.ObsCtx()
	if len(reqs) == 1 {
		resps[0] = r.evaluate(p, reqs[0])
		p.SetObsCtx(ctx)
		return resps
	}
	var g *sim.Group
	for i, req := range reqs {
		switch req.(type) {
		case *ResolveIntentRequest, *QueryIntentRequest:
			continue
		}
		if g == nil {
			g = p.Group(func(cp *sim.Proc, i int) { resps[i] = r.evaluate(cp, reqs[i]) })
		}
		g.Go("replica/batch-req", i)
	}
	for i, req := range reqs {
		switch q := req.(type) {
		case *ResolveIntentRequest:
			if !resolvedBefore(reqs[:i], q) {
				r.resolveGroup(p, reqs[i:], resps[i:], q)
			}
		case *QueryIntentRequest:
			resps[i] = r.evaluate(p, q)
			p.SetObsCtx(ctx)
		}
	}
	if g != nil {
		g.Wait(p)
	}
	return resps
}

// resolveGroup resolves, in one resolveIntents call, first's intent and
// those of every later request in reqs that resolves first's transaction
// to the same outcome, and answers each of them with the same response.
func (r *Replica) resolveGroup(p *sim.Proc, reqs []interface{}, resps []Response, first *ResolveIntentRequest) {
	// The keys are scratch (resolveIntents copies what it keeps): up to 64,
	// a commit's whole write set as a rule, live on the stack.
	var buf [64]mvcc.Key
	keys := buf[:0]
	for _, req := range reqs {
		if q, ok := req.(*ResolveIntentRequest); ok && first.sameOutcome(q) {
			keys = append(keys, q.Key)
		}
	}
	var resp Response
	if r.subsumed {
		resp = Response{Err: &RangeKeyMismatchError{RequestedKey: r.desc.StartKey}}
	} else if err := r.resolveIntents(p, first.TxnID, first.Status, first.CommitTS, keys); err != nil {
		resp = Response{Err: err}
	}
	for i, req := range reqs {
		if q, ok := req.(*ResolveIntentRequest); ok && first.sameOutcome(q) {
			resps[i] = resp
		}
	}
}

// resolvedBefore reports whether one of earlier resolves q's transaction to
// q's outcome: the group of the first such request answered q already.
func resolvedBefore(earlier []interface{}, q *ResolveIntentRequest) bool {
	for _, req := range earlier {
		if e, ok := req.(*ResolveIntentRequest); ok && e.sameOutcome(q) {
			return true
		}
	}
	return false
}

// replicaRead is a request evalRead serves: GetRequest, ScanRequest and
// RefreshRequest. Each supplies only what differs between them.
type replicaRead interface {
	// bounds is the RangeKeyMismatchError to answer if r does not own the read.
	bounds(r *Replica) error
	// readAt reads once at ts; an intent or an uncertain value is an error.
	readAt(r *Replica, ts hlc.Timestamp, opts mvcc.GetOptions) (Response, error)
	// record notes resp, served at ts, in the leaseholder's key table.
	record(r *Replica, ts hlc.Timestamp, resp Response)
}

// readArgs is the rest of what evalRead needs to know about a read.
type readArgs struct {
	ts          hlc.Timestamp
	txn         *Txn // nil for non-transactional and stale reads
	uncertainty bool // check txn's uncertainty interval
	canBump     bool // ratchet past an uncertain value and retry
	// latchKey is a point read's key: the leaseholder waits out an in-flight
	// write on it, and with forUpdate takes its unreplicated lock first. A
	// span read waits out every in-flight write in [latchKey, latchEnd)
	// instead (latchEnd nil: unbounded).
	latchKey, latchEnd mvcc.Key
	span               bool
	forUpdate          bool
}

// evalRead is the one read evaluation. A replica holding a valid lease serves
// as leaseholder. Any other serves only below its closed timestamp (paper
// §5.1), which must cover a consistent read's whole uncertainty interval
// (§6.2.1: "the size of uncertainty intervals must also be factored in"), so
// uncertainty bumps stay below it too. A read it cannot serve is redirected
// to the leaseholder at once (paper §5.3.1).
func (r *Replica) evalRead(p *sim.Proc, q replicaRead, a readArgs) Response {
	if err := q.bounds(r); err != nil {
		return Response{Err: err}
	}
	leaseholder := r.hasValidLease()
	if leaseholder && a.forUpdate && a.txn != nil {
		// SELECT FOR UPDATE: take the unreplicated lock before reading so
		// read-modify-write transactions queue instead of racing.
		if err := r.acquireLock(p, a.latchKey, a.txn); err != nil {
			return Response{Err: err}
		}
	}
	required := a.ts
	var opts mvcc.GetOptions
	if leaseholder {
		// The leaseholder reads a finished holder's intent through its
		// record (mvcc.Records), a lookup as free as waitForHolder's.
		opts.Records = r.store.Registry
	}
	if a.txn != nil {
		opts.Txn = &a.txn.Meta
		if a.uncertainty {
			opts.UncertaintyLimit = a.txn.GlobalUncertaintyLimit
			opts.LocalLimit = hlc.Timestamp{WallTime: r.store.Clock.PhysicalNow()}
			required = required.Max(a.txn.GlobalUncertaintyLimit)
		}
		if leaseholder && a.forUpdate {
			// A locking read holds the key's lock, so it reads the latest
			// committed value: any newer version is uncertain, and the
			// read moves up to it instead of returning a stale value the
			// transaction's write would then find too old.
			opts.UncertaintyLimit = hlc.MaxTimestamp
		}
	}
	readTS := a.ts
	for {
		if leaseholder && (a.latchKey != nil || a.span) {
			// Wait out a write between its evaluation and its application.
			lsp := r.store.Obs.StartChild("latch.wait", obs.ProcSpan(p))
			if a.span {
				r.waitSpanUnlatched(p, a.latchKey, a.latchEnd)
			} else {
				r.waitUnlatched(p, a.latchKey)
			}
			lsp.Finish()
		}
		// A split may have applied while this request waited (lock, latch,
		// intent); this engine's copy is then stale.
		if err := q.bounds(r); err != nil {
			return Response{Err: err}
		}
		if leaseholder {
			// So may the lease have gone: a transfer proposed meanwhile
			// shipped the newest read its key table held then, and only a
			// valid leaseholder's engine has every resolution that let a
			// holder's record go (DESIGN §11). Nor is a read served at or
			// past the expiration this node's record was acked to, where
			// the next lease may start (lease stasis).
			if err := r.checkLease(); err != nil {
				return Response{Err: err}
			}
			if !r.store.servesAt(readTS) {
				return Response{Err: &NotLeaseholderError{RangeID: r.desc.RangeID}}
			}
		} else if r.closed.closed.Less(required) {
			return r.redirectToLeaseholder(required)
		}
		resp, err := q.readAt(r, readTS, opts)
		if err != nil { // the errors.As targets escape: keep them off the success path
			var wie *mvcc.WriteIntentError
			if errors.As(err, &wie) {
				if !leaseholder {
					// Paper §5.1.1: "the read blocks while it is redirected to
					// the leaseholder to engage in conflict resolution."
					return r.redirectToLeaseholder(readTS)
				}
				if werr := r.waitOnIntent(p, wie.Key, wie.Txn, a.txn, false); werr != nil {
					return Response{Err: werr}
				}
				// The wait may have outlasted the lease: answer now, not
				// after a latch wait.
				if !r.hasValidLease() {
					return Response{Err: r.checkLease()}
				}
				continue
			}
			var ue *mvcc.UncertaintyError
			if errors.As(err, &ue) && a.canBump {
				// Server-side uncertainty refresh: nothing else in the
				// transaction can be invalidated, so ratchet locally and retry
				// (paper §6.1).
				readTS = ue.ValueTimestamp
				continue
			}
			return Response{Err: err}
		}
		if leaseholder {
			q.record(r, readTS, resp)
		} else {
			r.FollowerReads++
			obs.ProcSpan(p).SetTag("follower_read", "true")
		}
		return resp
	}
}

// redirectToLeaseholder answers a read this replica cannot serve at ts.
func (r *Replica) redirectToLeaseholder(ts hlc.Timestamp) Response {
	r.RedirectsToLH++
	return Response{Err: &FollowerReadUnavailableError{
		RangeID: r.desc.RangeID, ClosedTS: r.closed.closed, ReadTS: ts}}
}

// ownKey is the RangeKeyMismatchError to answer for a key outside the range.
func (r *Replica) ownKey(key mvcc.Key) error {
	if !r.desc.ContainsKey(key) {
		return &RangeKeyMismatchError{RequestedKey: key}
	}
	return nil
}

// ownSpan is the RangeKeyMismatchError to answer for a span the range does
// not hold whole. A split leaves this engine a copy of the right half, so a
// span reaching past the range would read keys the range no longer owns and
// miss the writes that landed on their owner since; the DistSender divides
// such a span by range instead.
func (r *Replica) ownSpan(start, end mvcc.Key) error {
	if !r.desc.containsSpan(start, end) {
		return &RangeKeyMismatchError{RequestedKey: start}
	}
	return nil
}

// writeTimestamp moves a write of key by writer, proposed at ts, to where it
// may land, and returns that with the closed-timestamp promise issued at
// now.
func (r *Replica) writeTimestamp(p *sim.Proc, key mvcc.Key, writer mvcc.TxnID, ts, now hlc.Timestamp) (hlc.Timestamp, hlc.Timestamp) {
	// Writes may not invalidate served reads — except the transaction's own
	// (self-exemption avoids forcing a refresh on every read-modify-write).
	if tsc, own := r.keys.maxRead(key, writer); own {
		if ts.Less(tsc) {
			ts = tsc
		}
	} else if ts.LessEq(tsc) {
		ts = tsc.Next()
		obs.ProcSpan(p).SetTag("tscache_push", "true")
	}
	// …and may not land at or below a closed timestamp. Under the LEAD
	// policy this is what pushes writes into the future (paper §6.2.1: "the
	// transaction's timestamp is advanced immediately past the closed
	// timestamp target"). The promise is never below closed.issued, which is
	// why the store loop may floor the key table's reads there.
	target := r.closed.issue(now)
	if ts.LessEq(target) {
		ts = target.Next()
		obs.ProcSpan(p).SetTag("closedts_push", "true")
	}
	return ts, target
}

func (r *Replica) evalPut(p *sim.Proc, req *PutRequest) Response {
	if !r.desc.ContainsKey(req.Key) {
		return Response{Err: &RangeKeyMismatchError{RequestedKey: req.Key}}
	}
	if err := r.checkLease(); err != nil {
		return Response{Err: err}
	}
	// Take the unreplicated lock (if transactional) BEFORE the latch:
	// the lock is the coarse, transaction-lifetime mutex; the latch only
	// covers evaluation+replication. Acquiring in the other order
	// deadlocks: a latch holder waiting on the lock blocks the lock
	// holder's own write.
	held := false // the transaction held the key's lock before this write
	if req.Txn != nil {
		held = r.keys.entries[string(req.Key)].holder == req.Txn.Meta.ID
		if err := r.acquireLock(p, req.Key, req.Txn); err != nil {
			return Response{Err: err}
		}
	}
	lsp := r.store.Obs.StartChild("latch.wait", obs.ProcSpan(p))
	r.latch(p, req.Key)
	lsp.Finish()
	releaseOnReturn := true
	defer func() {
		if releaseOnReturn {
			r.unlatch(req.Key)
		}
	}()
	r.WritesEvaluated++

	ts := req.Timestamp
	var meta *mvcc.TxnMeta // the coordinator's, which the command copies
	if req.Txn != nil {
		meta = &req.Txn.Meta
	}
	for {
		if err := r.checkLease(); err != nil {
			return Response{Err: err}
		}
		// A split may have applied while this request waited (lock, fence,
		// intent): the key's newer writes then land on the right-hand
		// range, and checking against this engine's stale copy would miss
		// them. Re-route.
		if !r.desc.ContainsKey(req.Key) {
			return Response{Err: &RangeKeyMismatchError{RequestedKey: req.Key}}
		}
		if req.Commit1PC && meta != nil {
			// A re-sent one-phase commit whose first attempt applied finds
			// its own committed value: that is this write, not a duplicate.
			// (Every later write of the key lands above it.)
			if st, cts := r.store.Registry.Status(meta.ID); st == mvcc.Committed {
				if _, vts, err := r.engine.Get(req.Key, cts, mvcc.GetOptions{}); err == nil && vts == cts {
					return Response{Put: PutResponse{WriteTimestamp: cts, Committed: true}}
				}
			}
		}
		var target hlc.Timestamp
		ts, target = r.writeTimestamp(p, req.Key, req.Txn.id(), ts, r.store.Clock.Now())
		newTs, prev, err := r.checkPut(req, ts, meta)
		if err != nil {
			switch err {
			case errAbsent:
				// The verdict is a read at ReadFromTS: lease stasis bounds it
				// as it bounds evalRead's.
				if !r.store.servesAt(req.ReadFromTS) {
					return Response{Err: &NotLeaseholderError{RangeID: r.desc.RangeID}}
				}
				if !held {
					r.keys.unlock(req.Key, req.Txn.id())
				}
				r.keys.recordRead(req.Key, req.ReadFromTS, req.Txn.id())
				return Response{Put: PutResponse{Absent: true}}
			case errNewer:
				return Response{Put: PutResponse{Declined1PC: true}}
			}
			var wie *mvcc.WriteIntentError
			if errors.As(err, &wie) {
				// Drop the latch while queued on the lock (as CockroachDB's
				// lock table does) so the holder's commit-time QueryIntent
				// and other readers are not blocked behind us.
				r.unlatch(req.Key)
				werr := r.waitOnIntent(p, req.Key, wie.Txn, req.Txn, true)
				r.latch(p, req.Key)
				if werr != nil {
					return Response{Err: werr}
				}
				continue
			}
			return Response{Err: err}
		}
		ts = newTs
		if req.Commit1PC && meta != nil {
			return r.evalPut1PC(p, req, ts, target, prev)
		}
		// Replicate the write.
		cmd := r.command(Command{Kind: CmdPut, Key: req.Key, Value: req.Value, Ts: ts, Txn: meta, ClosedTS: target,
			Resolves: prev.txn, Status: prev.status, CommitTS: prev.commitTS})
		if req.Pipelined {
			// Write pipelining: reply once the proposal is in flight;
			// the latch is held until the write applies so later reads
			// and QueryIntent observe it. The coordinator proves the
			// write before committing.
			f, err := r.submit(cmd)
			if err != nil {
				var nl *raft.ErrNotLeader
				if errors.As(err, &nl) {
					return Response{Err: r.errNotLeaseholder()}
				}
				return Response{Err: err}
			}
			releaseOnReturn = false
			r.pipelined = append(r.pipelined, pipelinedWrite{f: f, key: req.Key})
			f.Notify(r.store.Sim, r.releaseResolved)
			return Response{Put: PutResponse{WriteTimestamp: ts}}
		}
		if err := r.propose(p, cmd); err != nil {
			return Response{Err: err}
		}
		return Response{Put: PutResponse{WriteTimestamp: ts}}
	}
}

// pipelinedWrite is a write replied to before it applied: the latch of its
// key (which its command keeps too) is held until its proposal resolves.
type pipelinedWrite struct {
	f   *sim.Future[raft.ProposeResult]
	key mvcc.Key
}

// releaseOne releases the latch of the earliest resolved pipelined write.
// It runs once per resolution, in the event the resolution queued (Future
// Notify) — when the write's entry applies here or the log drops it — so the
// writes it frees are exactly the resolved ones.
func (r *Replica) releaseOne() {
	for i, w := range r.pipelined {
		if w.f.Done() {
			r.pipelined = slices.Delete(r.pipelined, i, i+1)
			r.unlatch(w.key)
			return
		}
	}
}

// evalPut1PC commits a single-write transaction in one consensus round
// (CockroachDB's one-phase commit): the transaction's reads are refreshed
// server-side to the commit timestamp, the commit is claimed in the
// registry, and the value replicates directly as committed, folding prev's
// resolution in like any write. The latch is already held by evalPut.
func (r *Replica) evalPut1PC(p *sim.Proc, req *PutRequest, ts hlc.Timestamp, target hlc.Timestamp, prev finishedIntent) Response {
	// Server-side refresh: every read span must live on this range and be
	// unchanged in (ReadFromTS, ts].
	if req.ReadFromTS.Less(ts) {
		for _, span := range req.ReadSpans {
			refresh := RefreshRequest{Key: span[0], EndKey: span[1], FromTS: req.ReadFromTS, ToTS: ts, TxnID: req.Txn.Meta.ID}
			if refresh.bounds(r) != nil || refresh.newer(r.engine, r.store.Registry) {
				return Response{Put: PutResponse{Declined1PC: true}}
			}
		}
	}
	// Claim the commit only where the value can follow it into the log. A
	// leaseholder that does not lead Raft (the fresh right-hand side of a
	// split) or was frozen for a merge cannot propose; had it claimed first,
	// the coordinator's retry — at a timestamp a concurrent read may have
	// pushed — would find the record committed at the old one. Evaluation
	// runs in scheduler context: nothing yields between this check and
	// Propose.
	if !r.raft.IsLeader() || r.subsumed {
		return Response{Err: r.errNotLeaseholder()}
	}
	if err := r.store.Registry.TryCommit(req.Txn.Meta.ID, ts); err != nil {
		return Response{Err: err}
	}
	cmd := r.command(Command{Kind: CmdPut, Key: req.Key, Value: req.Value, Ts: ts, ClosedTS: target,
		Resolves: prev.txn, Status: prev.status, CommitTS: prev.commitTS})
	if err := r.propose(p, cmd); err != nil {
		return Response{Err: err}
	}
	return Response{Put: PutResponse{WriteTimestamp: ts, Committed: true}}
}

// evalQueryIntent proves a pipelined write: after waiting out in-flight
// applications on the key, the transaction's intent must be present. Like
// evalRead it checks the key against the range's bounds before and after
// the wait: a split that applied meanwhile leaves this engine a stale copy
// of the right half.
func (r *Replica) evalQueryIntent(p *sim.Proc, req *QueryIntentRequest) Response {
	if err := r.checkLease(); err != nil {
		return Response{Err: err}
	}
	if err := r.ownKey(req.Key); err != nil {
		return Response{Err: err}
	}
	r.waitUnlatched(p, req.Key)
	if err := r.ownKey(req.Key); err != nil {
		return Response{Err: err}
	}
	meta, ok := r.engine.GetIntent(req.Key)
	found := ok && meta.ID == req.TxnID && meta.Epoch == req.Epoch
	return Response{QueryIntent: QueryIntentResponse{Found: found}}
}

// finishedIntent is a finished transaction's intent that a write replaces,
// with the outcome its record gave when the write was evaluated: the write's
// command resolves it so before it puts (Command.Resolves).
type finishedIntent struct {
	txn      mvcc.TxnID // 0: none
	status   mvcc.TxnStatus
	commitTS hlc.Timestamp
}

// The verdicts of checkPut on a MustExist write that lays nothing: its key
// holds no live value at the read timestamp, or a version above it.
var (
	errAbsent = errors.New("kv: no live value at the read timestamp")
	errNewer  = errors.New("kv: a version above the read timestamp")
)

// checkPut validates req, proposed at ts by txn, without mutating: it
// surfaces a running transaction's intent as a conflict, fails a
// MustNotExist write whose key holds a live value, answers errAbsent or
// errNewer for a MustExist write whose key does not hold a live value no
// newer than its read timestamp, and bumps the timestamp above newer
// committed versions (write-too-old). A finished transaction's intent is no
// conflict: it is the version its resolution will write, which the checks
// read through, and checkPut returns it for the write to fold in.
func (r *Replica) checkPut(req *PutRequest, ts hlc.Timestamp, txn *mvcc.TxnMeta) (hlc.Timestamp, finishedIntent, error) {
	key := req.Key
	var prev finishedIntent
	ownIntent := false
	var intentTS hlc.Timestamp
	if meta, ok := r.engine.GetIntent(key); ok {
		if txn == nil || meta.ID != txn.ID {
			st, cts := r.store.Registry.Status(meta.ID)
			if st == mvcc.Pending {
				return hlc.Timestamp{}, prev, &mvcc.WriteIntentError{Key: key, Txn: meta}
			}
			prev = finishedIntent{txn: meta.ID, status: st, commitTS: cts}
		} else {
			ownIntent, intentTS = meta.Epoch == txn.Epoch, meta.WriteTimestamp
		}
	}
	// Probe for write-too-old by a non-mutating read of the newest
	// version: read at MaxTimestamp with our own txn visibility, through a
	// finished holder's intent.
	val, newest, err := r.engine.Get(key, hlc.MaxTimestamp, mvcc.GetOptions{Txn: txn, Records: r.store.Registry})
	if err != nil {
		return hlc.Timestamp{}, prev, err
	}
	// The transaction's own intent satisfies the condition: it is either
	// this very write laid by an earlier attempt of its sub-batch, or an
	// earlier statement's write, which the coordinator has already checked.
	if req.MustNotExist && !ownIntent && val != nil {
		return hlc.Timestamp{}, prev, &ConditionFailedError{Key: key, Existing: newest}
	}
	if req.MustExist {
		switch {
		case req.ReadFromTS.Less(newest):
			return hlc.Timestamp{}, prev, errNewer
		case val == nil:
			return hlc.Timestamp{}, prev, errAbsent
		}
	}
	switch {
	case ownIntent:
		// The newest version is this transaction's own intent, above every
		// committed one (it holds the key): a rewrite replaces it at the
		// transaction's own timestamp, not above it, so a key written twice
		// costs no refresh at commit.
		ts = ts.Max(intentTS)
	case !newest.IsEmpty() && ts.LessEq(newest):
		// Tolerable bump: the transaction's coordinator learns the new
		// timestamp from the response and refreshes at commit.
		ts = newest.Next()
	}
	return ts, prev, nil
}

// command is a Command as a replica proposes it, with room for what a
// resolution of one intent points at, so that proposing one allocates
// nothing of its own.
type command struct {
	Command
	meta mvcc.TxnMeta
	key  [1]mvcc.Key
}

// command returns a copy of c no one has been handed before, carved from
// the replica's chunks. Once proposed it is written no more: the entry that
// carries it is shared by the leader's log, every follower's log, and the
// WAL encoder, so every reader takes *Command and none writes through it.
// A command whose proposal fails is not reused either. c.Txn is copied into
// the box: a write's meta is its coordinator's live record, which moves on
// after the proposal (a pushed timestamp, a commit) and which a log that
// keeps the command until compaction must neither follow nor keep alive.
func (r *Replica) command(c Command) *Command {
	box := r.cmds.New()
	box.Command = c
	if c.Txn != nil {
		box.meta = *c.Txn
		box.Txn = &box.meta
	}
	return &box.Command
}

// submit proposes cmd to Raft and counts it.
func (r *Replica) submit(cmd *Command) (*sim.Future[raft.ProposeResult], error) {
	f, err := r.raft.Propose(cmd)
	if err == nil {
		r.Proposed[cmd.Kind]++
	}
	return f, err
}

// propose pushes cmd through Raft and parks p until it applies locally.
func (r *Replica) propose(p *sim.Proc, cmd *Command) error {
	if r.subsumed {
		// The range was frozen for a merge while this request was in
		// flight; nothing may land after the subsume entry.
		return &RangeKeyMismatchError{RequestedKey: cmd.Key}
	}
	sp := r.store.Obs.StartChild("raft.replicate", obs.ProcSpan(p))
	sp.SetTagInt("range", int64(r.desc.RangeID))
	f, err := r.submit(cmd)
	if err != nil {
		var nl *raft.ErrNotLeader
		if errors.As(err, &nl) {
			err = r.errNotLeaseholder()
		}
		sp.SetError(err)
		sp.Finish()
		return err
	}
	res := f.Wait(p)
	if sp != nil {
		if res.Err != nil {
			sp.SetError(res.Err)
		}
		// Attribute the quorum: which voters' acks committed the entry,
		// and how many of those acks crossed a region boundary. A write
		// that claims region-local latency must show wan_acks == 0; a
		// cross-region quorum shows exactly the remote acks it paid for.
		var acks strings.Builder
		wan := 0
		for i, a := range res.Acks() {
			if i > 0 {
				acks.WriteByte(',')
			}
			fmt.Fprintf(&acks, "n%d", a)
			if a != r.store.NodeID && r.store.Net.WAN(r.store.NodeID, a) {
				wan++
			}
		}
		sp.SetTag("acks", acks.String())
		sp.SetTagInt("wan_acks", int64(wan))
		sp.Finish()
	}
	return res.Err
}

func (r *Replica) evalEndTxn(p *sim.Proc, req *EndTxnRequest) Response {
	if err := r.checkLease(); err != nil {
		return Response{Err: err}
	}
	status := mvcc.Aborted
	if req.Commit {
		// Parallel commit: stage against concurrent pushes; the
		// coordinator finalizes after proving its writes.
		if err := r.store.Registry.TryStage(req.Txn.Meta.ID, req.CommitTS); err != nil {
			return Response{Err: err}
		}
		status = mvcc.Committed
	} else {
		r.store.Registry.Abort(req.Txn.Meta.ID)
	}
	// Durably record the decision on the anchor range (costs a consensus
	// round, as in the real system).
	cmd := r.command(Command{
		Kind: CmdTxnRecord, Key: req.Txn.Meta.Key, Status: status,
		CommitTS: req.CommitTS, ClosedTS: r.closed.issue(r.store.Clock.Now()),
	})
	if err := r.propose(p, cmd); err != nil {
		return Response{Err: err}
	}
	return Response{EndTxn: EndTxnResponse{Status: status}}
}

// resolveIntents resolves txn's intents on keys, which must all lie in this
// range, to status (at commitTS) as one Raft command. It serves a
// coordinator's resolution (resolveGroup), the one path that proposes one.
// Keys whose intent is already gone are left out, and when none is left
// nothing is proposed. keys is the caller's scratch: it is filtered in
// place, and the command keeps a lone key in its own room and several in a
// copy carved from the replica's chunks.
func (r *Replica) resolveIntents(p *sim.Proc, txn mvcc.TxnID, status mvcc.TxnStatus, commitTS hlc.Timestamp, keys []mvcc.Key) error {
	// A resolution takes no latch, so it waits out a split's fence here.
	for slices.ContainsFunc(keys, r.fenced) {
		r.fenceLifted.Wait(p)
	}
	if err := r.checkLease(); err != nil {
		return err
	}
	// A split leaves this engine a stale copy of the right half: a key there
	// is resolved on the range that owns it.
	for _, k := range keys {
		if err := r.ownKey(k); err != nil {
			return err
		}
	}
	// Only propose the intents still there (idempotence without a wasted
	// consensus round).
	live := keys[:0]
	for _, k := range keys {
		if meta, ok := r.engine.GetIntent(k); ok && meta.ID == txn {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		return nil
	}
	c := r.cmds.New()
	c.meta.ID = txn
	own := c.key[:]
	if len(live) > 1 {
		own = r.cmdKeys.Take(len(live))
	}
	copy(own, live)
	c.Command = Command{
		Kind: CmdResolveIntent, Keys: own, Txn: &c.meta,
		Status: status, CommitTS: commitTS,
		ClosedTS: r.closed.issue(r.store.Clock.Now()),
	}
	return r.propose(p, &c.Command)
}

// evalNegotiate serves the bounded-staleness negotiation (paper §5.3.2):
// the highest timestamp this replica can serve locally without blocking is
// the minimum of its closed timestamp and (any conflicting intent's
// timestamp - 1) over the part of the span the range holds. Past its
// bounds, this engine may keep a split's copy of the right half, whose
// intents the right range resolves. Only a pending holder's intent conflicts
// on the leaseholder, which reads through a finished one's (evalRead); a
// follower redirects on any.
func (r *Replica) evalNegotiate(req *NegotiateRequest) Response {
	maxTS := r.closed.closed
	var recs mvcc.Records
	if r.hasValidLease() {
		// The leaseholder can serve up to its clock.
		maxTS = r.store.Clock.Now()
		recs = r.store.Registry
	}
	start, end := r.desc.clamp(req.StartKey, req.EndKey)
	if its, ok := r.engine.MinIntentTS(start, end, recs); ok && its.LessEq(maxTS) {
		maxTS = its.Prev()
	}
	return Response{Negot: NegotiateResponse{MaxTimestamp: maxTS}}
}

// --- Lock waiting ---

// acquireLock takes (or confirms) the exclusive unreplicated lock on key
// for the requesting transaction, queueing behind live holders. A finished
// holder's lock is taken without a wait, whether or not the store loop
// dropped its entry meanwhile.
func (r *Replica) acquireLock(p *sim.Proc, key mvcc.Key, txn *Txn) error {
	wait := pushDelay
	for {
		holder := r.keys.entries[string(key)].holder
		if holder != 0 && holder != txn.Meta.ID {
			if err := r.waitForHolder(p, txn.Meta.ID, holder, &wait); err != nil {
				return err
			}
			if r.keys.entries[string(key)].holder != holder {
				continue // another waiter took the finished holder's lock first
			}
		}
		e := r.keys.entry(key)
		e.holder = txn.Meta.ID
		r.keys.entries[e.key] = e
		return nil
	}
}

// waitForHolder parks p until the transaction holder finishes. The common
// case wakes on the registry's commit/abort broadcast at no network cost.
// Whenever *wait runs out first, the waiter pushes the holder — a round trip
// to its transaction record, which aborts the holder if that breaks a
// deadlock — and waits deadlockPushInterval from then on. It fails if the
// waiter's own transaction (zero for a non-transactional request) is aborted
// meanwhile.
func (r *Replica) waitForHolder(p *sim.Proc, waiter, holder mvcc.TxnID, wait *sim.Duration) error {
	reg := r.store.Registry
	for status, _ := reg.Status(holder); status == mvcc.Pending; {
		reg.BeginWait(waiter, holder)
		status, _ = reg.WaitFinished(p, holder, *wait)
		if status == mvcc.Pending {
			status, _ = reg.PushTxn(p, r.store.NodeID, waiter, holder)
			*wait = deadlockPushInterval
		}
		reg.EndWait(waiter)
		if waiter != 0 {
			if st, _ := reg.Status(waiter); st == mvcc.Aborted {
				return &TxnAbortedError{TxnID: waiter}
			}
		}
	}
	return nil
}

// livenessThreshold is how long a reader waits on a lock before treating
// the holder's coordinator as potentially dead and attempting an abort push.
const livenessThreshold = 5 * sim.Second

// deadlockPushInterval throttles repeat pushes from blocked writers; the
// steady-state wait relies on local wake-ups, not push polling.
const deadlockPushInterval = 1 * sim.Second

// waitOnIntent blocks p until the transaction owning the intent on key
// finishes and returns so the caller can evaluate again: a read then reads
// the finished intent through its holder's record, and a write folds its
// resolution into its own command (checkPut), so neither waits a consensus
// round for it. Writers push (and may abort) the holder after pushDelay,
// which breaks write-write deadlocks; readers wait for the holder to finish
// (paper §6.2: readers block on the locks of still-running writers), only
// pushing after a long liveness threshold.
func (r *Replica) waitOnIntent(p *sim.Proc, key mvcc.Key, holder mvcc.TxnMeta, waiter *Txn, isWrite bool) error {
	isp := r.store.Obs.StartChild("intent.wait", obs.ProcSpan(p))
	if isp != nil {
		// Not formatted for a span that is not recorded.
		isp.SetTag("holder", fmt.Sprintf("%v", holder.ID))
	}
	defer isp.Finish()
	// Pushes run only on the deadlock/liveness cycle: writers first push
	// after pushDelay and then every deadlockPushInterval; plain readers
	// only after livenessThreshold.
	wait := pushDelay
	if !isWrite || waiter == nil {
		wait = livenessThreshold
	}
	waiterID := waiter.id()
	// A Pending holder means this request actually blocks; log the wait as
	// a contention event (with its virtual duration) when it ends.
	if st, _ := r.store.Registry.Status(holder.ID); st == mvcc.Pending && r.store.Contention != nil {
		start := p.Now()
		defer func() {
			r.store.Contention.Record(obs.ContentionEvent{
				Start:    start,
				NodeID:   int64(r.store.NodeID),
				RangeID:  int64(r.desc.RangeID),
				Key:      string(key),
				Holder:   fmt.Sprintf("%v", holder.ID),
				Waiter:   fmt.Sprintf("%v", waiterID),
				Duration: p.Now().Sub(start),
				IsWrite:  isWrite,
			})
		}()
	}
	return r.waitForHolder(p, waiterID, holder.ID, &wait)
}

// --- Raft integration ---

// entryCommand is the command a replica's log entry carries. A replica
// proposes only *Command, so any other payload is a caller's mistake, made
// loud here rather than left to commit without applying anywhere.
func entryCommand(e raft.Entry) *Command {
	cmd, ok := e.Data.(*Command)
	if !ok {
		panic(fmt.Sprintf("kv: entry %d carries payload %T, not *Command", e.Index, e.Data))
	}
	return cmd
}

// apply executes a committed command on this replica's engine.
func (r *Replica) apply(e raft.Entry) {
	if e.Data == nil {
		return
	}
	cmd := entryCommand(e)
	r.closed.advance(cmd.ClosedTS)
	switch cmd.Kind {
	case CmdPut:
		// A split fences its right half until it applied (SplitRange), so a
		// command's keys are its range's: one outside failed to apply.
		if !r.desc.ContainsKey(cmd.Key) {
			r.store.applyErrors++
			break
		}
		// A write over a finished transaction's intent resolves it first, to
		// the outcome fixed when the write was evaluated: every replica and
		// every replay applies the same. The intent may be gone already (its
		// coordinator's resolution applied first), which is a no-op.
		if cmd.Resolves != 0 {
			if err := r.engine.ResolveIntent(cmd.Key, cmd.Resolves, cmd.Status, cmd.CommitTS); err != nil {
				r.store.applyErrors++
			}
		}
		if _, err := r.engine.Put(cmd.Key, cmd.Value, cmd.Ts, cmd.Txn); err != nil {
			r.store.applyErrors++
		}
	case CmdResolveIntent:
		for _, k := range cmd.Keys {
			if !r.desc.ContainsKey(k) {
				r.store.applyErrors++
			} else if err := r.engine.ResolveIntent(k, cmd.Txn.ID, cmd.Status, cmd.CommitTS); err != nil {
				r.store.applyErrors++
			}
		}
	case CmdTxnRecord:
		// The decision itself lives in the registry; the entry models
		// the durability round.
	case CmdDescUpdate:
		// A descriptor update applies only on top of the generation it was
		// derived from (its own less one), like CockroachDB's conditional put
		// of a descriptor: one derived before a split applied would give the
		// left half its old span back.
		if cmd.Desc.Generation == r.desc.Generation+1 {
			r.setDesc(cmd.Desc.Clone())
		}
	case CmdLeaseTransfer:
		r.applyLeaseTransfer(cmd)
	case CmdSplit:
		r.applySplit(cmd)
	case CmdSubsume:
		r.subsumed = true
	case CmdMerge:
		r.applyMerge(cmd, e)
	}
}

// applySplit executes a range split on this replica: the right half's data
// is copied into a freshly created local replica of the new range, and the
// local descriptor shrinks. Because the split rides the old range's Raft
// log, every replica performs it at the same log position.
func (r *Replica) applySplit(cmd *Command) {
	newDesc := cmd.SplitDesc
	if _, ok := r.store.Replica(newDesc.RangeID); !ok {
		nr := r.store.CreateReplica(newDesc)
		r.engine.CopyTo(nr.engine, newDesc.StartKey, newDesc.EndKey)
		// The right span's entries go with their keys, whole: a locking read
		// queued on a lock keeps waiting, and a read the left half served
		// keeps pushing writes.
		r.keys.moveSpan(newDesc, &nr.keys)
		// The right half carries on the left half's lease: the same epoch,
		// the closed timestamp and the promise the split was proposed
		// under, and everything below the split timestamp assumed read.
		nr.leaseEpoch = r.leaseEpoch
		nr.inherit(r.closed.closed, cmd.ClosedTS, cmd.Ts)
		if newDesc.Leaseholder == r.store.NodeID {
			nr.raft.Campaign()
		}
		// Re-checkpoint the right half now that the copied data is in: its
		// own log is empty, so without this a crash before the next
		// checkpoint tick would lose the copy if the left half's split entry
		// has already been truncated away.
		r.store.checkpoint(nr, 0, 0)
	}
	r.setDesc(cmd.Desc.Clone())
}

// applyMerge executes a range merge on this replica: the local subsumed
// right-hand replica's data is copied into this engine and the descriptor
// widens. Because the merge rides the left range's Raft log, every replica
// performs it at the same log position; the prior Subsume plus quiesce
// guarantee the right-hand data is complete and immutable by now.
func (r *Replica) applyMerge(cmd *Command, e raft.Entry) {
	rhs := cmd.SplitDesc
	if other, ok := r.store.Replica(rhs.RangeID); ok {
		other.engine.CopyTo(r.engine, rhs.StartKey, rhs.EndKey)
	}
	// The merged leaseholder assumes everything in the absorbed span was
	// read up to the merge timestamp, and its closed timestamp must not
	// regress below the right-hand side's promises.
	r.inherit(cmd.SubsumeClosedTS, cmd.SubsumeClosedTS, cmd.Ts)
	r.setDesc(cmd.Desc.Clone())
	// Persist the widened range with the absorbed data before the right-hand
	// replica's WAL and checkpoint are deleted below; a crash in between
	// leaves at worst an inert extra range on disk.
	r.store.checkpoint(r, e.Index, e.Term)
	if _, ok := r.store.Replica(rhs.RangeID); ok {
		r.store.RemoveReplica(rhs.RangeID)
	}
}

func (r *Replica) setDesc(desc *RangeDescriptor) {
	if desc.Generation >= r.desc.Generation {
		r.desc = desc
		r.setTiming()
	}
}

// applyLeaseTransfer installs a new lease. Every replica records the epoch
// the command bound it to at proposal time, so the lease epoch is replicated
// state: an image cut on any replica carries it. Like a descriptor update,
// a lease applies only on top of the generation it was derived from: one
// proposed before another change applied (a placement update, another
// lease) would hand the range its older descriptor back, and it is dropped
// (its proposer looks again).
func (r *Replica) applyLeaseTransfer(cmd *Command) {
	if cmd.Desc.Generation != r.desc.Generation+1 {
		return
	}
	r.setDesc(cmd.Desc.Clone())
	r.leaseEpoch = cmd.LeaseEpoch
	if r.desc.Leaseholder == r.store.NodeID {
		// Fresh leaseholder: assume everything was read up to where the
		// lease starts (the read floor's ratchet), and carry the
		// closed-timestamp promise floor forward.
		r.inherit(hlc.Timestamp{}, cmd.ClosedTS, r.desc.LeaseStart)
		if r.store.Catalog != nil {
			// Publish the new routing so gateways converge without an
			// admin in the loop.
			r.store.Catalog.Update(r.desc.Clone())
		}
	}
}

// --- The lease follows Raft leadership ---

// onLeaderChange runs whenever this replica's Raft group elects (or learns
// of) a new leader. A winner checks the lease rule at once: a range with no
// peers sends no appends, so heartbeatPayload would never check it.
func (r *Replica) onLeaderChange(simnet.NodeID, uint64) {
	// An acquisition parked in an earlier leadership looks again: a single
	// voter's no-op may apply before it runs, outside any Step.
	r.leaderApplied.Broadcast()
	r.ensureLease()
}

// ensureLease is the one rule that keeps a range's lease with its Raft
// leader (CockroachDB colocates the two): a leader without a valid lease —
// held elsewhere, fenced by an epoch bump, or transferred while leadership
// stayed — starts an acquisition, unless one is running or a transfer it
// proposed is undecided. It is checked on every append the leader sends and
// when it wins an election, so it holds whatever moved the lease or the
// leadership.
func (r *Replica) ensureLease() {
	if !r.raft.IsLeader() || r.hasValidLease() || r.leaseAcqActive || r.transferring {
		return
	}
	r.leaseAcqActive = true
	r.store.Sim.Spawn(fmt.Sprintf("n%d/r%d/lease-acq", r.store.NodeID, r.desc.RangeID), func(p *sim.Proc) {
		defer func() { r.leaseAcqActive = false }()
		r.maybeAcquireLease(p)
	})
}

// step hands msg to the Raft node. A fresh leader's no-op applies inside Step
// without passing through apply (it carries no command), and a message of a
// higher term ends a leadership with no leader change to report: whoever
// waits on either (awaitLeaderApplied) is woken here.
func (r *Replica) step(msg raft.Message) {
	applied, term := r.raft.Applied(), r.raft.Term()
	r.raft.Step(msg)
	if r.raft.Applied() != applied || r.raft.Term() != term {
		r.leaderApplied.Broadcast()
	}
}

// awaitLeaderApplied parks p until this replica, as Raft leader, has applied
// the no-op its term opened with, and reports whether it still leads. Every
// entry before the no-op has applied by then, so the replica's descriptor is
// as new as any committed before the election.
func (r *Replica) awaitLeaderApplied(p *sim.Proc) bool {
	for r.raft.IsLeader() && r.raft.AppliedTerm() < r.raft.Term() {
		r.leaderApplied.Wait(p)
	}
	return r.raft.IsLeader()
}

// maybeAcquireLease runs on a Raft leader without a valid lease
// (ensureLease). Each wait in it ends on the event it is for, not on a timer
// standing in for one.
func (r *Replica) maybeAcquireLease(p *sim.Proc) {
	nl := r.store.liveness
	// Settle first (awaitLeaderApplied): a cooperative lease transfer to this
	// node may already be committed but not yet applied here (leadership
	// changes hands before the log catches up). Acting on the older
	// descriptor would bounce leadership back to the old leaseholder and undo
	// the transfer.
	for r.awaitLeaderApplied(p) && !r.hasValidLease() && !r.transferring {
		prev := r.desc.Leaseholder
		if prev == r.store.NodeID {
			// Our own lease was fenced (epoch bumped while we were cut
			// off) but nobody claimed a new one; once our record is
			// confirmed again, re-propose it bound to the new epoch.
			if !r.store.SelfLive() {
				p.Sleep(LivenessHeartbeatInterval / 2)
				continue
			}
		} else if exp, ok := nl.Expiration(prev); !ok || p.Now() <= exp {
			// The incumbent's record is live. Hand leadership back instead of
			// stealing the lease, preserving leader/leaseholder colocation: a
			// healthy incumbent (one that merely lost an election by timing)
			// takes it at once. A dead one never does, and its record expires
			// after exp, when the epoch bump below fences it. A live record
			// keeps moving, so look again after an interval at most.
			r.raft.TransferLeadership(prev)
			wake := p.Now().Add(LivenessHeartbeatInterval)
			if ok && exp < wake {
				wake = exp.Add(1)
			}
			p.SleepUntil(wake)
			continue
		} else if r.leaseEpoch >= nl.Epoch(prev) && !nl.IncrementEpoch(prev, p.Now()) {
			p.Sleep(LivenessHeartbeatInterval / 2)
			continue
		}
		// The old lease is fenced: by the bump above, or before it when the
		// lease is bound below the incumbent's epoch (another range's claim
		// or the incumbent's restart bumped it, and one death is one bump).
		// It served no read at or past the expiration that fenced it (lease
		// stasis, Store.servesAt), so ours starts there; a lease of our own
		// starts at the newest read our key table holds. Claim it for
		// ourselves through the log so every replica learns the same lease
		// at the same position.
		served := hlc.Timestamp{WallTime: int64(nl.Fenced(prev))}
		if prev == r.store.NodeID {
			served = r.keys.newestRead()
		}
		nd := r.desc.Clone()
		nd.Leaseholder = r.store.NodeID
		nd.Generation++
		nd.LeaseStart = r.leaseStart(served)
		cmd := r.command(Command{
			Kind:       CmdLeaseTransfer,
			Desc:       nd,
			ClosedTS:   r.closed.issued,
			LeaseEpoch: r.store.CurrentEpoch(),
		})
		f, err := r.submit(cmd)
		if err != nil {
			p.Sleep(LivenessHeartbeatInterval / 2)
			continue
		}
		if res := f.Wait(p); res.Err != nil {
			p.Sleep(LivenessHeartbeatInterval / 2)
			continue
		}
		if r.desc.Generation == nd.Generation && r.isLeaseholder() {
			r.LeaseAcquisitions++ // not overtaken (applyLeaseTransfer)
		}
	}
}

// leaseStart is where a lease that replaces the current one starts, given
// the newest timestamp at which the current one served a read: there, or at
// the current lease's own start if that is later (a lease that never served
// still covers what its predecessors did). Every write the new leaseholder
// evaluates lands above it, which is all the read floor is for; a write
// after a lease change lands at its own timestamp and commit-waits nothing.
func (r *Replica) leaseStart(served hlc.Timestamp) hlc.Timestamp {
	return served.Max(r.desc.LeaseStart)
}

// inherit is the one rule by which a replica takes over what another copy of
// the range vouched for — a split's left half, a merge's right half, the old
// leaseholder, an image: its closed timestamp rises to closed; its promise
// floor to issued, so it never accepts a write at or below a promise made
// before; and its key table's floor to readFloor, dropping the entries
// nothing keeps (keyTable.sweep). None of the three ever falls.
func (r *Replica) inherit(closed, issued, readFloor hlc.Timestamp) {
	r.closed.advance(closed)
	if r.closed.issued.Less(issued) {
		r.closed.issued = issued
	}
	r.keys.sweep(readFloor, r.store.Registry)
}

// heartbeatPayload is the closed-timestamp promise the leader attaches to
// each append, the side transport of paper §5.1.1 (zero: none), with the log
// position it covers: the highest uncommitted entry a read at or below the
// promise could see — any but a write above it — or the commit index if there
// is none. A follower uses the promise once it has applied through that
// position, so no write below the promise that can still commit is missing
// from it. A leader without a valid lease promises nothing, and checks the
// lease rule (ensureLease): every append it sends does.
func (r *Replica) heartbeatPayload(uncommitted []raft.Entry) (hlc.Timestamp, uint64) {
	if !r.hasValidLease() {
		r.ensureLease()
		return hlc.Timestamp{}, 0
	}
	closed := r.closed.issue(r.store.Clock.Now())
	for i := len(uncommitted) - 1; i >= 0; i-- {
		e := uncommitted[i]
		if e.Data == nil {
			return closed, e.Index
		}
		if cmd := entryCommand(e); cmd.Kind != CmdPut || !closed.Less(cmd.Ts) {
			return closed, e.Index
		}
	}
	return closed, r.raft.CommitIndex()
}
