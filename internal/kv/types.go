// Package kv implements mrdb's distributed, transactional key-value layer:
// Ranges replicated with Raft (paper §3.1), leaseholders and leases, a
// per-key table of latches, locks and served reads, closed timestamps with
// both the lagging policy (follower reads, §5.1) and the leading policy that
// powers GLOBAL tables (§6.2.1), follower reads with exact and bounded
// staleness (§5.3), and the request routing layer (DistSender).
package kv

import (
	"bytes"
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// RangeID identifies a Range (one Raft group).
type RangeID uint64

// ClosedTSPolicy selects how a range's leaseholder closes timestamps.
type ClosedTSPolicy int8

const (
	// ClosedTSLag closes timestamps trailing present time (default 3s):
	// cheap, enables stale follower reads.
	ClosedTSLag ClosedTSPolicy = iota
	// ClosedTSLead closes timestamps in the future of present time so
	// that present-time reads can be served by any replica; writes are
	// pushed into the future and must commit-wait. This is the GLOBAL
	// table policy (paper §6.2.1).
	ClosedTSLead
)

func (p ClosedTSPolicy) String() string {
	if p == ClosedTSLead {
		return "LEAD"
	}
	return "LAG"
}

// RangeDescriptor locates a Range in the keyspace and in the cluster.
type RangeDescriptor struct {
	RangeID  RangeID
	StartKey mvcc.Key
	EndKey   mvcc.Key // exclusive; nil = +inf

	Voters    []simnet.NodeID
	NonVoters []simnet.NodeID
	// Leaseholder serves consistent reads and evaluates writes.
	Leaseholder simnet.NodeID
	// Policy is the closed-timestamp policy.
	Policy ClosedTSPolicy
	// Generation increments on every descriptor change; stale cache
	// entries are detected by comparing generations.
	Generation int64
	// LeaseStart is the timestamp the lease starts at: no earlier lease of
	// the range served a read above it, so its holder's key table starts
	// there (applyLeaseTransfer), and a lease that replaces it starts no
	// lower (Replica.leaseStart).
	LeaseStart hlc.Timestamp
	// Config is the zone config the range is placed under, nil for none
	// (placement checkers and the load queue skip such a range). It is
	// never mutated: descriptors share it, and a new one replaces it.
	Config *zones.Config
}

// ContainsKey reports whether key falls in [StartKey, EndKey).
func (d *RangeDescriptor) ContainsKey(key mvcc.Key) bool {
	if bytes.Compare(key, d.StartKey) < 0 {
		return false
	}
	return d.EndKey == nil || bytes.Compare(key, d.EndKey) < 0
}

// containsSpan reports whether the range holds all of [start, end), end nil
// meaning unbounded.
func (d *RangeDescriptor) containsSpan(start, end mvcc.Key) bool {
	return d.ContainsKey(start) && (d.EndKey == nil || end != nil && bytes.Compare(end, d.EndKey) <= 0)
}

// clamp is the part of [start, end) the range holds, end nil meaning
// unbounded: an empty span when the two do not overlap.
func (d *RangeDescriptor) clamp(start, end mvcc.Key) (mvcc.Key, mvcc.Key) {
	if bytes.Compare(start, d.StartKey) < 0 {
		start = d.StartKey
	}
	if d.EndKey != nil && (end == nil || bytes.Compare(d.EndKey, end) < 0) {
		// Installed descriptors are never mutated: EndKey can be shared.
		end = d.EndKey
	}
	return start, end
}

// Replicas returns all replica node IDs, voters first.
func (d *RangeDescriptor) Replicas() []simnet.NodeID {
	return append(append([]simnet.NodeID{}, d.Voters...), d.NonVoters...)
}

// Clone deep-copies the descriptor but for its immutable Config, which the
// copy shares.
func (d *RangeDescriptor) Clone() *RangeDescriptor {
	out := *d
	out.StartKey = append(mvcc.Key(nil), d.StartKey...)
	out.EndKey = append(mvcc.Key(nil), d.EndKey...)
	out.Voters = append([]simnet.NodeID(nil), d.Voters...)
	out.NonVoters = append([]simnet.NodeID(nil), d.NonVoters...)
	return &out
}

// Txn is the coordinator-side transaction state that rides on requests.
type Txn struct {
	Meta mvcc.TxnMeta
	// ReadTimestamp is the MVCC snapshot the txn reads at.
	ReadTimestamp hlc.Timestamp
	// GlobalUncertaintyLimit is ReadTimestamp + max_clock_offset, fixed
	// at txn start; values in (ReadTimestamp, Limit] are uncertain.
	GlobalUncertaintyLimit hlc.Timestamp
	// Priority breaks push ties; older (smaller) wins by default.
	Priority int64
}

// id is the transaction's ID, zero for a non-transactional request.
func (t *Txn) id() mvcc.TxnID {
	if t == nil {
		return 0
	}
	return t.Meta.ID
}

// --- Requests ---

// evaluator is what a replica needs of a request: how to evaluate it. The
// bounded-staleness negotiation is only that: NegotiateBoundedStaleness
// sends it to one replica after another itself, and the DistSender never
// routes it.
type evaluator interface {
	// eval evaluates the request on r, blocking p as needed.
	eval(r *Replica, p *sim.Proc) Response
}

// request is the sealed set of KV requests the DistSender routes.
// Everything the DistSender and the Replica decide per request type is a
// method implemented beside the type's definition, so adding a request
// means writing one block here.
type request interface {
	evaluator
	// routingKey is the key whose range serves the request.
	routingKey() mvcc.Key
	// typeName is what %T prints for the request, as a constant: it lands
	// in span renderings that same-seed determinism oracles hash, and the
	// hot path must not reflect or allocate for it. TestRequestMethods
	// pins the equality.
	typeName() string
	// followerOK reports whether any replica, not only the leaseholder,
	// may serve the request.
	followerOK() bool
}

// asRequest is the one place a value that came through the interface{}
// signatures of Send and SendBatch becomes a request. It switches on the
// concrete types: an assertion to an interface type (req.(request)) calls
// into the runtime for every type its call site has not cached yet, and
// the runtime caches one at random, on 1 call in 1024 or fewer, with a heap
// object each time, so a run's object count would vary from process to
// process.
func asRequest(req interface{}) (request, error) {
	switch q := req.(type) {
	case *GetRequest:
		return q, nil
	case *ScanRequest:
		return q, nil
	case *PutRequest:
		return q, nil
	case *QueryIntentRequest:
		return q, nil
	case *EndTxnRequest:
		return q, nil
	case *ResolveIntentRequest:
		return q, nil
	case *RefreshRequest:
		return q, nil
	}
	return nil, fmt.Errorf("kv: cannot route %T", req)
}

// spanOf is the span [start, end) a scan or a span refresh reads (a scan's
// end nil: unbounded), which the DistSender divides by range; ok is false
// for a request that reads or writes one key.
func spanOf(q request) (start, end mvcc.Key, ok bool) {
	switch q := q.(type) {
	case *ScanRequest:
		return q.StartKey, q.EndKey, true
	case *RefreshRequest:
		return q.Key, q.EndKey, q.EndKey != nil
	}
	return nil, nil, false
}

// reqName names a request for span tags.
func reqName(req interface{}) string {
	if q, err := asRequest(req); err == nil {
		return q.typeName()
	}
	return fmt.Sprintf("%T", req)
}

// GetRequest reads a single key.
type GetRequest struct {
	Key       mvcc.Key
	Timestamp hlc.Timestamp
	Txn       *Txn // nil for non-transactional / stale reads
	// Uncertainty, when false, disables uncertainty checking entirely
	// (stale reads, §5.3).
	Uncertainty bool
	// FollowerRead marks the request as allowed to be served by a
	// non-leaseholder replica.
	FollowerRead bool
	// CanBumpReadTS permits the server to ratchet the read timestamp
	// past an uncertain value and retry locally (a server-side
	// uncertainty refresh). The coordinator sets it when the transaction
	// has no other reads or writes that a bump would invalidate.
	CanBumpReadTS bool
	// ForUpdate acquires an exclusive unreplicated lock on the key after
	// reading (SELECT FOR UPDATE): later writers and locking readers
	// queue behind it instead of racing and restarting. The SQL layer
	// sets it on the reads of UPDATE/DELETE statements.
	ForUpdate bool
}

func (q *GetRequest) routingKey() mvcc.Key    { return q.Key }
func (q *GetRequest) typeName() string        { return "*kv.GetRequest" }
func (q *GetRequest) followerOK() bool        { return q.FollowerRead }
func (q *GetRequest) bounds(r *Replica) error { return r.ownKey(q.Key) }
func (q *GetRequest) record(r *Replica, ts hlc.Timestamp, _ Response) {
	r.keys.recordRead(q.Key, ts, q.Txn.id())
}
func (q *GetRequest) eval(r *Replica, p *sim.Proc) Response {
	return r.evalRead(p, q, readArgs{ts: q.Timestamp, txn: q.Txn, uncertainty: q.Uncertainty,
		canBump: q.CanBumpReadTS, latchKey: q.Key, forUpdate: q.ForUpdate})
}

func (q *GetRequest) readAt(r *Replica, ts hlc.Timestamp, opts mvcc.GetOptions) (Response, error) {
	val, vts, err := r.engine.Get(q.Key, ts, opts)
	if err != nil {
		return Response{}, err
	}
	var bumped hlc.Timestamp
	if q.Timestamp.Less(ts) { // an uncertainty refresh moved the read
		bumped = ts
	}
	return Response{Get: GetResponse{Value: val, Timestamp: vts, ServedBy: r.store.NodeID, BumpedTS: bumped}}, nil
}

// GetResponse carries the read result.
type GetResponse struct {
	Value     mvcc.Value
	Timestamp hlc.Timestamp // timestamp of the returned version
	ServedBy  simnet.NodeID
	// BumpedTS, if non-zero, is the ratcheted read timestamp after a
	// server-side uncertainty refresh; the coordinator must adopt it and,
	// if it leads the local clock, commit wait (paper §6.2).
	BumpedTS hlc.Timestamp
}

// ScanRequest reads keys in [StartKey, EndKey).
type ScanRequest struct {
	StartKey, EndKey mvcc.Key
	MaxRows          int
	Timestamp        hlc.Timestamp
	Txn              *Txn
	Uncertainty      bool
	FollowerRead     bool
}

func (q *ScanRequest) routingKey() mvcc.Key { return q.StartKey }
func (q *ScanRequest) typeName() string     { return "*kv.ScanRequest" }
func (q *ScanRequest) followerOK() bool     { return q.FollowerRead }
func (q *ScanRequest) eval(r *Replica, p *sim.Proc) Response {
	return r.evalRead(p, q, readArgs{ts: q.Timestamp, txn: q.Txn, uncertainty: q.Uncertainty,
		latchKey: q.StartKey, latchEnd: q.EndKey, span: true})
}

func (q *ScanRequest) bounds(r *Replica) error { return r.ownSpan(q.StartKey, q.EndKey) }

func (q *ScanRequest) readAt(r *Replica, ts hlc.Timestamp, opts mvcc.GetOptions) (Response, error) {
	rows, err := r.engine.Scan(q.StartKey, q.EndKey, ts, q.MaxRows, opts)
	if err != nil {
		return Response{}, err
	}
	return Response{Scan: ScanResponse{Rows: rows, ServedBy: r.store.NodeID}}, nil
}

// record notes the scanned span, which lies in this range.
func (q *ScanRequest) record(r *Replica, ts hlc.Timestamp, _ Response) {
	r.keys.raiseFloor(ts, q.Txn.id())
}

// ScanResponse carries scan results: at most MaxRows rows, in key order.
type ScanResponse struct {
	Rows     []mvcc.KeyValue
	ServedBy simnet.NodeID
}

// PutRequest writes a provisional value (intent) for a transaction, or a
// committed value when Txn is nil.
type PutRequest struct {
	Key       mvcc.Key
	Value     mvcc.Value // nil deletes
	Timestamp hlc.Timestamp
	Txn       *Txn
	// Pipelined makes the leaseholder reply after evaluation and
	// proposal, before the write replicates (CockroachDB's write
	// pipelining / async consensus). The coordinator must prove the
	// write with a QueryIntentRequest before committing.
	Pipelined bool
	// MustNotExist makes the write conditional (CockroachDB's conditional
	// put, which an INSERT's uniqueness check on its own keys becomes,
	// §4.1): it fails with ConditionFailedError if the key's newest version
	// is a live value. The transaction's own intent satisfies the condition,
	// so a sub-batch re-sent after a routing error succeeds on the intent its
	// first attempt laid; the coordinator rejects an INSERT of a key the
	// transaction itself wrote live before sending it.
	MustNotExist bool
	// MustExist is MustNotExist's dual, for a one-phase commit whose value
	// the statement alone determines (an UPDATE that reads nothing of its
	// row): the write lands only on a key whose newest version is a live
	// value no newer than ReadFromTS. A key with no live version there lays
	// nothing, gives back the lock the request took, is recorded as read at
	// ReadFromTS, as a locking read would, and answers Absent. A key with a
	// version above ReadFromTS declines, as a pushed one-phase commit does.
	MustExist bool

	// Commit1PC asks the leaseholder to commit the transaction together
	// with this write (one-phase commit): the value is written directly
	// as committed — no intent ever becomes visible, so contending
	// operations wait only for the local consensus round, not for the
	// coordinator's WAN round trips. Only valid when this is the
	// transaction's sole write. ReadSpans (with ReadFromTS) lets the
	// leaseholder server-side-refresh the transaction's reads if the
	// commit timestamp got bumped; if any span has newer writes or lies
	// outside this range, the server declines and the coordinator falls
	// back to the two-phase path.
	Commit1PC  bool
	ReadSpans  [][2]mvcc.Key
	ReadFromTS hlc.Timestamp
}

func (q *PutRequest) routingKey() mvcc.Key                  { return q.Key }
func (q *PutRequest) typeName() string                      { return "*kv.PutRequest" }
func (q *PutRequest) followerOK() bool                      { return false }
func (q *PutRequest) eval(r *Replica, p *sim.Proc) Response { return r.evalPut(p, q) }

// QueryIntentRequest verifies at commit time that a pipelined write
// replicated: it waits for in-flight applications on the key and reports
// whether the transaction's intent is present.
type QueryIntentRequest struct {
	Key   mvcc.Key
	TxnID mvcc.TxnID
	Epoch int32
}

func (q *QueryIntentRequest) routingKey() mvcc.Key                  { return q.Key }
func (q *QueryIntentRequest) typeName() string                      { return "*kv.QueryIntentRequest" }
func (q *QueryIntentRequest) followerOK() bool                      { return false }
func (q *QueryIntentRequest) eval(r *Replica, p *sim.Proc) Response { return r.evalQueryIntent(p, q) }

// QueryIntentResponse reports whether the intent was found.
type QueryIntentResponse struct {
	Found bool
}

// PutResponse reports the timestamp the write was actually evaluated at
// (possibly above the request timestamp after served-read / closed-timestamp /
// write-too-old bumps).
type PutResponse struct {
	WriteTimestamp hlc.Timestamp
	// Committed reports that a Commit1PC request committed the
	// transaction at WriteTimestamp.
	Committed bool
	// Declined1PC reports that the server could not perform the
	// one-phase commit; nothing was written and the coordinator must use
	// the normal path.
	Declined1PC bool
	// Absent reports that a MustExist write found no live value at its read
	// timestamp and wrote nothing.
	Absent bool
}

// EndTxnRequest commits or aborts a transaction: it writes the transaction
// record on the anchor range through consensus. A commit is a parallel
// commit: the record is written in STAGING state while the coordinator
// concurrently proves its pipelined writes, then finalizes via the registry.
type EndTxnRequest struct {
	Txn      *Txn
	Commit   bool // false aborts
	CommitTS hlc.Timestamp
}

func (q *EndTxnRequest) routingKey() mvcc.Key                  { return q.Txn.Meta.Key }
func (q *EndTxnRequest) typeName() string                      { return "*kv.EndTxnRequest" }
func (q *EndTxnRequest) followerOK() bool                      { return false }
func (q *EndTxnRequest) eval(r *Replica, p *sim.Proc) Response { return r.evalEndTxn(p, q) }

// EndTxnResponse reports the recorded status.
type EndTxnResponse struct {
	Status mvcc.TxnStatus
}

// ResolveIntentRequest finalizes an intent after its transaction ended.
type ResolveIntentRequest struct {
	Key      mvcc.Key
	TxnID    mvcc.TxnID
	Status   mvcc.TxnStatus
	CommitTS hlc.Timestamp
}

func (q *ResolveIntentRequest) routingKey() mvcc.Key { return q.Key }
func (q *ResolveIntentRequest) typeName() string     { return "*kv.ResolveIntentRequest" }
func (q *ResolveIntentRequest) followerOK() bool     { return false }

// eval resolves a lone request's intent as a group of one; evaluateBatch
// resolves a sub-batch's requests of one transaction together.
func (q *ResolveIntentRequest) eval(r *Replica, p *sim.Proc) Response {
	reqs, resps := [1]interface{}{q}, [1]Response{}
	r.resolveGroup(p, reqs[:], resps[:], q)
	return resps[0]
}

// sameOutcome reports whether o resolves intents of q's transaction to the
// same outcome, so that one command can carry both.
func (q *ResolveIntentRequest) sameOutcome(o *ResolveIntentRequest) bool {
	return o.TxnID == q.TxnID && o.Status == q.Status && o.CommitTS == q.CommitTS
}

// RefreshRequest verifies that no value was written to Key — or to the span
// [Key, EndKey) when EndKey is set — in (FromTS, ToTS], allowing a
// transaction to ratchet its read timestamp without restarting (paper §6.1
// "uncertainty refresh").
type RefreshRequest struct {
	Key          mvcc.Key
	EndKey       mvcc.Key // optional; span refresh for scans
	FromTS, ToTS hlc.Timestamp
	TxnID        mvcc.TxnID
	// FollowerRead routes the refresh to the nearest replica, which can
	// verify it when its closed timestamp covers ToTS (GLOBAL tables).
	FollowerRead bool
}

func (q *RefreshRequest) routingKey() mvcc.Key { return q.Key }
func (q *RefreshRequest) typeName() string     { return "*kv.RefreshRequest" }
func (q *RefreshRequest) followerOK() bool     { return q.FollowerRead }

func (q *RefreshRequest) bounds(r *Replica) error {
	if q.EndKey == nil {
		return r.ownKey(q.Key)
	}
	return r.ownSpan(q.Key, q.EndKey)
}

// eval serves a refresh as a read at ToTS, which a follower can verify once
// its closed timestamp covers ToTS. A refresh waits out in-flight writes on
// its key or span: such a write already passed the served reads, so a
// refresh that looked past it would bless a read the write invalidates.
func (q *RefreshRequest) eval(r *Replica, p *sim.Proc) Response {
	return r.evalRead(p, q, readArgs{ts: q.ToTS, latchKey: q.Key, latchEnd: q.EndKey, span: q.EndKey != nil})
}

func (q *RefreshRequest) readAt(r *Replica, _ hlc.Timestamp, opts mvcc.GetOptions) (Response, error) {
	return Response{Refresh: RefreshResponse{Success: !q.newer(r.engine, opts.Records)}}, nil
}

// newer reports whether e holds another transaction's write in (FromTS, ToTS]
// on the key or span, finished intents read through recs where it is set; a
// one-phase commit refreshes its reads with it too.
func (q *RefreshRequest) newer(e *mvcc.Engine, recs mvcc.Records) bool {
	if q.EndKey != nil {
		return e.HasNewerVersionInSpan(q.Key, q.EndKey, q.FromTS, q.ToTS, q.TxnID, recs)
	}
	return e.HasNewerVersion(q.Key, q.FromTS, q.ToTS, q.TxnID, recs)
}

func (q *RefreshRequest) record(r *Replica, ts hlc.Timestamp, resp Response) {
	switch {
	case !resp.Refresh.Success:
	case q.EndKey != nil:
		r.keys.raiseFloor(ts, q.TxnID)
	default:
		r.keys.recordRead(q.Key, ts, q.TxnID)
	}
}

// RefreshResponse reports whether the refresh succeeded.
type RefreshResponse struct {
	Success bool
}

// NegotiateRequest implements the bounded-staleness negotiation phase
// (§5.3.2): it asks a replica for the highest timestamp at which the key
// span can be served locally without blocking. Any replica may answer it.
type NegotiateRequest struct {
	StartKey, EndKey mvcc.Key
}

func (q *NegotiateRequest) eval(r *Replica, p *sim.Proc) Response { return r.evalNegotiate(q) }

// NegotiateResponse returns the local resolved timestamp.
type NegotiateResponse struct {
	MaxTimestamp hlc.Timestamp
}

// --- Errors ---

// NotLeaseholderError redirects the sender to the current leaseholder.
type NotLeaseholderError struct {
	RangeID     RangeID
	Leaseholder simnet.NodeID
}

func (e *NotLeaseholderError) Error() string {
	return fmt.Sprintf("r%d: not leaseholder; try n%d", e.RangeID, e.Leaseholder)
}

// FollowerReadUnavailableError means a follower could not serve a read
// locally (closed timestamp too low or conflicting intent); the DistSender
// retries at the leaseholder.
type FollowerReadUnavailableError struct {
	RangeID  RangeID
	ClosedTS hlc.Timestamp
	ReadTS   hlc.Timestamp
}

func (e *FollowerReadUnavailableError) Error() string {
	return fmt.Sprintf("r%d: follower read at %s unavailable (closed %s)", e.RangeID, e.ReadTS, e.ClosedTS)
}

// RangeKeyMismatchError means the request hit a replica that does not
// contain the key (stale routing cache).
type RangeKeyMismatchError struct {
	RequestedKey mvcc.Key
}

func (e *RangeKeyMismatchError) Error() string {
	return fmt.Sprintf("key %q not in range", e.RequestedKey)
}

// TxnAbortedError means the transaction was aborted (usually pushed by a
// contending transaction) and must be retried by the client.
type TxnAbortedError struct {
	TxnID mvcc.TxnID
}

func (e *TxnAbortedError) Error() string {
	return fmt.Sprintf("txn %d aborted", e.TxnID)
}

// ConditionFailedError means a MustNotExist write found a live value on its
// key: for an INSERT, a duplicate key. Nothing was written.
type ConditionFailedError struct {
	Key mvcc.Key
	// Existing is the timestamp of the live value; zero when the value is
	// the transaction's own earlier write, which its coordinator rejects.
	Existing hlc.Timestamp
}

func (e *ConditionFailedError) Error() string {
	return fmt.Sprintf("condition failed on %q: live value at %s", e.Key, e.Existing)
}

// RetryableTxnError means the transaction must restart at a new epoch with
// a higher timestamp (e.g. failed refresh).
type RetryableTxnError struct {
	TxnID  mvcc.TxnID
	Reason string
	// MinTimestamp is the timestamp the restarted txn should start at.
	MinTimestamp hlc.Timestamp
}

func (e *RetryableTxnError) Error() string {
	return fmt.Sprintf("txn %d must retry: %s", e.TxnID, e.Reason)
}

// Response answers one request: Err, or the field of the request's kind
// (a resolution has none; it is idempotent). Every kind is held by value, so
// a reply is a value that lands in the space its caller owns — an envelope's
// Resps, a sender's result slice — and a round trip boxes none.
type Response struct {
	Get         GetResponse
	Scan        ScanResponse
	Put         PutResponse
	Negot       NegotiateResponse
	Err         error
	EndTxn      EndTxnResponse
	Refresh     RefreshResponse
	QueryIntent QueryIntentResponse
}

// BatchRequest is the one RPC envelope dispatched to a Replica: the
// requests bound for one range, whether a lone request or the sub-batch the
// DistSender split out of a larger batch. It carries its own reply space: a
// replica evaluates the requests concurrently, fills Resps in request order
// and replies with the envelope itself, so a round trip allocates no reply.
//
// A DistSender takes its envelopes from its own free list and is the one that
// puts them back, after it copied the responses out. An envelope goes back
// only once its reply landed: one whose attempt failed after it was sent is
// left to the collector, since its replica may still be evaluating into it.
type BatchRequest struct {
	RangeID RangeID
	// Reqs holds one request per element; the element type is interface{}
	// because SendBatch takes the batch its callers build as []interface{}.
	Reqs []interface{}
	// Trace carries the sender's span context to the serving replica, so
	// server-side evaluation spans join the request's trace.
	Trace obs.SpanContext
	// Resps is the reply, one Response per request in request order.
	Resps []Response
	// one backs Resps while it needs no more room, as it does for a lone
	// request.
	one [1]Response
}

// reply returns Resps sized for Reqs: the space a replica answers in. It is
// zeroed, since a fresh envelope's is and putBatch clears what a reply filled.
func (b *BatchRequest) reply() []Response {
	n := len(b.Reqs)
	if b.Resps == nil {
		b.Resps = b.one[:0]
	}
	if cap(b.Resps) < n {
		b.Resps = make([]Response, n)
	}
	b.Resps = b.Resps[:n]
	return b.Resps
}

// RaftEnvelope carries a Raft message for one range between stores. It
// travels by pointer (boxing the 192-byte value was the largest single source
// of garbage) and belongs to the cluster's envelopePool: the sender takes one,
// the receiving store copies the message out and puts it back.
type RaftEnvelope struct {
	RangeID RangeID
	Msg     raft.Message
}

// maxFreeEnvelopes bounds an envelopePool.
const maxFreeEnvelopes = 256

// envelopePool is the free list of Raft envelopes, one per cluster and shared
// by all its stores. Per-store lists would leak: heartbeats that need no
// answer are a one-way flow, so a follower's list would only ever grow while
// the leader's stayed empty. An envelope the network drops is never put back;
// the collector takes it.
type envelopePool struct {
	free []*RaftEnvelope
}

func (ep *envelopePool) get() *RaftEnvelope {
	if n := len(ep.free); n > 0 {
		env := ep.free[n-1]
		ep.free = ep.free[:n-1]
		return env
	}
	return new(RaftEnvelope)
}

// put clears env, so it pins no log entries or snapshot, and keeps it unless
// the list is full.
func (ep *envelopePool) put(env *RaftEnvelope) {
	*env = RaftEnvelope{}
	if len(ep.free) < maxFreeEnvelopes {
		ep.free = append(ep.free, env)
	}
}

// Command is the state-machine payload replicated through Raft and applied
// on every replica of a range.
type Command struct {
	Kind CommandKind
	// Status (at CommitTS) is the outcome a CmdResolveIntent, or a CmdPut's
	// Resolves, resolves its intents to. It sits beside Kind, where the two
	// bytes share a word: a Command is carved for every proposal, and a
	// larger one fits fewer to a chunk.
	Status mvcc.TxnStatus

	Key mvcc.Key
	// Keys, on CmdResolveIntent, are the intents of Txn it resolves to
	// Status (at CommitTS), in request order: one command per range for
	// every intent a transaction's resolution sends that range.
	Keys  []mvcc.Key
	Value mvcc.Value
	Ts    hlc.Timestamp
	Txn   *mvcc.TxnMeta
	// Resolves, on CmdPut, is the finished transaction whose intent on Key
	// the write replaces: apply resolves it to Status (at CommitTS), the
	// outcome its record gave at evaluation, before it puts (0: none).
	Resolves mvcc.TxnID
	CommitTS hlc.Timestamp

	// ClosedTS is the closed-timestamp promise carried by this entry
	// (paper §5.1.1: "serialized into the Range's replication stream").
	ClosedTS hlc.Timestamp

	// Desc carries a new descriptor for CmdDescUpdate.
	Desc *RangeDescriptor
	// SplitDesc is the right-hand descriptor of a CmdSplit.
	SplitDesc *RangeDescriptor

	// LeaseEpoch, on CmdLeaseTransfer, is the liveness epoch the new lease
	// binds to — fixed at proposal time so that replaying the entry (e.g.
	// during crash recovery) rebinds the lease to the epoch it was granted
	// under, never to whatever epoch the applier currently observes.
	LeaseEpoch int64

	// SubsumeClosedTS, on CmdMerge, is the right-hand range's closed
	// timestamp at subsumption; the merged range's closed timestamp must
	// not regress below it or follower reads over the absorbed span could
	// miss the RHS's latest writes.
	SubsumeClosedTS hlc.Timestamp
}

// CommandKind discriminates Command.
type CommandKind int8

// Command kinds.
const (
	CmdPut CommandKind = iota
	CmdResolveIntent
	CmdTxnRecord // commit/abort record on the anchor range
	CmdDescUpdate
	CmdLeaseTransfer
	// CmdSplit divides a range: the left half shrinks to Desc, the right
	// half becomes the new range SplitDesc with copied data.
	CmdSplit
	// CmdSubsume freezes the right-hand range of a merge: once applied, a
	// replica rejects all evaluation with RangeKeyMismatchError so senders
	// re-route to the (widened) left-hand range.
	CmdSubsume
	// CmdMerge widens the left-hand range to Desc, absorbing the data of
	// the subsumed right-hand range SplitDesc.
	CmdMerge
	// NumCommandKinds is the number of command kinds.
	NumCommandKinds = iota
)

var commandKindNames = [NumCommandKinds]string{
	"put", "resolve_intent", "txn_record", "desc_update", "lease_transfer", "split", "subsume", "merge",
}

func (k CommandKind) String() string {
	if k >= 0 && int(k) < NumCommandKinds {
		return commandKindNames[k]
	}
	return fmt.Sprintf("CommandKind(%d)", int8(k))
}
