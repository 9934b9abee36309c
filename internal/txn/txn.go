// Package txn implements the gateway-side transaction coordinator: begin /
// read / write / commit with serializable isolation, pipelined writes
// proved in parallel with a STAGING commit record (§3.1), uncertainty-interval
// refreshes and restarts (paper §6.1), commit wait for future-time (global)
// transactions performed concurrently with lock release (§6.2), and the
// stale read-only transaction variants — exact and bounded staleness
// (§5.3).
package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
)

// Coordinator creates transactions on one gateway node.
type Coordinator struct {
	Store  *kv.Store
	Sender *kv.DistSender

	// SpannerCommitWait, when true, performs commit wait *before*
	// releasing locks (resolving intents), as Spanner does; the default
	// (false) releases locks concurrently with the wait, which is the
	// paper's key latency optimization (§6.2). Exposed for the ablation
	// benchmark.
	SpannerCommitWait bool

	// Stats.
	Begun, Committed, Aborted, Restarts int64
	CommitWaits                         int64
	CommitWaitTotal                     sim.Duration

	// backoff is the "txn/backoff" stream, which every coordinator shares.
	backoff *rand.Rand
	// anchors holds the copies of its transactions' anchor keys, each
	// written once.
	anchors slab.Of[byte]
	// The arrays its transactions' and probes' lists grow into past their
	// inline buffers (see grow).
	readLists    slab.Of[readSpan]
	writeLists   slab.Of[write]
	pendingLists slab.Of[bufferedPut]
	// A commit's proofs and resolutions, requests that point at no
	// transaction, each written once; the lists that carry them are built on
	// the stacks of the procs that send them. A carve pins key bytes, never a
	// transaction, and its chunks are short ones (slab.Short): a chunk keeps
	// alive the keys of every request in it.
	// What a transaction sends rarely — a refresh, a one-phase commit's read
	// spans past the first — is an array of its own instead: a chunk that
	// fills slowly would keep dead requests' keys, and the session chunks
	// they were carved from, alive for most of the run.
	proofReqs   slab.Short[kv.QueryIntentRequest]
	resolveReqs slab.Short[kv.ResolveIntentRequest]
	// provers and resolvers start the prove and resolve procs of its
	// transactions, each proc on the transaction or the resolution its start
	// queued.
	provers   sim.Runner[*Txn]
	resolvers sim.Runner[resolution]
	// committers start the procs of a one-phase commit of several
	// candidates, one per candidate (commitBody).
	committers sim.Runner[*commitRace]
}

// NewCoordinator returns a coordinator bound to a gateway store.
func NewCoordinator(store *kv.Store, sender *kv.DistSender) *Coordinator {
	c := &Coordinator{Store: store, Sender: sender, backoff: store.Sim.Stream("txn/backoff")}
	c.provers.Bind(proveBody)
	c.resolvers.Bind(resolveBody)
	c.committers.Bind(commitBody)
	return c
}

// tracer returns the gateway store's tracer (nil-safe).
func (c *Coordinator) tracer() *obs.Tracer {
	if c.Store == nil {
		return nil
	}
	return c.Store.Obs
}

// Txn is one transaction attempt. It is never restarted in place: on a
// retryable error Run aborts it and begins a fresh Txn (new ID, new
// timestamp).
//
// A key given to a transaction belongs to it. Every method that takes keys
// keeps them as given — as the reads a refresh re-validates, the writes an
// abort resolves, the requests a late evaluation may still read — so the
// caller must not change a key's bytes after the call.
//
// A transaction is one heap object in the common case: its record, its
// first pending write, its first read, its first point read and write
// requests and its commit's EndTxn request, prove state and one-phase read
// span are fields of its own.
type Txn struct {
	co *Coordinator
	// kv points at rec, the record every request of the transaction
	// carries.
	kv  *kv.Txn
	rec kv.Txn

	// AllowOnePC lets a transaction whose one write is still pending at
	// commit commit it with a one-phase commit at the leaseholder (no intent
	// ever becomes visible). The SQL layer sets it for auto-commit
	// statements.
	AllowOnePC bool

	// writes are the keys written so far, in order. A pipelined one (the
	// leaseholder replied after proposing, before replication) is proved by
	// Commit with a QueryIntent while the commit record stages; one that was
	// replicated before the reply is proven already (see replicateFirst).
	writes []write
	// reads are the spans read so far, for refreshes and the one-phase
	// commit. Together with writes and pending they are what the transaction
	// knows a key holds (see known). They start on readBuf: most
	// transactions read one key. Like writes and pending, they grow into
	// arrays carved from the coordinator's chunks (grow).
	reads   []readSpan
	readBuf [1]readSpan
	// pending are the writes not sent yet, in order, one entry per key. An
	// unconditional write waits here for the transaction's next batch — a
	// point read, a conditional write or the commit — which carries it.
	// A conditional write waits only as the one-phase-commit candidate.
	// They start on pendingBuf: most transactions write one key at a time.
	pending    []bufferedPut
	pendingBuf [1]bufferedPut
	// partial is the error of a write batch that half applied its statement
	// or lost an earlier statement's write (see landed): the transaction can
	// no longer commit.
	partial      error
	finished     bool
	committed1PC bool

	// The transaction's requests, each written once (slab.Of). A request
	// may still be evaluated after its attempt gave up — a replica cut off
	// mid-evaluation answers when the partition heals, and a DistSender
	// leaves such an envelope to the collector — so a struct put back and
	// refilled would have that late evaluation read, lock or write another
	// key. The first point read and the first write are carved from getBuf
	// and putBuf (slab.Of.Give). Every request points into the transaction
	// (its Txn is kv; the first ones are fields), so a request still
	// referenced keeps the whole transaction alive — its reads, writes and
	// chunks — and the chunks die with the transaction and its last
	// envelope. A Raft log, which keeps a write's command until compaction,
	// therefore copies the meta it needs (kv's Replica.command).
	gets   slab.Of[kv.GetRequest]
	puts   slab.Of[kv.PutRequest]
	getBuf [1]kv.GetRequest
	putBuf [1]kv.PutRequest

	// end is the one EndTxn request the transaction sends, from Commit or
	// from Abort, whichever finishes it.
	end kv.EndTxnRequest
	// The commit's prove proc: the proofs it sends, the span it joins, its
	// error and its end.
	proveReqs []kv.QueryIntentRequest
	proveSpan *obs.Span
	proveErr  error
	proveDone sim.Future[struct{}]
	// spanBuf holds a one-phase commit's read span when it read one key, as
	// an UPDATE does; more spans take an array of their own.
	spanBuf [1][2]mvcc.Key
}

// commitRace is a one-phase commit of several candidates, each sent from a
// proc of its own (commitBody): candidate i is reqs[i], answered in
// resps[i]. The procs outlive the commit when one candidate wins, so what
// they share with it is an object of its own, made for the race; its
// replies start on respBuf, which holds a three-region database's two
// remote partitions.
type commitRace struct {
	co      *Coordinator
	reqs    []kv.PutRequest
	resps   []kv.Response
	respBuf [2]kv.Response
	span    *obs.Span
	next    int // procs started so far
	pending int // candidates not answered yet
	won     int // the candidate that committed, -1: none yet
	// wake is set when a candidate committed or every one answered.
	wake sim.Future[struct{}]
}

// grow returns s with room for n more elements, so that a batch's keys
// grow a transaction's list once rather than once per doubling. A list that
// outgrows its array moves to one carved from c, whose chunks its
// coordinator owns; a chunk lives while any list carved from it does.
func grow[T any](c *slab.Of[T], s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	out := c.Take(max(len(s)+n, 2*cap(s)))
	copy(out, s)
	return out[:len(s)]
}

// batchScratch is the size of the request list, and of the response list, a
// batch builds on its sender's stack. The lists are per call, never the
// transaction's: a statement's first-hit probes read through one transaction
// at once, each on its own proc. The DistSender keeps only the requests the
// list points at, and writes the responses before it returns.
const batchScratch = 16

// commitScratch is the size of the response list the prove and resolve
// procs answer in on their stacks: one response per written key, which
// covers TPC-C's New-Order (up to 33 keys).
const commitScratch = 64

// scratchList returns n slots for a batch's requests or responses: buf's
// when they fit.
func scratchList[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// requestList returns the list that carries reqs in a batch: buf's slots
// when they fit.
func requestList[T any](buf []interface{}, reqs []T) []interface{} {
	list := scratchList(buf, len(reqs))
	for i := range reqs {
		list[i] = &reqs[i]
	}
	return list
}

// write is one key the transaction wrote.
type write struct {
	key   mvcc.Key
	value mvcc.Value // nil for a tombstone
	// proven: the leaseholder replied after the write had replicated, so the
	// commit need not prove it.
	proven bool
}

// bufferedPut is a write not sent yet, with its condition.
type bufferedPut struct {
	mvcc.KeyValue
	mustNotExist bool
	// replicate is decided when the write is sent: ask the leaseholder to
	// replicate it before replying instead of pipelining it.
	replicate bool
}

type readSpan struct {
	key   mvcc.Key
	end   mvcc.Key   // nil for point reads
	value mvcc.Value // what a point read returned
}

// Begin starts a transaction at the gateway's current HLC time.
func (c *Coordinator) Begin(priority int64) *Txn {
	c.Begun++
	t := &Txn{co: c, rec: kv.GatewayTxn(c.Store, nil, priority)}
	t.kv = &t.rec
	t.reads = t.readBuf[:0]
	t.pending = t.pendingBuf[:0]
	t.gets.Give(t.getBuf[:])
	t.puts.Give(t.putBuf[:])
	return t
}

// ID returns the transaction's ID.
func (t *Txn) ID() mvcc.TxnID { return t.kv.Meta.ID }

// ReadTimestamp returns the current read timestamp.
func (t *Txn) ReadTimestamp() hlc.Timestamp { return t.kv.ReadTimestamp }

// followerOK reports whether a fresh read of key may be served by any
// replica: true only for ranges with the leading closed-timestamp policy
// (GLOBAL tables), where present time is closed everywhere.
func (t *Txn) followerOK(key mvcc.Key) bool {
	desc, err := t.co.Sender.Catalog.Lookup(key)
	return err == nil && desc.Policy == kv.ClosedTSLead
}

// restartError converts a conflict into a retry decision for RunTxn.
func (t *Txn) restartError(reason string, minTS hlc.Timestamp) error {
	return &kv.RetryableTxnError{TxnID: t.kv.Meta.ID, Reason: reason, MinTimestamp: minTS}
}

// Get reads key at the transaction's read timestamp. The transaction keeps
// key, which must not change after.
func (t *Txn) Get(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	var v [1]mvcc.Value
	err := t.read(p, []mvcc.Key{key}, v[:], false, nil)
	return v[0], err
}

// GetForUpdate reads key and acquires an exclusive unreplicated lock on it
// (SELECT FOR UPDATE), serializing read-modify-write transactions without
// restarts. Locking reads always go to the leaseholder. A key the
// transaction already knows is not sent: the write that follows takes its
// lock when it rides the transaction's next batch. The transaction keeps
// key, which must not change after.
func (t *Txn) GetForUpdate(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	var v [1]mvcc.Value
	err := t.read(p, []mvcc.Key{key}, v[:], true, nil)
	return v[0], err
}

// GetParallel reads keys as one batch (one RPC per touched range) into out,
// which must be as long as keys: out[i] is keys[i]'s value. The transaction
// keeps the keys, which must not change after; the slice keys is the
// caller's again once the call returns.
func (t *Txn) GetParallel(p *sim.Proc, keys []mvcc.Key, out []mvcc.Value) error {
	return t.read(p, keys, out, false, nil)
}

// GetParallelForUpdate reads keys as one batch into out and locks each of
// them as GetForUpdate does. The transaction keeps the keys, as GetParallel
// does.
func (t *Txn) GetParallelForUpdate(p *sim.Proc, keys []mvcc.Key, out []mvcc.Value) error {
	return t.read(p, keys, out, true, nil)
}

// Probe is one batch of a first-hit read (§4.2): a statement sends one probe
// to every remote region at once and returns on the first that finds its
// rows, so a probe may land after its statement, and even its transaction,
// is done. A probe's read is therefore the point read without what would
// outlive the statement: it carries no pending write, records no read, moves
// no timestamp, and returns an uncertain value as an error rather than
// refreshing. The statement, on its own proc, passes each probe whose reply
// it used to Use.
//
// A Probe is a value its caller owns and starts in place (Start); its reads
// start on readBuf, so a probe of one key allocates nothing. It must not be
// copied once started.
type Probe struct {
	t         *Txn
	forUpdate bool
	reads     []readSpan
	readBuf   [1]readSpan
	err       error
}

// Start makes pr a new probe of t whose reads lock, as GetForUpdate does,
// when forUpdate is set.
func (pr *Probe) Start(t *Txn, forUpdate bool) {
	*pr = Probe{t: t, forUpdate: forUpdate}
	pr.reads = pr.readBuf[:0]
}

// GetParallel reads keys as one batch into out, as Txn.GetParallel does,
// within the limits of a probe. The probe keeps keys, which must not change
// after.
func (pr *Probe) GetParallel(p *sim.Proc, keys []mvcc.Key, out []mvcc.Value) error {
	return pr.t.read(p, keys, out, pr.forUpdate, pr)
}

// Use adopts a probe whose reply the statement used, on the statement's
// proc. The reads of a probe that answered become the transaction's, so
// that refreshes and the commit validate them. A probe that failed is
// digested as the point read digests its own failures: after an uncertain
// value Use refreshes the transaction past it and returns nil, and the
// caller may read again; any other error it returns.
func (pr *Probe) Use(p *sim.Proc) error {
	if pr.err != nil {
		return pr.t.handleReadErr(p, pr.err)
	}
	t := pr.t
	t.reads = append(grow(&t.co.readLists, t.reads, len(pr.reads)), pr.reads...)
	return nil
}

// read is the one point-read path. A key the transaction already knows (see
// known) reads what it knows and is neither sent nor recorded as read again.
// The other keys go out as one batch that also carries every pending write;
// a rider that fails fails the read. The values land in out, and after a
// successful uncertainty refresh the reads are re-sent at the new read
// timestamp. A probe's read (non-nil probe) carries no rider, never lets
// the leaseholder bump its timestamp, notes its reads in the probe instead
// of the transaction, and returns its first error.
func (t *Txn) read(p *sim.Proc, keys []mvcc.Key, out []mvcc.Value, forUpdate bool, probe *Probe) error {
	send, at := keys, []int(nil) // at[j] is send[j]'s index in keys; nil when send is keys
	if t.knowsAny(keys) {
		send = nil
		for i, key := range keys {
			if v, ok := t.known(key); ok {
				out[i] = v
				continue
			}
			send = append(send, key)
			at = append(at, i)
		}
		if len(send) == 0 {
			return nil
		}
	}
	var riders []bufferedPut
	if probe == nil {
		riders = t.pending
		t.pending = nil
	}
	for {
		// The leaseholder may ratchet the read timestamp past an uncertain
		// value only when no other read of the transaction could be
		// invalidated by the bump.
		canBump := probe == nil && len(t.reads) == 0 && len(send) == 1
		var buf [batchScratch]interface{}
		var respBuf [batchScratch]kv.Response
		reqs := scratchList(buf[:], len(riders)+len(send))
		t.putRequests(reqs, riders)
		getReqs := t.gets.Take(len(send))
		for j, key := range send {
			getReqs[j] = kv.GetRequest{
				Key:           key,
				Timestamp:     t.kv.ReadTimestamp,
				Txn:           t.kv,
				Uncertainty:   true,
				FollowerRead:  !forUpdate && t.followerOK(key),
				CanBumpReadTS: canBump,
				ForUpdate:     forUpdate,
			}
			reqs[len(riders)+j] = &getReqs[j]
		}
		resps := scratchList(respBuf[:], len(reqs))
		t.co.Sender.SendBatchInto(p, reqs, resps)
		if err := t.landed(p, riders, resps, 0); err != nil {
			return err
		}
		gets := resps[len(riders):]
		err := firstErr(gets)
		for j := range gets {
			resp := &gets[j]
			if resp.Err != nil {
				continue
			}
			if !resp.Get.BumpedTS.IsEmpty() && t.kv.ReadTimestamp.Less(resp.Get.BumpedTS) {
				t.adoptReadTS(resp.Get.BumpedTS)
			}
			if at != nil {
				out[at[j]] = resp.Get.Value
			} else {
				out[j] = resp.Get.Value
			}
		}
		if riders != nil {
			t.reuse(riders)
			riders = nil
		}
		if err == nil {
			reads := &t.reads
			if probe != nil {
				reads = &probe.reads
			}
			*reads = grow(&t.co.readLists, *reads, len(send))
			for j, key := range send {
				*reads = append(*reads, readSpan{key: key, value: gets[j].Get.Value})
			}
			return nil
		}
		if probe != nil {
			probe.err = err
			return err
		}
		if err := t.handleReadErr(p, err); err != nil {
			return err
		}
	}
}

// knowsAny reports whether the transaction knows what any of keys holds.
func (t *Txn) knowsAny(keys []mvcc.Key) bool {
	for _, key := range keys {
		if _, ok := t.known(key); ok {
			return true
		}
	}
	return false
}

// known returns what key holds for the transaction, without reading it, and
// whether the transaction knows: the value of its latest write of key,
// pending or accepted by the leaseholder (nil for a tombstone), else the
// value a point read of key returned. The read's value holds at the current
// read timestamp, because MVCC returns the same value for the same key at
// the same timestamp and the read timestamp moves only after a refresh has
// proved every read unchanged up to the new one. A write whose condition
// failed was never recorded, so it leaves no value behind.
func (t *Txn) known(key mvcc.Key) (mvcc.Value, bool) {
	if v, ok := t.wrote(key); ok {
		return v, true
	}
	for i := range t.reads {
		if r := &t.reads[i]; r.end == nil && bytes.Equal(r.key, key) {
			return r.value, true
		}
	}
	return nil, false
}

// Scan reads each span [spans[i][0], spans[i][1]) up to max rows into
// rows[i], every span in one batch (one RPC per touched range). It first
// sends the pending writes, so it sees the transaction's own. An uncertain
// value in any span refreshes the transaction and reads every span again, so
// all of them are read at one timestamp, and they are recorded as read only
// once all of them have been. The transaction keeps the spans' keys, which
// must not change after; the slice spans is the caller's again on return.
func (t *Txn) Scan(p *sim.Proc, spans [][2]mvcc.Key, max int) ([][]mvcc.KeyValue, error) {
	if err := t.sendWrites(p, 0); err != nil {
		return nil, err
	}
	var buf [batchScratch]interface{}
	var respBuf [batchScratch]kv.Response
	resps := scratchList(respBuf[:], len(spans))
	for {
		scans := make([]kv.ScanRequest, len(spans)) // an attempt's own: a late evaluation may read them
		for i, span := range spans {
			scans[i] = kv.ScanRequest{
				StartKey: span[0], EndKey: span[1], MaxRows: max,
				Timestamp:    t.kv.ReadTimestamp,
				Txn:          t.kv,
				Uncertainty:  true,
				FollowerRead: t.followerOK(span[0]),
			}
		}
		t.co.Sender.SendBatchInto(p, requestList(buf[:], scans), resps)
		err := firstErr(resps)
		if err == nil {
			rows := make([][]mvcc.KeyValue, len(spans))
			t.reads = grow(&t.co.readLists, t.reads, len(spans))
			for i, span := range spans {
				rows[i] = resps[i].Scan.Rows
				t.reads = append(t.reads, readSpan{key: span[0], end: span[1]})
			}
			return rows, nil
		}
		if err := t.handleReadErr(p, err); err != nil {
			return nil, err
		}
	}
}

// firstErr returns the first error of resps, or nil.
func firstErr(resps []kv.Response) error {
	for i := range resps {
		if resps[i].Err != nil {
			return resps[i].Err
		}
	}
	return nil
}

// handleReadErr digests a read failure. An uncertainty error triggers a
// distributed refresh: on success it returns nil and the caller retries the
// read; on failure it returns a restart. Every other error propagates.
func (t *Txn) handleReadErr(p *sim.Proc, err error) error {
	var ue *mvcc.UncertaintyError
	if !errors.As(err, &ue) {
		return err
	}
	newTS := ue.ValueTimestamp
	if !t.refreshReads(p, newTS) {
		t.co.Restarts++
		return t.restartError("uncertainty refresh failed", newTS)
	}
	t.adoptReadTS(newTS)
	return nil
}

// adoptReadTS ratchets the read timestamp (and the provisional commit
// timestamp, which must always be >= the read timestamp).
func (t *Txn) adoptReadTS(ts hlc.Timestamp) {
	if t.kv.ReadTimestamp.Less(ts) {
		t.kv.ReadTimestamp = ts
	}
	if t.kv.Meta.WriteTimestamp.Less(ts) {
		t.kv.Meta.WriteTimestamp = ts
	}
}

// refreshReads verifies every prior read remains valid at newTS (paper
// §6.1: "checking whether the values previously read by the transaction
// remain unchanged at the newer timestamp"). Every span refreshes in one
// batch, one RPC per touched range; reads of GLOBAL tables refresh at the
// nearest replica when possible.
func (t *Txn) refreshReads(p *sim.Proc, newTS hlc.Timestamp) bool {
	if len(t.reads) == 0 {
		return true
	}
	sp, done := t.co.tracer().StartIn(p, "txn.refresh")
	defer done()
	sp.SetTagInt("spans", int64(len(t.reads)))
	var buf [batchScratch]interface{}
	var respBuf [batchScratch]kv.Response
	resps := scratchList(respBuf[:], len(t.reads))
	refreshes := make([]kv.RefreshRequest, len(t.reads)) // one array, not one request per span
	for i, span := range t.reads {
		refreshes[i] = kv.RefreshRequest{
			Key: span.key, EndKey: span.end,
			FromTS: t.kv.ReadTimestamp, ToTS: newTS,
			TxnID:        t.kv.Meta.ID,
			FollowerRead: t.followerOK(span.key),
		}
	}
	t.co.Sender.SendBatchInto(p, requestList(buf[:], refreshes), resps)
	for i := range resps {
		if resps[i].Err != nil || !resps[i].Refresh.Success {
			return false
		}
	}
	return true
}

// Put writes key=value. The write is sent with the transaction's next
// batch. The transaction keeps key and value, which must not change after.
func (t *Txn) Put(p *sim.Proc, key mvcc.Key, value mvcc.Value) error {
	return t.write(p, []mvcc.KeyValue{{Key: key, Value: value}}, nil)
}

// PutParallel writes kvs as one batch; it models CockroachDB's
// batched/pipelined writes so that multi-key statements pay the max, not the
// sum, of per-range latencies. Unconditional writes are sent with the
// transaction's next batch.
//
// mustNotExist, when non-nil, runs parallel to kvs and makes the marked
// writes conditional (an INSERT's uniqueness check on the keys it writes):
// such a write fails with *kv.ConditionFailedError if its key holds a live
// value — one this transaction wrote included, which is rejected here
// before anything is sent. A call with a conditional write sends its writes,
// and every pending one, at once.
//
// Every write the leaseholders accepted is recorded, even when another one
// failed, so that Abort resolves all the intents the batch laid; the error
// returned is the batch's first failure. The transaction keeps every key and
// value of kvs, which must not change after; the slice kvs itself is the
// caller's again once the call returns.
func (t *Txn) PutParallel(p *sim.Proc, kvs []mvcc.KeyValue, mustNotExist []bool) error {
	return t.write(p, kvs, mustNotExist)
}

// write is the one write path. Every write joins the pending writes, which
// ride the transaction's next batch. A conditional write does not wait: it
// sends the pending writes with it, so that a failed condition is reported
// on the statement that caused it. The one exception is a conditional sole
// write of a one-phase-commit-eligible transaction, which the commit sends
// together with the commit itself (CockroachDB's 1PC).
func (t *Txn) write(p *sim.Proc, kvs []mvcc.KeyValue, mustNotExist []bool) error {
	if len(kvs) == 0 {
		return nil
	}
	for i := range mustNotExist {
		if mustNotExist[i] && t.wroteLive(kvs[i].Key) {
			return &kv.ConditionFailedError{Key: kvs[i].Key}
		}
	}
	if len(t.writes) == 0 && len(t.pending) == 0 {
		// The first write anchors the transaction record's range. The
		// record's meta outlives the transaction in every replica's
		// intents and logged commands, so it keeps a copy of the key,
		// carved from the coordinator's chunks: a copy pins one of those,
		// not the chunk the caller carved the key from.
		t.kv.Meta.Key = slab.Copy(&t.co.anchors, kvs[0].Key)
	}
	earlier := len(t.pending)
	rewrote := false // an earlier statement's pending write now holds one of ours
	t.pending = grow(&t.co.pendingLists, t.pending, len(kvs))
	for i, w := range kvs {
		if t.buffer(w, mustNotExist != nil && mustNotExist[i]) < earlier {
			rewrote = true
		}
	}
	if t.onePC() {
		return nil
	}
	for _, w := range t.pending {
		if w.mustNotExist {
			own := len(t.pending) - earlier
			if rewrote {
				own = 0
			}
			return t.sendWrites(p, own)
		}
	}
	return nil
}

// buffer adds a write to the pending writes and returns its entry's index.
// A key already pending keeps its one entry, which takes the new value and
// keeps the first write's condition. The entry holds the caller's key.
func (t *Txn) buffer(w mvcc.KeyValue, mustNotExist bool) int {
	if i := t.pendingIndex(w.Key); i >= 0 {
		t.pending[i].Value = w.Value
		return i
	}
	t.pending = append(grow(&t.co.pendingLists, t.pending, 1), bufferedPut{
		KeyValue:     mvcc.KeyValue{Key: w.Key, Value: w.Value},
		mustNotExist: mustNotExist,
	})
	return len(t.pending) - 1
}

// reuse gives the pending writes the array of sent, writes a batch carried
// and landed has recorded: the requests hold their own copies of each key and
// value, so nothing reads the array again.
func (t *Txn) reuse(sent []bufferedPut) {
	if len(t.pending) == 0 && !t.finished {
		clear(sent)
		t.pending = sent[:0]
	}
}

// pendingIndex returns the index of key's pending write, or -1.
func (t *Txn) pendingIndex(key mvcc.Key) int {
	for i := range t.pending {
		if bytes.Equal(t.pending[i].Key, key) {
			return i
		}
	}
	return -1
}

// onePC reports whether the transaction may still commit in one phase: it
// is allowed to, has sent no write, and has exactly one pending.
func (t *Txn) onePC() bool {
	return t.AllowOnePC && len(t.writes) == 0 && len(t.pending) == 1
}

// sendWrites sends every pending write as intents, one RPC per touched
// range. The last own of them are the writes of the statement sending them
// (see landed).
func (t *Txn) sendWrites(p *sim.Proc, own int) error {
	if len(t.pending) == 0 {
		return nil
	}
	sent := t.pending
	t.pending = nil
	var buf [batchScratch]interface{}
	var respBuf [batchScratch]kv.Response
	reqs, resps := scratchList(buf[:], len(sent)), scratchList(respBuf[:], len(sent))
	t.putRequests(reqs, sent)
	t.co.Sender.SendBatchInto(p, reqs, resps)
	err := t.landed(p, sent, resps, own)
	t.reuse(sent)
	return err
}

// putRequests fills the head of reqs with puts of ws, deciding for each
// whether it replicates first (see replicateFirst) or is pipelined.
func (t *Txn) putRequests(reqs []interface{}, ws []bufferedPut) {
	if len(ws) == 0 {
		return
	}
	toRecord, _, recordOK := t.co.Sender.WriteRTTs(t.kv.Meta.Key)
	puts := t.puts.Take(len(ws))
	for i := range ws {
		ws[i].replicate = recordOK && t.replicateFirst(ws[i].Key, toRecord)
		puts[i] = kv.PutRequest{
			Key: ws[i].Key, Value: ws[i].Value, Timestamp: t.kv.Meta.WriteTimestamp, Txn: t.kv,
			Pipelined: !ws[i].replicate, MustNotExist: ws[i].mustNotExist,
		}
		reqs[i] = &puts[i]
	}
}

// replicateFirst reports whether a write of key costs the transaction less
// replicated before the leaseholder replies than pipelined and proved at
// commit. The proof is a round trip to the key's leaseholder that runs beside
// the STAGING write to the record's leaseholder, so it costs the commit only
// what it outlasts that round trip by; replication costs the statement the
// leaseholder's quorum round trip. toRecord is the gateway's round trip to the
// record's leaseholder. A local write, and one no farther away than the
// record — the record's own range included — stays pipelined.
func (t *Txn) replicateFirst(key mvcc.Key, toRecord sim.Duration) bool {
	toLeaseholder, quorum, ok := t.co.Sender.WriteRTTs(key)
	return ok && quorum < toLeaseholder-toRecord
}

// landed records every write of sent that its response (resps[i] answers
// sent[i]) accepted, so that an abort resolves them all, and returns the
// batch's first failure. The last own writes of sent belong to the
// statement that sent the batch; the others rode along from earlier
// statements, which have already succeeded. A failed batch leaves the
// transaction able to commit only when exactly the statement's own writes
// failed, each refused outright — the statement then failed whole. Any other
// failure half applies the statement, loses an earlier statement's write or
// may yet apply (see mayHaveLanded), so the transaction can no longer commit;
// a write that may yet apply is recorded so that the abort resolves it. A
// failed condition is vetted by duplicateOrRestart.
func (t *Txn) landed(p *sim.Proc, sent []bufferedPut, resps []kv.Response, own int) error {
	var firstErr error
	clean := own > 0
	t.writes = grow(&t.co.writeLists, t.writes, len(sent))
	for i := range sent {
		failed := resps[i].Err != nil
		if failed != (i >= len(sent)-own) {
			clean = false
		}
		if failed {
			if firstErr == nil {
				firstErr = resps[i].Err
			}
			if mayHaveLanded(resps[i].Err) {
				clean = false
				t.writes = append(grow(&t.co.writeLists, t.writes, 1), write{key: sent[i].Key, value: sent[i].Value})
			}
			continue
		}
		t.recordWrite(sent[i], resps[i].Put.WriteTimestamp)
	}
	if firstErr != nil && !clean && t.partial == nil {
		t.partial = firstErr
	}
	return t.duplicateOrRestart(p, firstErr)
}

// mayHaveLanded reports whether a write that failed with err may still
// apply. Only a refusal on evaluation — a failed condition, a conflicting
// intent, an aborted or restarting transaction — says that nothing was
// proposed. A send that gave up may have lost the reply to an attempt that
// landed.
func mayHaveLanded(err error) bool {
	var cf *kv.ConditionFailedError
	var wi *mvcc.WriteIntentError
	var ta *kv.TxnAbortedError
	var rt *kv.RetryableTxnError
	return !errors.As(err, &cf) && !errors.As(err, &wi) && !errors.As(err, &ta) && !errors.As(err, &rt)
}

// duplicateOrRestart vets err when it is a failed INSERT condition. A live
// value newer than the read timestamp is a duplicate only at a snapshot
// where the transaction's reads still hold: say the transaction read a
// counter, and another one has since moved the counter past the key and
// written it. The reads are refreshed up to the value; if they are
// unchanged, the read timestamp moves there and the duplicate stands,
// otherwise a retry would not meet it and the transaction restarts.
func (t *Txn) duplicateOrRestart(p *sim.Proc, err error) error {
	if err == nil { // the errors.As target escapes: keep it off the success path
		return nil
	}
	var cf *kv.ConditionFailedError
	if !errors.As(err, &cf) || !t.kv.ReadTimestamp.Less(cf.Existing) {
		return err
	}
	if !t.refreshReads(p, cf.Existing) {
		t.co.Restarts++
		return t.restartError("duplicate above the read timestamp, refresh failed", cf.Existing)
	}
	t.adoptReadTS(cf.Existing)
	return err
}

// recordWrite notes a write the leaseholder accepted at ts. The write's key
// is the transaction's own copy.
func (t *Txn) recordWrite(w bufferedPut, ts hlc.Timestamp) {
	if t.kv.Meta.WriteTimestamp.Less(ts) {
		t.kv.Meta.WriteTimestamp = ts
	}
	t.writes = append(grow(&t.co.writeLists, t.writes, 1), write{key: w.Key, value: w.Value, proven: w.replicate})
}

// wrote returns the value of the transaction's latest write of key, pending
// or sent (nil for a tombstone), and whether it wrote key at all.
func (t *Txn) wrote(key mvcc.Key) (mvcc.Value, bool) {
	if i := t.pendingIndex(key); i >= 0 {
		return t.pending[i].Value, true
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		if bytes.Equal(t.writes[i].key, key) {
			return t.writes[i].value, true
		}
	}
	return nil, false
}

// wroteLive reports whether the transaction's latest write of key, pending
// or sent, left a live value.
func (t *Txn) wroteLive(key mvcc.Key) bool {
	v, _ := t.wrote(key)
	return v != nil
}

// Commit finalizes the transaction. For read-write transactions this
// writes the commit record through consensus, then resolves intents and
// performs commit wait concurrently (§6.2); for read-only transactions it
// only commit-waits if the read timestamp leads the local clock.
func (t *Txn) Commit(p *sim.Proc) error {
	_, done := t.co.tracer().StartIn(p, "txn.commit")
	defer done()
	if t.finished {
		if t.committed1PC {
			return nil
		}
		return fmt.Errorf("txn: already finished")
	}
	if t.partial != nil {
		err := fmt.Errorf("txn: cannot commit after a partly applied write: %w", t.partial)
		t.Abort(p)
		return err
	}
	if t.onePC() {
		b := t.pending[0]
		req := t.puts.Take(1)
		req[0] = kv.PutRequest{Key: b.Key, Value: b.Value, MustNotExist: b.mustNotExist}
		won, err := t.commit1PC(p, req, nil)
		if err != nil {
			return err
		}
		if won >= 0 {
			return nil
		}
		// Declined: fall back to the two-phase path.
	}
	// The writes still pending are laid before the commit record stages.
	if err := t.sendWrites(p, 0); err != nil {
		return err
	}
	t.finished = true

	if len(t.writes) == 0 {
		// Read-only: paper §6.2 — a reader that observed a future-time
		// value commit waits until the value is within every node's
		// uncertainty window.
		t.commitWait(p, t.kv.ReadTimestamp)
		t.co.Store.Registry.Abort(t.kv.Meta.ID) // record is vestigial
		t.co.Store.Registry.GC(t.kv.Meta.ID)
		t.co.Committed++
		return nil
	}

	commitTS := t.kv.Meta.WriteTimestamp
	if t.kv.ReadTimestamp.Less(commitTS) {
		// Reads must be valid at the commit timestamp (paper §5.1.1:
		// long-running transactions Read Refresh on commit). This must
		// precede the commit record: a failed refresh means restart.
		if !t.refreshReads(p, commitTS) {
			t.co.Restarts++
			t.co.Store.Registry.Abort(t.kv.Meta.ID)
			t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
			return t.restartError("commit refresh failed", commitTS)
		}
		t.kv.ReadTimestamp = commitTS
	}

	// Parallel commit (CockroachDB's parallel commits): write the commit
	// record in STAGING state concurrently with proving the pipelined
	// writes (QueryIntent barrier), then finalize. This keeps a remote
	// single-statement write at two WAN round trips instead of three. A
	// write that replicated before its reply needs no proof; when no write
	// is left to prove, the STAGING write is the whole phase.
	if t.proveReqs = t.proofs(); len(t.proveReqs) > 0 {
		t.proveSpan = obs.ProcSpan(p)
		t.co.provers.Go(t.co.Store.Sim, "txn/prove", t)
	}

	// The staging phase: the STAGING commit record write overlapped with
	// the QueryIntent proofs.
	_, stageDone := t.co.tracer().StartIn(p, "txn.stage")
	t.end = kv.EndTxnRequest{Txn: t.kv, Commit: true, CommitTS: commitTS}
	resp := t.co.Sender.Send(p, &t.end)
	if len(t.proveReqs) > 0 {
		t.proveDone.Wait(p)
	}
	stageDone()
	if resp.Err != nil {
		var ta *kv.TxnAbortedError
		if errors.As(resp.Err, &ta) {
			t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
			t.co.Aborted++
			return resp.Err
		}
		// Transport or consensus failure after EndTxn was sent: the record
		// may be untouched, staged, or already committed (the registry
		// serialized which). It must not be abandoned in a pending state —
		// pushers refuse to abort staging records, so a later writer on our
		// keys would wait forever. Resolve it now, one way or the other; the
		// caller still sees the (ambiguous) error either way.
		reg := t.co.Store.Registry
		reg.AbortStaged(t.kv.Meta.ID)
		if st, cts := reg.Status(t.kv.Meta.ID); st == mvcc.Committed {
			t.asyncResolve(p, mvcc.Committed, cts)
			t.co.Committed++
		} else {
			reg.Abort(t.kv.Meta.ID)
			t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
			t.co.Aborted++
		}
		return resp.Err
	}
	if t.proveErr != nil {
		// A pipelined write was lost: roll the staged record back
		// and retry the transaction.
		t.co.Restarts++
		t.co.Store.Registry.AbortStaged(t.kv.Meta.ID)
		t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
		return t.proveErr
	}
	if err := t.co.Store.Registry.FinalizeStaged(t.kv.Meta.ID); err != nil {
		return err
	}

	if t.co.SpannerCommitWait {
		// Ablation: hold locks through the wait, then release.
		t.commitWait(p, commitTS)
		t.asyncResolve(p, mvcc.Committed, commitTS)
	} else {
		// Paper §6.2: "CRDB performs this wait concurrently with
		// releasing locks."
		t.asyncResolve(p, mvcc.Committed, commitTS)
		t.commitWait(p, commitTS)
	}
	t.co.Committed++
	return nil
}

// proofs returns a QueryIntent request for every write not proven yet: every
// pipelined one. The decision was recorded when each write was sent, and is
// not taken again here: the lease may have moved since. The requests are
// carved from the coordinator's chunks.
func (t *Txn) proofs() []kv.QueryIntentRequest {
	n := 0
	for _, w := range t.writes {
		if !w.proven {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	qs := t.co.proofReqs.Take(n)[:0]
	for _, w := range t.writes {
		if !w.proven {
			qs = append(qs, kv.QueryIntentRequest{Key: w.key, TxnID: t.kv.Meta.ID, Epoch: t.kv.Meta.Epoch})
		}
	}
	return qs
}

// proveBody is the body of every prove proc: it proves the writes of the
// transaction its start queued, then ends the proc's part of the staging
// phase.
func proveBody(wp *sim.Proc, t *Txn) {
	obs.SetProcSpan(wp, t.proveSpan)
	t.proveErr = t.proveWrites(wp, t.proveReqs)
	t.proveDone.Set(struct{}{})
}

// proveWrites sends the proofs in parallel and fails if any intent is
// missing.
func (t *Txn) proveWrites(p *sim.Proc, qs []kv.QueryIntentRequest) error {
	sp, done := t.co.tracer().StartIn(p, "txn.prove")
	defer done()
	sp.SetTagInt("writes", int64(len(qs)))
	var buf [commitScratch]interface{}
	var respBuf [commitScratch]kv.Response
	resps := scratchList(respBuf[:], len(qs))
	t.co.Sender.SendBatchInto(p, requestList(buf[:], qs), resps)
	if err := firstErr(resps); err != nil {
		return err
	}
	for i := range resps {
		if !resps[i].QueryIntent.Found {
			return t.restartError("pipelined write lost", t.kv.Meta.WriteTimestamp)
		}
	}
	return nil
}

// The outcomes of a one-phase commit that wrote nothing (commit1PC): a
// leaseholder declined, or no MustExist candidate's key holds a live value.
const (
	declined1PC = -1
	absent1PC   = -2
)

// CommitWhereLive commits the transaction as one conditional write, in one
// phase: cands are the places the one row the caller writes may live, and
// the write of cands[i] lands only if its key holds a live value no newer
// than the read timestamp (kv.PutRequest.MustExist). missed are keys the
// caller found empty before, which the commit's reads include. It returns
// the index of the candidate that committed, as Commit would have, or -1
// with declined unset when no candidate's key holds a live value: nothing
// was written and the transaction is open, with nothing to commit. Declined
// means nothing was written either, but the transaction could not commit so:
// it has written before, it may not commit in one phase, or a leaseholder
// could not commit at the read timestamp. The caller then reads the row and
// writes it as any statement does. The transaction keeps the keys and
// values, which must not change after; the slices are the caller's again.
func (t *Txn) CommitWhereLive(p *sim.Proc, cands []mvcc.KeyValue, missed []mvcc.Key) (won int, declined bool, err error) {
	if !t.AllowOnePC || len(t.writes) > 0 || len(t.pending) > 0 || t.finished {
		return -1, true, nil
	}
	_, done := t.co.tracer().StartIn(p, "txn.commit")
	defer done()
	reqs := t.puts.Take(len(cands))
	for i, c := range cands {
		reqs[i] = kv.PutRequest{Key: c.Key, Value: c.Value, MustExist: true}
	}
	switch won, err = t.commit1PC(p, reqs, missed); won {
	case declined1PC:
		return -1, true, err
	case absent1PC:
		return -1, false, err
	}
	return won, false, err
}

// commit1PC commits the transaction in one phase with one write of reqs, the
// candidates, each carrying its key, value and condition, and returns the
// index of the one that committed. One candidate is the transaction's one
// pending write, or the one place a MustExist write's row may live. Several
// are the places it may live: each goes out at once from a proc of its own,
// and the commit returns on the first that commits. Every request carries the
// transaction's reads, the missed keys and the other candidates' keys as its
// read spans, so a leaseholder that must move the commit above the read
// timestamp refreshes them server-side, and declines when one lies on
// another range. When nothing committed it returns declined1PC (a
// leaseholder declined; a pending write stays pending) or absent1PC (every
// candidate's MustExist found no live value).
func (t *Txn) commit1PC(p *sim.Proc, reqs []kv.PutRequest, missed []mvcc.Key) (int, error) {
	n := len(t.reads) + len(missed) + len(reqs) - 1
	spans := scratchList(t.spanBuf[:], n*len(reqs))
	for i := range reqs {
		mine := spans[i*n : (i+1)*n : (i+1)*n]
		k := 0
		for _, rs := range t.reads {
			mine[k] = [2]mvcc.Key{rs.key, rs.end}
			k++
		}
		for _, key := range missed {
			mine[k] = [2]mvcc.Key{key, nil}
			k++
		}
		for j := range reqs {
			if j != i {
				mine[k] = [2]mvcc.Key{reqs[j].Key, nil}
				k++
			}
		}
		reqs[i].Timestamp = t.kv.Meta.WriteTimestamp
		reqs[i].Txn = t.kv
		reqs[i].Commit1PC = true
		reqs[i].ReadSpans = mine
		reqs[i].ReadFromTS = t.kv.ReadTimestamp
	}
	var resp kv.Response
	won := 0
	if len(reqs) == 1 {
		resp = t.co.Sender.Send(p, &reqs[0])
	} else {
		won, resp = t.race1PC(p, reqs)
	}
	if resp.Err != nil {
		var ta *kv.TxnAbortedError
		if errors.As(resp.Err, &ta) {
			t.finished = true
			t.pending = nil
			t.co.Store.Registry.GC(t.kv.Meta.ID)
			t.co.Aborted++
		}
		return declined1PC, t.duplicateOrRestart(p, resp.Err)
	}
	switch {
	case resp.Put.Declined1PC:
		return declined1PC, nil
	case resp.Put.Absent:
		return absent1PC, nil
	}
	// The write landed committed, so no intent of the transaction exists,
	// and only the send that returned re-sends a one-phase commit: nothing
	// reads the record again. A losing candidate that lands later finds it
	// gone, which reads as aborted, and lays nothing.
	t.co.Store.Registry.GC(t.kv.Meta.ID)
	t.finished = true
	t.committed1PC = true
	t.pending = nil
	t.co.Committed++
	t.commitWait(p, resp.Put.WriteTimestamp)
	return won, nil
}

// race1PC sends every candidate of a one-phase commit from a proc of its own
// and returns the first that committed, with its reply. When none did, it
// returns once all answered, with the reply that speaks for them all: the
// first error, else a decline, else an absence.
func (t *Txn) race1PC(p *sim.Proc, reqs []kv.PutRequest) (int, kv.Response) {
	r := &commitRace{co: t.co, reqs: reqs, span: obs.ProcSpan(p), pending: len(reqs), won: -1}
	r.resps = scratchList(r.respBuf[:], len(reqs))
	for range reqs {
		t.co.committers.Go(t.co.Store.Sim, "txn/commit1pc", r)
	}
	r.wake.Wait(p)
	if r.won >= 0 {
		return r.won, r.resps[r.won]
	}
	out := r.resps[0]
	for _, resp := range r.resps {
		switch {
		case out.Err != nil:
		case resp.Err != nil, resp.Put.Declined1PC:
			out = resp
		}
	}
	return -1, out
}

// commitBody is the body of every one-phase candidate's proc: it sends the
// next candidate of its race, and wakes the commit once a candidate
// committed or every one answered.
func commitBody(wp *sim.Proc, r *commitRace) {
	i := r.next
	r.next++
	obs.SetProcSpan(wp, r.span)
	r.resps[i] = r.co.Sender.Send(wp, &r.reqs[i])
	r.pending--
	if resp := &r.resps[i]; r.won < 0 && resp.Err == nil && resp.Put.Committed {
		r.won = i
	}
	if (r.won >= 0 || r.pending == 0) && !r.wake.Done() {
		r.wake.Set(struct{}{})
	}
}

// commitWait parks p until the gateway's HLC passes ts.
func (t *Txn) commitWait(p *sim.Proc, ts hlc.Timestamp) {
	d := t.co.Store.Clock.NowAfter(ts)
	if d > 0 {
		sp := t.co.tracer().StartChild("txn.commitwait", obs.ProcSpan(p))
		sp.SetTagDuration("wait", d)
		sp.SetTagDuration("max_offset", t.co.Store.Clock.MaxOffset())
		t.co.CommitWaits++
		t.co.CommitWaitTotal += d
		p.Sleep(d)
		sp.Finish()
	}
}

// asyncResolve spawns intent resolution for every written key as one batch
// (one RPC per touched range). The resolution joins the transaction's trace
// (under a "txn.resolve" span) but runs concurrently with — never on — the
// caller's latency path. The requests are carved from the coordinator's
// chunks.
func (t *Txn) asyncResolve(p *sim.Proc, status mvcc.TxnStatus, commitTS hlc.Timestamp) {
	if len(t.writes) == 0 {
		return
	}
	id := t.kv.Meta.ID
	rs := t.co.resolveReqs.Take(len(t.writes))
	for i, w := range t.writes {
		rs[i] = kv.ResolveIntentRequest{
			Key: w.key, TxnID: id, Status: status, CommitTS: commitTS,
		}
	}
	t.co.resolvers.Go(t.co.Store.Sim, "txn/resolve", resolution{co: t.co, id: id, reqs: rs, parent: obs.ProcSpan(p)})
}

// resolution is what a resolve proc sends: one transaction's resolutions,
// through its coordinator, under the span they join.
type resolution struct {
	co     *Coordinator
	id     mvcc.TxnID
	reqs   []kv.ResolveIntentRequest
	parent *obs.Span
}

// resolveBody is the body of every resolve proc: it sends the resolution
// its start queued. Once every reply succeeded, no intent of the
// transaction is left to read (DESIGN §11), so its record is dropped; after
// a failed reply it stays, for readers to resolve what is left.
func resolveBody(rp *sim.Proc, r resolution) {
	c := r.co
	sp := c.tracer().StartChild("txn.resolve", r.parent)
	obs.SetProcSpan(rp, sp)
	var buf [commitScratch]interface{}
	var respBuf [commitScratch]kv.Response
	resps := scratchList(respBuf[:], len(r.reqs))
	c.Sender.SendBatchInto(rp, requestList(buf[:], r.reqs), resps)
	sp.Finish()
	if firstErr(resps) == nil {
		c.Store.Registry.GC(r.id)
	}
}

// Abort rolls the transaction back, resolving its intents as aborted. Its
// record goes once they are resolved, or at once if it wrote nothing.
func (t *Txn) Abort(p *sim.Proc) {
	if t.finished {
		return
	}
	t.finished = true
	t.pending = nil
	t.co.Store.Registry.Abort(t.kv.Meta.ID)
	if len(t.writes) > 0 {
		t.end = kv.EndTxnRequest{Txn: t.kv, Commit: false}
		t.co.Sender.Send(p, &t.end)
		t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
	} else {
		// No intent to resolve: a missing record reads as aborted.
		t.co.Store.Registry.GC(t.kv.Meta.ID)
	}
	t.co.Aborted++
}

// maxTxnAttempts bounds automatic retries in Run.
const maxTxnAttempts = 32

// Run executes fn transactionally, retrying on aborts and retryable errors
// with a fresh transaction each attempt (new ID, new timestamp).
func (c *Coordinator) Run(p *sim.Proc, fn func(t *Txn) error) error {
	var lastErr error
	for attempt := 0; attempt < maxTxnAttempts; attempt++ {
		t := c.Begin(0)
		err := fn(t)
		if err == nil {
			err = t.Commit(p)
		}
		if err == nil {
			return nil
		}
		t.Abort(p)
		lastErr = err
		var ta *kv.TxnAbortedError
		var rt *kv.RetryableTxnError
		if errors.As(err, &ta) || errors.As(err, &rt) {
			// Brief deterministic backoff to let the winner finish.
			p.Sleep(sim.Duration(1+c.backoff.Intn(4)) * sim.Millisecond)
			continue
		}
		return err
	}
	return fmt.Errorf("txn: gave up after %d attempts: %w", maxTxnAttempts, lastErr)
}

// --- Stale read-only transactions (paper §5.3) ---

// ExactStaleRead performs an AS OF SYSTEM TIME read at exactly ts,
// preferring the nearest replica. Stale reads have no uncertainty interval.
func (c *Coordinator) ExactStaleRead(p *sim.Proc, key mvcc.Key, ts hlc.Timestamp) (mvcc.Value, simnet.NodeID, error) {
	resp := c.Sender.Send(p, c.staleGet(key, ts))
	if resp.Err != nil {
		return nil, 0, resp.Err
	}
	return resp.Get.Value, resp.Get.ServedBy, nil
}

// ExactStaleReads reads keys at exactly ts as one batch into out, which must
// be as long as keys: one RPC per touched range, each to its nearest replica.
// out[i] is keys[i]'s value.
func (c *Coordinator) ExactStaleReads(p *sim.Proc, keys []mvcc.Key, out []mvcc.Value, ts hlc.Timestamp) error {
	reqs := make([]interface{}, len(keys))
	for i, key := range keys {
		reqs[i] = c.staleGet(key, ts)
	}
	for i, resp := range c.Sender.SendBatch(p, reqs) {
		if resp.Err != nil {
			return resp.Err
		}
		out[i] = resp.Get.Value
	}
	return nil
}

// staleGet is the follower read of key at exactly ts that every stale point
// read sends.
func (c *Coordinator) staleGet(key mvcc.Key, ts hlc.Timestamp) *kv.GetRequest {
	return &kv.GetRequest{
		Key: key, Timestamp: ts, FollowerRead: true, Uncertainty: false,
	}
}

// StaleScan performs an exact-staleness scan of spans at ts, as Txn.Scan
// does, from the nearest replicas of the touched ranges.
func (c *Coordinator) StaleScan(p *sim.Proc, spans [][2]mvcc.Key, max int, ts hlc.Timestamp) ([][]mvcc.KeyValue, error) {
	reqs := make([]interface{}, len(spans))
	for i, span := range spans {
		reqs[i] = &kv.ScanRequest{
			StartKey: span[0], EndKey: span[1], MaxRows: max,
			Timestamp: ts, FollowerRead: true, Uncertainty: false,
		}
	}
	rows := make([][]mvcc.KeyValue, len(spans))
	for i, resp := range c.Sender.SendBatch(p, reqs) {
		if resp.Err != nil {
			return nil, resp.Err
		}
		rows[i] = resp.Scan.Rows
	}
	return rows, nil
}

// BoundedStalenessTimestamp picks the timestamp a bounded-staleness read of
// spans is served at (§5.3.2): it negotiates the highest timestamp the
// nearest replica of every touched range can serve locally, clamped to the
// gateway's present time. When that is older than the bound minTS, it
// returns minTS itself, which a replica that has not closed it redirects to
// the leaseholder.
func (c *Coordinator) BoundedStalenessTimestamp(p *sim.Proc, spans [][2]mvcc.Key, minTS hlc.Timestamp) (hlc.Timestamp, error) {
	ts, err := c.Sender.NegotiateBoundedStaleness(p, spans)
	if err != nil {
		return hlc.Timestamp{}, err
	}
	if now := c.Store.Clock.Now(); ts.IsEmpty() || now.Less(ts) {
		ts = now
	}
	if ts.Less(minTS) {
		return minTS, nil
	}
	return ts, nil
}

// MaxStalenessToMinTS converts a with_max_staleness bound into the minimum
// acceptable timestamp at the gateway's clock.
func (c *Coordinator) MaxStalenessToMinTS(bound sim.Duration) hlc.Timestamp {
	return c.Store.Clock.Now().Add(-bound)
}
