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
}

// NewCoordinator returns a coordinator bound to a gateway store.
func NewCoordinator(store *kv.Store, sender *kv.DistSender) *Coordinator {
	return &Coordinator{Store: store, Sender: sender, backoff: store.Sim.Stream("txn/backoff")}
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
type Txn struct {
	co *Coordinator
	kv *kv.Txn

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
	// transactions read one key.
	reads   []readSpan
	readBuf [1]readSpan
	// pending are the writes not sent yet, in order, one entry per key. An
	// unconditional write waits here for the transaction's next batch — a
	// point read, a conditional write or the commit — which carries it.
	// A conditional write waits only as the one-phase-commit candidate.
	pending []bufferedPut
	// partial is the error of a write batch that half applied its statement
	// or lost an earlier statement's write (see landed): the transaction can
	// no longer commit.
	partial      error
	finished     bool
	committed1PC bool
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
	t := &Txn{co: c, kv: kv.GatewayTxn(c.Store, nil, priority)}
	t.reads = t.readBuf[:0]
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

// Get reads key at the transaction's read timestamp.
func (t *Txn) Get(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	var v [1]mvcc.Value
	err := t.read(p, []mvcc.Key{key}, v[:], false, nil)
	return v[0], err
}

// GetForUpdate reads key and acquires an exclusive unreplicated lock on it
// (SELECT FOR UPDATE), serializing read-modify-write transactions without
// restarts. Locking reads always go to the leaseholder. A key the
// transaction already knows is not sent: the write that follows takes its
// lock when it rides the transaction's next batch.
func (t *Txn) GetForUpdate(p *sim.Proc, key mvcc.Key) (mvcc.Value, error) {
	var v [1]mvcc.Value
	err := t.read(p, []mvcc.Key{key}, v[:], true, nil)
	return v[0], err
}

// GetParallel reads keys as one batch (one RPC per touched range),
// preserving input order in the results.
func (t *Txn) GetParallel(p *sim.Proc, keys []mvcc.Key) ([]mvcc.Value, error) {
	return t.getParallel(p, keys, false)
}

// GetParallelForUpdate reads keys as one batch and locks each of them as
// GetForUpdate does.
func (t *Txn) GetParallelForUpdate(p *sim.Proc, keys []mvcc.Key) ([]mvcc.Value, error) {
	return t.getParallel(p, keys, true)
}

func (t *Txn) getParallel(p *sim.Proc, keys []mvcc.Key, forUpdate bool) ([]mvcc.Value, error) {
	out := make([]mvcc.Value, len(keys))
	if err := t.read(p, keys, out, forUpdate, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Probe is one batch of a first-hit read (§4.2): a statement sends one probe
// to every remote region at once and returns on the first that finds its
// rows, so a probe may land after its statement, and even its transaction,
// is done. A probe's read is therefore the point read without what would
// outlive the statement: it carries no pending write, records no read, moves
// no timestamp, and returns an uncertain value as an error rather than
// refreshing. The statement, on its own proc, passes each probe whose reply
// it used to Use.
type Probe struct {
	t         *Txn
	forUpdate bool
	reads     []readSpan
	err       error
}

// Probe starts a probe of t whose reads lock, as GetForUpdate does, when
// forUpdate is set.
func (t *Txn) Probe(forUpdate bool) *Probe { return &Probe{t: t, forUpdate: forUpdate} }

// GetParallel reads keys as one batch, as Txn.GetParallel does, within the
// limits of a probe. The probe keeps keys, which must not change after.
func (pr *Probe) GetParallel(p *sim.Proc, keys []mvcc.Key) ([]mvcc.Value, error) {
	out := make([]mvcc.Value, len(keys))
	if err := pr.t.read(p, keys, out, pr.forUpdate, pr); err != nil {
		return nil, err
	}
	return out, nil
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
	pr.t.reads = append(pr.t.reads, pr.reads...)
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
		reqs := make([]interface{}, len(riders)+len(send))
		t.putRequests(reqs, riders)
		getReqs := make([]kv.GetRequest, len(send))
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
		resps := t.co.Sender.SendBatch(p, reqs)
		if err := t.landed(p, riders, resps, 0); err != nil {
			return err
		}
		var firstErr error
		gets := resps[len(riders):]
		for j, resp := range gets {
			if resp.Err != nil {
				if firstErr == nil {
					firstErr = resp.Err
				}
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
		riders = nil
		if firstErr == nil {
			for j, key := range send {
				if probe != nil {
					probe.reads = append(probe.reads, readSpan{key: key, value: gets[j].Get.Value})
				} else {
					t.recordRead(key, nil, gets[j].Get.Value)
				}
			}
			return nil
		}
		if probe != nil {
			probe.err = firstErr
			return firstErr
		}
		if err := t.handleReadErr(p, firstErr); err != nil {
			return err
		}
	}
}

// recordRead notes a span the transaction read ([key, end), or the point key
// when end is nil), so refreshes and a one-phase commit can re-validate it.
// A point read also notes the value it returned.
func (t *Txn) recordRead(key, end mvcc.Key, value mvcc.Value) {
	t.reads = append(t.reads, readSpan{
		key:   append(mvcc.Key(nil), key...),
		end:   append(mvcc.Key(nil), end...),
		value: value,
	})
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

// Scan reads [start, end) up to max rows. It first sends the pending writes,
// so it sees the transaction's own.
func (t *Txn) Scan(p *sim.Proc, start, end mvcc.Key, max int) ([]mvcc.KeyValue, error) {
	if err := t.sendWrites(p, 0); err != nil {
		return nil, err
	}
	for {
		req := &kv.ScanRequest{
			StartKey: start, EndKey: end, MaxRows: max,
			Timestamp:    t.kv.ReadTimestamp,
			Txn:          t.kv,
			Uncertainty:  true,
			FollowerRead: t.followerOK(start),
		}
		resp := t.co.Sender.Send(p, req)
		if resp.Err == nil {
			t.recordRead(start, end, nil)
			return resp.Scan.Rows, nil
		}
		if err := t.handleReadErr(p, resp.Err); err != nil {
			return nil, err
		}
	}
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
// remain unchanged at the newer timestamp"). Spans refresh in parallel;
// reads of GLOBAL tables refresh at the nearest replica when possible.
func (t *Txn) refreshReads(p *sim.Proc, newTS hlc.Timestamp) bool {
	if len(t.reads) == 0 {
		return true
	}
	sp, done := t.co.tracer().StartIn(p, "txn.refresh")
	defer done()
	sp.SetTagInt("spans", int64(len(t.reads)))
	failed := false
	p.Fanout("txn/refresh", len(t.reads), func(wp *sim.Proc, i int) {
		span := t.reads[i]
		req := &kv.RefreshRequest{
			Key: span.key, EndKey: span.end,
			FromTS: t.kv.ReadTimestamp, ToTS: newTS,
			TxnID:        t.kv.Meta.ID,
			FollowerRead: t.followerOK(span.key),
		}
		resp := t.co.Sender.Send(wp, req)
		if resp.Err != nil || !resp.Refresh.Success {
			failed = true
		}
	})
	return !failed
}

// Put writes key=value. The write is sent with the transaction's next
// batch.
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
// returned is the batch's first failure.
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
		// The first write anchors the transaction record's range.
		t.kv.Meta.Key = append(mvcc.Key(nil), kvs[0].Key...)
	}
	earlier := len(t.pending)
	rewrote := false // an earlier statement's pending write now holds one of ours
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
// keeps the first write's condition.
func (t *Txn) buffer(w mvcc.KeyValue, mustNotExist bool) int {
	if i := t.pendingIndex(w.Key); i >= 0 {
		t.pending[i].Value = w.Value
		return i
	}
	t.pending = append(t.pending, bufferedPut{
		KeyValue:     mvcc.KeyValue{Key: append(mvcc.Key(nil), w.Key...), Value: w.Value},
		mustNotExist: mustNotExist,
	})
	return len(t.pending) - 1
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
	sent := t.pending
	t.pending = nil
	if len(sent) == 0 {
		return nil
	}
	reqs := make([]interface{}, len(sent))
	t.putRequests(reqs, sent)
	return t.landed(p, sent, t.co.Sender.SendBatch(p, reqs), own)
}

// putRequests fills the head of reqs with puts of ws, deciding for each
// whether it replicates first (see replicateFirst) or is pipelined.
func (t *Txn) putRequests(reqs []interface{}, ws []bufferedPut) {
	if len(ws) == 0 {
		return
	}
	toRecord, _, recordOK := t.co.Sender.WriteRTTs(t.kv.Meta.Key)
	for i := range ws {
		ws[i].replicate = recordOK && t.replicateFirst(ws[i].Key, toRecord)
		reqs[i] = &kv.PutRequest{
			Key: ws[i].Key, Value: ws[i].Value, Timestamp: t.kv.Meta.WriteTimestamp, Txn: t.kv,
			Pipelined: !ws[i].replicate, MustNotExist: ws[i].mustNotExist,
		}
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
				t.writes = append(t.writes, write{key: sent[i].Key, value: sent[i].Value})
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
// proposed. A write replicated before its reply can fail after its entry is
// in the log (raft.ErrLeadershipLost: the next leader may still commit it),
// and a send that gave up may have lost the reply to an attempt that landed.
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
	t.writes = append(t.writes, write{key: w.Key, value: w.Value, proven: w.replicate})
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
		ok, err := t.commit1PC(p)
		if err != nil {
			return err
		}
		if ok {
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
	var proveErr error
	var proveDone *sim.Future[struct{}]
	if proofs := t.proofs(); len(proofs) > 0 {
		proveDone = sim.NewFuture[struct{}](t.co.Store.Sim)
		parent := obs.ProcSpan(p)
		t.co.Store.Sim.Spawn("txn/prove", func(wp *sim.Proc) {
			obs.SetProcSpan(wp, parent)
			proveErr = t.proveWrites(wp, proofs)
			proveDone.Set(struct{}{})
		})
	}

	// The staging phase: the STAGING commit record write overlapped with
	// the QueryIntent proofs.
	_, stageDone := t.co.tracer().StartIn(p, "txn.stage")
	resp := t.co.Sender.Send(p, &kv.EndTxnRequest{Txn: t.kv, Commit: true, CommitTS: commitTS})
	if proveDone != nil {
		proveDone.Wait(p)
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
	if proveErr != nil {
		// A pipelined write was lost: roll the staged record back
		// and retry the transaction.
		t.co.Restarts++
		t.co.Store.Registry.AbortStaged(t.kv.Meta.ID)
		t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
		return proveErr
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
// not taken again here: the lease may have moved since.
func (t *Txn) proofs() []interface{} {
	var reqs []interface{}
	for _, w := range t.writes {
		if w.proven {
			continue
		}
		if reqs == nil {
			reqs = make([]interface{}, 0, len(t.writes))
		}
		reqs = append(reqs, &kv.QueryIntentRequest{Key: w.key, TxnID: t.kv.Meta.ID, Epoch: t.kv.Meta.Epoch})
	}
	return reqs
}

// proveWrites sends the proofs in parallel and fails if any intent is
// missing.
func (t *Txn) proveWrites(p *sim.Proc, reqs []interface{}) error {
	sp, done := t.co.tracer().StartIn(p, "txn.prove")
	defer done()
	sp.SetTagInt("writes", int64(len(reqs)))
	missing := false
	for _, resp := range t.co.Sender.SendBatch(p, reqs) {
		if resp.Err != nil {
			return resp.Err
		}
		if !resp.QueryIntent.Found {
			missing = true
		}
	}
	if missing {
		return t.restartError("pipelined write lost", t.kv.Meta.WriteTimestamp)
	}
	return nil
}

// commit1PC attempts a one-phase commit of the one pending write,
// refreshing the transaction's reads server-side. It returns false (and
// leaves the write pending) when the server declines.
func (t *Txn) commit1PC(p *sim.Proc) (bool, error) {
	b := t.pending[0]
	var spans [][2]mvcc.Key
	for _, rs := range t.reads {
		spans = append(spans, [2]mvcc.Key{rs.key, rs.end})
	}
	req := &kv.PutRequest{
		Key: b.Key, Value: b.Value,
		Timestamp:    t.kv.Meta.WriteTimestamp,
		Txn:          t.kv,
		MustNotExist: b.mustNotExist,
		Commit1PC:    true,
		ReadSpans:    spans,
		ReadFromTS:   t.kv.ReadTimestamp,
	}
	resp := t.co.Sender.Send(p, req)
	if resp.Err != nil {
		var ta *kv.TxnAbortedError
		if errors.As(resp.Err, &ta) {
			t.finished = true
			t.pending = nil
			t.co.Aborted++
		}
		return false, t.duplicateOrRestart(p, resp.Err)
	}
	if resp.Put.Declined1PC {
		return false, nil
	}
	t.finished = true
	t.committed1PC = true
	t.pending = nil
	t.co.Committed++
	t.commitWait(p, resp.Put.WriteTimestamp)
	return true, nil
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
// caller's latency path.
func (t *Txn) asyncResolve(p *sim.Proc, status mvcc.TxnStatus, commitTS hlc.Timestamp) {
	if len(t.writes) == 0 {
		return
	}
	s := t.co.Store.Sim
	id := t.kv.Meta.ID
	parent := obs.ProcSpan(p)
	reqs := make([]interface{}, len(t.writes))
	for i, w := range t.writes {
		reqs[i] = &kv.ResolveIntentRequest{
			Key: w.key, TxnID: id, Status: status, CommitTS: commitTS,
		}
	}
	s.Spawn("txn/resolve", func(rp *sim.Proc) {
		sp := t.co.tracer().StartChild("txn.resolve", parent)
		obs.SetProcSpan(rp, sp)
		t.co.Sender.SendBatch(rp, reqs)
		sp.Finish()
	})
}

// Abort rolls the transaction back, resolving its intents as aborted.
func (t *Txn) Abort(p *sim.Proc) {
	if t.finished {
		return
	}
	t.finished = true
	t.pending = nil
	t.co.Store.Registry.Abort(t.kv.Meta.ID)
	if len(t.writes) > 0 {
		t.co.Sender.Send(p, &kv.EndTxnRequest{Txn: t.kv, Commit: false})
		t.asyncResolve(p, mvcc.Aborted, hlc.Timestamp{})
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

// ExactStaleReads reads keys at exactly ts as one batch: one RPC per touched
// range, each to its nearest replica. The values keep the order of keys.
func (c *Coordinator) ExactStaleReads(p *sim.Proc, keys []mvcc.Key, ts hlc.Timestamp) ([]mvcc.Value, error) {
	reqs := make([]interface{}, len(keys))
	for i, key := range keys {
		reqs[i] = c.staleGet(key, ts)
	}
	out := make([]mvcc.Value, len(keys))
	for i, resp := range c.Sender.SendBatch(p, reqs) {
		if resp.Err != nil {
			return nil, resp.Err
		}
		out[i] = resp.Get.Value
	}
	return out, nil
}

// staleGet is the follower read of key at exactly ts that every stale point
// read sends.
func (c *Coordinator) staleGet(key mvcc.Key, ts hlc.Timestamp) *kv.GetRequest {
	return &kv.GetRequest{
		Key: key, Timestamp: ts, FollowerRead: true, Uncertainty: false,
	}
}

// StaleScan performs an exact-staleness scan at ts from the nearest
// replicas of the touched ranges.
func (c *Coordinator) StaleScan(p *sim.Proc, start, end mvcc.Key, max int, ts hlc.Timestamp) ([]mvcc.KeyValue, error) {
	resp := c.Sender.Send(p, &kv.ScanRequest{
		StartKey: start, EndKey: end, MaxRows: max,
		Timestamp: ts, FollowerRead: true, Uncertainty: false,
	})
	if resp.Err != nil {
		return nil, resp.Err
	}
	return resp.Scan.Rows, nil
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
