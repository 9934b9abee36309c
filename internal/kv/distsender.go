package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// DistSender routes KV requests from a gateway node to the right replica of
// the right range: the leaseholder for consistent reads and all writes, or
// the nearest replica for follower-read-eligible requests. It retries
// around leaseholder moves and follower-read misses.
type DistSender struct {
	NodeID  simnet.NodeID
	Net     *simnet.Network
	Topo    *simnet.Topology
	Catalog *RangeCatalog

	// Liveness, when set, steers routing away from dead nodes: a request
	// whose cached leaseholder is expired goes to the nearest live replica
	// instead, and leaseholder hints pointing at dead nodes are ignored.
	Liveness *NodeLiveness

	// Tracer, when set, records a "ds.send" span per routed per-range RPC
	// with a "ds.rpc" child per replica attempt (target, retries, backoff,
	// and the error that caused each retry). Batches additionally get a
	// "ds.batch" parent. A scan or span refresh that crosses ranges gets one
	// "ds.send" per range it is divided among; when its range split under it
	// mid-flight, the "ds.send" it was routed with, tagged "resplit", is
	// their parent. Optional; nil-safe.
	Tracer *obs.Tracer

	// Metrics, when set, records the batch-size and per-batch range fan-out
	// distributions ("ds.batch.size", "ds.batch.ranges"). Optional;
	// nil-safe.
	Metrics *obs.Registry

	// Load, when set, is the shared per-range traffic tracker feeding the
	// load-based split/merge/rebalance queue. Each routed sub-batch is
	// charged once, attributed to this gateway's region. Optional; nil-safe.
	Load *RangeLoadTracker

	// Stats. FollowerMisses counts attempts routed as follower reads that
	// the follower bounced to the leaseholder; a consistent read bounced by
	// a non-leaseholder during failover is a retry, not a miss.
	Sent             int64
	Retries          int64
	FollowerMisses   int64
	LeaseholderHints int64
	// Batches counts the batches SendBatchInto routed; BatchedReqs the
	// requests they carried.
	Batches     int64
	BatchedReqs int64
	// WANRPCs counts attempts routed to a node in another region; sessions
	// diff it around a statement to attribute cross-region trips.
	WANRPCs int64
	// BackoffTotal accumulates virtual time spent in retry backoff.
	BackoffTotal sim.Duration

	// backoffRand is the "kv/backoff" stream, which every sender shares;
	// the first backoff fetches it.
	backoffRand *rand.Rand

	// freeBatches and freeFans are the sender's free lists of RPC envelopes
	// and of multi-range dispatch scratch. The sender takes both and puts
	// both back, so no one-way flow can drain or swell them.
	freeBatches []*BatchRequest
	freeFans    []*fanBatch
}

// sendRPC sends b to target and waits for the reply. It gives up when the
// RPC timeout runs out or, sooner, when target's liveness record lapses: a
// request to a node that died ends when its record expires, not 10 s later.
// A write given up on is ambiguous, exactly as one timed out.
func (ds *DistSender) sendRPC(p *sim.Proc, target simnet.NodeID, b *BatchRequest) (interface{}, error) {
	if ds.Liveness == nil {
		return ds.Net.SendRPC(p, ds.NodeID, target, b, 0)
	}
	return ds.Net.SendRPCWhileLive(p, ds.NodeID, target, b, 0, ds.Liveness.Expiration)
}

// live reports whether the sender should route to id.
func (ds *DistSender) live(id simnet.NodeID) bool {
	return ds.Liveness == nil || ds.Liveness.Live(id, ds.Net.Sim.Now())
}

// nearestReplica picks the lowest-RTT replica of d from the gateway,
// preferring live replicas; if every replica looks dead it falls back to
// the nearest one regardless (liveness may simply be stale).
func (ds *DistSender) nearestReplica(d *RangeDescriptor) simnet.NodeID {
	return ds.nearestReplicaExcluding(d, 0)
}

// nearestReplicaExcluding is nearestReplica skipping one node (typically a
// leaseholder already known to be unresponsive).
func (ds *DistSender) nearestReplicaExcluding(d *RangeDescriptor, skip simnet.NodeID) simnet.NodeID {
	best, bestAny := simnet.NodeID(0), simnet.NodeID(0)
	var bestRTT, bestAnyRTT sim.Duration
	// Voters, then non-voters: the order Replicas lists them in, walked in
	// place.
	for _, ids := range [2][]simnet.NodeID{d.Voters, d.NonVoters} {
		for _, id := range ids {
			if id == skip {
				continue
			}
			rtt := ds.Topo.NodeRTT(ds.NodeID, id)
			if bestAny == 0 || rtt < bestAnyRTT {
				bestAny, bestAnyRTT = id, rtt
			}
			if ds.live(id) && (best == 0 || rtt < bestRTT) {
				best, bestRTT = id, rtt
			}
		}
	}
	if best != 0 {
		return best
	}
	if bestAny != 0 {
		return bestAny
	}
	return skip
}

// replicasByPreference orders a range's replicas by RTT from the gateway,
// with live replicas ahead of liveness-expired ones (which still get tried
// last: the record may be stale).
func (ds *DistSender) replicasByPreference(d *RangeDescriptor) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(d.Voters)+len(d.NonVoters))
	out = append(append(out, d.Voters...), d.NonVoters...)
	sort.SliceStable(out, func(i, j int) bool {
		li, lj := ds.live(out[i]), ds.live(out[j])
		if li != lj {
			return li
		}
		return ds.Topo.NodeRTT(ds.NodeID, out[i]) < ds.Topo.NodeRTT(ds.NodeID, out[j])
	})
	return out
}

// WriteRTTs returns, for the range holding key, the round trip from the
// gateway to its leaseholder and the leaseholder's quorum round trip (the
// time a write takes to replicate once it is there), as the catalog and the
// topology state them now. ok is false when no range holds key. It allocates
// nothing.
func (ds *DistSender) WriteRTTs(key mvcc.Key) (toLeaseholder, quorum sim.Duration, ok bool) {
	d, err := ds.Catalog.Lookup(key)
	if err != nil {
		return 0, 0, false
	}
	return ds.Topo.NodeRTT(ds.NodeID, d.Leaseholder), quorumRTT(ds.Topo, d.Leaseholder, d.Voters), true
}

// maxSendAttempts bounds routing retries before giving up. With the capped
// exponential backoff below, a retry budget that sees no descriptor change
// spans roughly 25s of virtual time — enough to ride out an election plus a
// liveness expiration during failover. A backoff ends early only when the
// range's descriptor changes, which is what a failover ends with: the new
// leaseholder publishes its lease. Such wakes cannot drain the budget, since
// each needs a newer generation than the one its attempt routed on.
const maxSendAttempts = 32

// Retry backoff bounds: exponential from base to cap, with deterministic
// jitter drawn from the simulation RNG (full jitter over the upper half of
// the interval, so retries from different gateways decorrelate).
const (
	retryBackoffBase = 10 * sim.Millisecond
	retryBackoffMax  = 1 * sim.Second
)

// backoff waits out the n-th capped exponential retry pause, or less: the
// wait ends as soon as the catalog publishes a descriptor of the range newer
// than routed, the one the failed attempt was sent on (a lease acquired after
// a failover, a split, a merge). BackoffTotal accrues the time waited.
func (ds *DistSender) backoff(p *sim.Proc, n int, routed *RangeDescriptor) {
	d := retryBackoffBase
	for i := 0; i < n && d < retryBackoffMax; i++ {
		d *= 2
	}
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	half := d / 2
	if ds.backoffRand == nil {
		ds.backoffRand = ds.Net.Sim.Stream("kv/backoff")
	}
	d = half + sim.Duration(ds.backoffRand.Int63n(int64(half)+1))
	start := p.Now()
	ds.Catalog.WaitNewer(p, routed.RangeID, routed.Generation, d)
	ds.BackoffTotal += p.Now().Sub(start)
}

// maxBatchSplitDepth bounds recursive re-splitting of a sub-batch whose
// range splits underneath it mid-dispatch.
const maxBatchSplitDepth = 8

// Send routes req, a batch of one without a "ds.batch" span, and returns
// the typed response. It parks p for network and evaluation time.
func (ds *DistSender) Send(p *sim.Proc, req interface{}) Response {
	reqs, out := [1]interface{}{req}, [1]Response{}
	ds.sendBatchInner(p, reqs[:], out[:], 0)
	return out[0]
}

// SendBatch is SendBatchInto with a result slice of its own, which it
// returns.
func (ds *DistSender) SendBatch(p *sim.Proc, reqs []interface{}) []Response {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]Response, len(reqs))
	ds.SendBatchInto(p, reqs, out)
	return out
}

// SendBatchInto routes a batch: it groups the requests by range descriptor,
// dividing a scan or span refresh among the ranges its span overlaps,
// dispatches one RPC per touched range in parallel (virtual latency is the
// max over ranges, not the sum), and writes the responses into out, which
// must be as long as reqs: out[i] answers reqs[i]. Unroutable requests get
// per-slot errors; the rest of the batch still dispatches.
//
// out is the caller's space, a stack array for instance: the sender writes it
// only before it returns, copying each reply out of an envelope whose reply
// landed. A replica never answers into it, so an attempt that timed out and
// answers later cannot reach it.
func (ds *DistSender) SendBatchInto(p *sim.Proc, reqs []interface{}, out []Response) {
	if len(reqs) == 0 {
		return
	}
	sp, finish := ds.Tracer.StartIn(p, "ds.batch")
	defer finish()
	if sp != nil {
		sp.SetTag("req", reqName(reqs[0])).SetTagInt("reqs", int64(len(reqs)))
	}
	ranges := ds.sendBatchInner(p, reqs, out, 0)
	sp.SetTagInt("ranges", int64(ranges))
	ds.Batches++
	ds.BatchedReqs += int64(len(reqs))
	if ds.Metrics != nil {
		ds.Metrics.Histogram("ds.batch.size").Record(int64(len(reqs)))
		ds.Metrics.Histogram("ds.batch.ranges").Record(int64(ranges))
	}
}

// sendBatchInner divides reqs into per-range groups (first-occurrence
// order), dispatches them and writes the responses into out, in request
// order; it returns the number of ranges touched. It is the DistSender's one
// divider of spans.
//
// A batch that lands entirely on one range — the overwhelmingly common
// case, every point read and write of a transaction and every scan of one
// partition included — is the sub-batch itself, with no grouping at all.
// Otherwise each request becomes pieces: a point request is one, on the
// range of its key; a scan or span refresh is one per range its span
// overlaps, clamped to that range's bounds (the request itself where one
// range holds it whole). A range answers only for a span it holds whole
// (RangeKeyMismatchError), so a piece routed on a descriptor that split
// since is divided again by sendToRange. Grouping is slice-based rather than
// map-based: pieces are assigned a group ordinal in one pass (memoizing the
// last descriptor, since batches are usually key-ordered and
// range-clustered).
func (ds *DistSender) sendBatchInner(p *sim.Proc, reqs []interface{}, out []Response, depth int) int {
	if q, err := asRequest(reqs[0]); err == nil {
		if d, err := ds.Catalog.Lookup(q.routingKey()); err == nil && descContainsAll(d, reqs) {
			ds.sendToRange(p, reqs, out, depth)
			return 1
		}
	}
	f := ds.getFan(depth)
	var desc *RangeDescriptor // memoized last descriptor
	gid := int32(-1)          // memoized group ordinal for desc
	for i, req := range reqs {
		q, err := asRequest(req)
		if err != nil {
			out[i] = Response{Err: err}
			continue
		}
		start, end, span := spanOf(q)
		if !span {
			if key := q.routingKey(); desc == nil || !desc.ContainsKey(key) {
				if desc, err = ds.Catalog.Lookup(key); err != nil {
					out[i] = Response{Err: err}
					continue
				}
				gid = f.group(desc)
			}
			f.add(req, i, gid)
			continue
		}
		if desc != nil && desc.containsSpan(start, end) {
			f.add(req, i, gid)
			continue
		}
		descs := ds.Catalog.LookupSpan(start, end)
		if len(descs) == 0 {
			out[i] = Response{Err: fmt.Errorf("kv: no range overlaps [%q, %q)", start, end)}
			continue
		}
		for _, d := range descs {
			desc, gid = d, f.group(d)
			s, e := d.clamp(start, end)
			if bytes.Equal(s, start) && bytes.Equal(e, end) {
				f.add(req, i, gid)
				continue
			}
			switch q := q.(type) {
			case *ScanRequest:
				piece := *q
				piece.StartKey, piece.EndKey = s, e
				f.add(&piece, i, gid)
			case *RefreshRequest:
				piece := *q
				piece.Key, piece.EndKey = s, e
				f.add(&piece, i, gid)
			}
		}
	}
	ranges := len(f.rids)
	f.dispatch(p, "ds/batch-range", ranges, reqs, out)
	ds.putFan(f)
	return ranges
}

// descContainsAll reports whether d holds every request whole: the key of a
// point request, the span of a scan or span refresh.
func descContainsAll(d *RangeDescriptor, reqs []interface{}) bool {
	for _, r := range reqs {
		q, err := asRequest(r)
		if err != nil {
			return false
		}
		if start, end, span := spanOf(q); span && !d.containsSpan(start, end) || !span && !d.ContainsKey(q.routingKey()) {
			return false
		}
	}
	return true
}

// fillErr answers every slot of out with err.
func fillErr(out []Response, err error) {
	for i := range out {
		out[i] = Response{Err: err}
	}
}

// sendToRange dispatches a per-range sub-batch (usually a singleton) as one
// RPC, retrying around leaseholder moves, follower-read misses, and range
// moves, and writes the responses into out. A retriable error on any response
// retries the whole sub-batch; if a split moved some keys, or part of a span,
// out of the range mid-flight, the sub-batch is divided again through
// sendBatchInner, a lone request too. A sub-batch
// that mixes follower-eligible reads with leaseholder-only requests goes out
// as two RPCs (sendSplit). It keeps neither reqs nor out: each attempt copies
// the requests into an envelope, and the responses out of it.
func (ds *DistSender) sendToRange(p *sim.Proc, reqs []interface{}, out []Response, depth int) {
	first, err := asRequest(reqs[0])
	if err != nil {
		fillErr(out, err)
		return
	}
	followers := 0
	for _, r := range reqs {
		if q, err := asRequest(r); err == nil && q.followerOK() {
			followers++
		}
	}
	if followers > 0 && followers < len(reqs) {
		ds.sendSplit(p, reqs, out, depth)
		return
	}
	follower := followers > 0
	key := first.routingKey()
	sp, finish := ds.Tracer.StartIn(p, "ds.send")
	defer finish()
	if sp != nil {
		sp.SetTag("req", first.typeName()).SetTag("key", string(key))
		if len(reqs) > 1 {
			sp.SetTagInt("reqs", int64(len(reqs)))
		}
	}
	leaseholderHint := simnet.NodeID(0)
	forceLeaseholder := false
	backoffs := 0
	// lastErr remembers why the most recent attempt failed, so exhausting
	// the retry budget surfaces the cause instead of a bare attempt count.
	var lastErr error
	backoff := func(asp *obs.Span, routed *RangeDescriptor) {
		// Never escapes this frame, so it costs no allocation.
		before := ds.BackoffTotal
		ds.backoff(p, backoffs, routed)
		backoffs++
		asp.SetTagDuration("backoff", ds.BackoffTotal-before)
	}
	for attempt := 0; attempt < maxSendAttempts; attempt++ {
		desc, err := ds.Catalog.Lookup(key)
		if err != nil {
			sp.SetError(err)
			fillErr(out, err)
			return
		}
		if depth < maxBatchSplitDepth && !descContainsAll(desc, reqs) {
			// The range split under the batch: divide it again against the
			// fresh descriptors.
			sp.SetTag("resplit", "true")
			ds.sendBatchInner(p, reqs, out, depth+1)
			return
		}
		if attempt == 0 && ds.Load != nil {
			// Charge the sub-batch to the range once (not per retry),
			// attributed to this gateway's region.
			loc, _ := ds.Topo.LocalityOf(ds.NodeID)
			ds.Load.Record(desc.RangeID, key, loc.Region, len(reqs))
		}
		target := desc.Leaseholder
		followerPick := false
		if leaseholderHint != 0 {
			target = leaseholderHint
			leaseholderHint = 0
		} else if follower && !forceLeaseholder {
			target, followerPick = ds.nearestReplica(desc), true
		} else if !ds.live(target) {
			// The cached leaseholder's liveness record expired: route to
			// the nearest live replica instead, whose redirect (or the
			// recovered catalog entry next attempt) points at the new
			// leaseholder once a survivor acquires the lease.
			target = ds.nearestReplicaExcluding(desc, target)
		}
		ds.Sent++
		if ds.Net.WAN(ds.NodeID, target) {
			ds.WANRPCs++
		}
		asp, attemptDone := ds.Tracer.StartIn(p, "ds.rpc")
		asp.SetTagInt("attempt", int64(attempt)).SetTagInt("target", int64(target))
		b := ds.getBatch()
		b.RangeID, b.Reqs, b.Trace = desc.RangeID, append(b.Reqs, reqs...), asp.Ctx()
		raw, rpcErr := ds.sendRPC(p, target, b)
		if rpcErr != nil {
			// Node unreachable: back off and re-route (the descriptor or
			// lease may move during failover). The envelope stays out of
			// the free list: its replica may still evaluate into it.
			lastErr = rpcErr
			asp.SetError(rpcErr)
			ds.Retries++
			forceLeaseholder = false
			attemptDone()
			backoff(asp, desc)
			continue
		}
		resps := raw.(*BatchRequest).Resps
		// A retriable error on any response retries the whole sub-batch
		// (requests are idempotent at the MVCC layer: re-evaluating a
		// write lays down the same intent, and a MustNotExist write is
		// satisfied by the intent its first attempt laid).
		retriable := false
		for i := range resps {
			resp := &resps[i]
			if resp.Err == nil {
				// Before the errors.As targets below, which escape: three
				// objects per successful response otherwise.
				continue
			}
			var nle *NotLeaseholderError
			if errors.As(resp.Err, &nle) {
				lastErr = resp.Err
				asp.SetError(resp.Err)
				ds.Retries++
				ds.LeaseholderHints++
				attemptDone()
				if nle.Leaseholder != 0 && nle.Leaseholder != target && ds.live(nle.Leaseholder) {
					leaseholderHint = nle.Leaseholder
				} else {
					backoff(asp, desc)
				}
				retriable = true
				break
			}
			var fru *FollowerReadUnavailableError
			if errors.As(resp.Err, &fru) {
				// Paper §5.3.1: reads a follower cannot serve are
				// redirected to the leaseholder.
				lastErr = resp.Err
				asp.SetError(resp.Err)
				ds.Retries++
				if followerPick {
					ds.FollowerMisses++
				}
				attemptDone()
				if forceLeaseholder || target == desc.Leaseholder {
					// The leaseholder itself could not serve (fenced lease
					// mid-recovery): wait for the lease to move.
					backoff(asp, desc)
				}
				forceLeaseholder = true
				retriable = true
				break
			}
			var rkm *RangeKeyMismatchError
			if errors.As(resp.Err, &rkm) {
				lastErr = resp.Err
				asp.SetError(resp.Err)
				ds.Retries++
				attemptDone()
				backoff(asp, desc)
				retriable = true
				break
			}
		}
		if retriable {
			ds.putBatch(b)
			continue
		}
		attemptDone()
		copy(out, resps)
		ds.putBatch(b)
		return
	}
	err = fmt.Errorf("kv: request to %q failed after %d attempts", key, maxSendAttempts)
	if lastErr != nil {
		err = fmt.Errorf("kv: request to %q failed after %d attempts: last attempt: %w",
			key, maxSendAttempts, lastErr)
	}
	sp.SetError(err)
	fillErr(out, err)
}

// sendSplit sends one range's sub-batch as two RPCs in parallel: the
// follower-eligible reads to the nearest replica and everything else to the
// leaseholder. A write riding beside a GLOBAL-table read then costs the read
// nothing: the read stays local, and the batch pays the write's trip alone.
func (ds *DistSender) sendSplit(p *sim.Proc, reqs []interface{}, out []Response, depth int) {
	f := ds.getFan(depth)
	for i, r := range reqs {
		g := int32(0)
		if q, err := asRequest(r); err == nil && q.followerOK() {
			g = 1
		}
		f.add(r, i, g)
	}
	f.dispatch(p, "ds/follower-split", 2, reqs, out)
	ds.putFan(f)
}

// fanBatch is the working storage of one call that sends a batch as several
// sub-batches at once: a multi-range batch, or one range's reads and writes
// split apart (sendSplit). The call takes it from its sender's free list and
// gives it back when every sub-batch has returned, so grouping, merging and
// starting the sub-batches allocate nothing once the lists have grown.
type fanBatch struct {
	ds    *DistSender
	depth int
	// pieces are what the caller's requests became, in request order.
	pieces []piece
	// rids is the range of each group, while sendBatchInner groups.
	rids []RangeID
	// sub holds the pieces group by group, each group in piece order: group
	// g is sub[ends[g-1]:ends[g]], and resps[j] answers sub[j].
	sub   []interface{}
	ends  []int32
	resps []Response
	send  func(wp *sim.Proc, g int) // f.sendGroup, bound once
}

// piece is a request, or the part of a span request one range holds: of is
// the caller's index it answers, g its group and at its slot in sub.
type piece struct {
	req       interface{}
	of, g, at int32
}

// add appends req, which answers the caller's request i, to group g.
func (f *fanBatch) add(req interface{}, i int, g int32) {
	f.pieces = append(f.pieces, piece{req: req, of: int32(i), g: g})
}

// group returns the ordinal of d's group, which it adds if d has none yet.
func (f *fanBatch) group(d *RangeDescriptor) int32 {
	for g, rid := range f.rids {
		if rid == d.RangeID {
			return int32(g)
		}
	}
	f.rids = append(f.rids, d.RangeID)
	return int32(len(f.rids) - 1)
}

// maxFreeFans bounds a DistSender's free list of fan-out scratch.
const maxFreeFans = 16

// getFan returns empty fan-out scratch whose sub-batches recurse at depth.
func (ds *DistSender) getFan(depth int) *fanBatch {
	var f *fanBatch
	if n := len(ds.freeFans); n > 0 {
		f = ds.freeFans[n-1]
		ds.freeFans[n-1] = nil
		ds.freeFans = ds.freeFans[:n-1]
	} else {
		f = &fanBatch{ds: ds}
		f.send = f.sendGroup
	}
	f.depth = depth
	return f
}

// putFan clears f, so it pins no request or response, and keeps it unless
// the list is full.
func (ds *DistSender) putFan(f *fanBatch) {
	clear(f.pieces)
	clear(f.sub)
	clear(f.resps)
	f.pieces, f.rids, f.sub, f.ends, f.resps = f.pieces[:0], f.rids[:0], f.sub[:0], f.ends[:0], f.resps[:0]
	if len(ds.freeFans) < maxFreeFans {
		ds.freeFans = append(ds.freeFans, f)
	}
}

// dispatch sends each group of pieces as one sub-batch, in parallel on
// children named name, and writes the responses into out at their requests'
// indexes. The pieces of one span request fold into its slot in key order:
// a scan's rows are joined up to its MaxRows, a refresh succeeds only if
// every piece does, and the first error wins.
func (f *fanBatch) dispatch(p *sim.Proc, name string, groups int, reqs []interface{}, out []Response) {
	// Count each group, turn the counts into starts, then place each piece
	// at its group's next slot: ends[g] ends up where group g ends.
	ends := slices.Grow(f.ends[:0], groups)[:groups]
	clear(ends)
	for _, pc := range f.pieces {
		ends[pc.g]++
	}
	n := int32(0)
	for g, c := range ends {
		ends[g] = n
		n += c
	}
	f.sub, f.resps = slices.Grow(f.sub, int(n))[:n], slices.Grow(f.resps, int(n))[:n]
	for k := range f.pieces {
		pc := &f.pieces[k]
		pc.at = ends[pc.g]
		ends[pc.g]++
		f.sub[pc.at] = pc.req
	}
	f.ends = ends
	p.Fanout(name, groups, f.send)
	for k, pc := range f.pieces {
		i, r := pc.of, &f.resps[pc.at]
		o := &out[i]
		switch {
		case k == 0 || f.pieces[k-1].of != i: // a request's first piece
			*o = *r
		case o.Err != nil: // the first error wins
		case r.Err != nil:
			*o = Response{Err: r.Err}
		default: // a later piece of a span request
			o.Scan.Rows = append(o.Scan.Rows, r.Scan.Rows...)
			if sc, ok := reqs[i].(*ScanRequest); ok && sc.MaxRows > 0 && len(o.Scan.Rows) > sc.MaxRows {
				o.Scan.Rows = o.Scan.Rows[:sc.MaxRows]
			}
			o.Refresh.Success = o.Refresh.Success && r.Refresh.Success
		}
	}
}

// sendGroup sends group g as one sub-batch.
func (f *fanBatch) sendGroup(wp *sim.Proc, g int) {
	lo, hi := int32(0), f.ends[g]
	if g > 0 {
		lo = f.ends[g-1]
	}
	f.ds.sendToRange(wp, f.sub[lo:hi], f.resps[lo:hi], f.depth)
}

// maxFreeBatches bounds a DistSender's free list of envelopes.
const maxFreeBatches = 16

// getBatch returns an empty envelope, recycled if one is free.
func (ds *DistSender) getBatch() *BatchRequest {
	if n := len(ds.freeBatches); n > 0 {
		b := ds.freeBatches[n-1]
		ds.freeBatches[n-1] = nil
		ds.freeBatches = ds.freeBatches[:n-1]
		return b
	}
	return new(BatchRequest)
}

// putBatch clears an envelope whose reply landed, so it pins no request or
// response, and keeps it unless the list is full.
func (ds *DistSender) putBatch(b *BatchRequest) {
	clear(b.Reqs)
	clear(b.Resps)
	b.RangeID, b.Reqs, b.Trace, b.Resps = 0, b.Reqs[:0], obs.SpanContext{}, b.Resps[:0]
	if len(ds.freeBatches) < maxFreeBatches {
		ds.freeBatches = append(ds.freeBatches, b)
	}
}

// NegotiateBoundedStaleness implements the two-phase bounded staleness
// protocol of §5.3.2 for a set of key spans: ask the nearest replica of
// each touched range for its locally servable timestamp over the part of the
// span the range holds, and take the minimum. The caller compares the result
// against its staleness bound.
func (ds *DistSender) NegotiateBoundedStaleness(p *sim.Proc, spans [][2]mvcc.Key) (hlc.Timestamp, error) {
	result := hlc.MaxTimestamp
	for _, span := range spans {
		descs := ds.Catalog.LookupSpan(span[0], span[1])
		if len(descs) == 0 {
			// Point lookup fallback.
			d, err := ds.Catalog.Lookup(span[0])
			if err != nil {
				return hlc.Timestamp{}, err
			}
			descs = []*RangeDescriptor{d}
		}
		for _, desc := range descs {
			start, end := desc.clamp(span[0], span[1])
			// Bounded staleness tolerates replica unavailability (§5.3.2):
			// try every replica in nearest-first order (live ones ahead of
			// suspect ones) and take the first answer, rather than failing
			// on the first transient RPC error.
			var lastErr error
			answered := false
			for _, target := range ds.replicasByPreference(desc) {
				b := ds.getBatch()
				b.RangeID, b.Reqs = desc.RangeID, append(b.Reqs, &NegotiateRequest{StartKey: start, EndKey: end})
				raw, err := ds.sendRPC(p, target, b)
				if err != nil {
					ds.Retries++
					lastErr = err
					continue
				}
				resp := raw.(*BatchRequest).Resps[0]
				ds.putBatch(b)
				if resp.Err != nil {
					ds.Retries++
					lastErr = resp.Err
					continue
				}
				if resp.Negot.MaxTimestamp.Less(result) {
					result = resp.Negot.MaxTimestamp
				}
				answered = true
				break
			}
			if !answered {
				if lastErr == nil {
					lastErr = fmt.Errorf("kv: r%d has no reachable replica", desc.RangeID)
				}
				return hlc.Timestamp{}, lastErr
			}
		}
	}
	return result, nil
}
