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
	// "ds.batch" parent and multi-range scans a "ds.scan" parent. Optional;
	// nil-safe.
	Tracer *obs.Tracer

	// Metrics, when set, records the batch-size and per-batch range fan-out
	// distributions ("ds.batch.size", "ds.batch.ranges", "ds.scan.ranges").
	// Optional; nil-safe.
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

// maxScanHops bounds resume-key following on a multi-range scan.
const maxScanHops = 64

// Send routes req and returns the typed response. It parks p for network
// and evaluation time. Scans route through the multi-range scan path;
// everything else is a single-request batch to one range.
func (ds *DistSender) Send(p *sim.Proc, req interface{}) Response {
	if sc, ok := req.(*ScanRequest); ok {
		return ds.sendScan(p, sc)
	}
	reqs, out := [1]interface{}{req}, [1]Response{}
	ds.sendToRange(p, reqs[:], out[:], 0)
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

// SendBatchInto routes a batch of point requests: it groups them by range
// descriptor, dispatches one RPC per touched range in parallel (virtual
// latency is the max over ranges, not the sum), and writes the responses into
// out, which must be as long as reqs: out[i] answers reqs[i]. Unroutable
// requests get per-slot errors; the rest of the batch still dispatches.
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

// sendBatchInner splits reqs into per-range groups (first-occurrence
// order), dispatches them and writes the responses into out, in request
// order; it returns the number of ranges touched.
//
// A batch that lands entirely on one range — the overwhelmingly common
// case, every point read and write of a transaction included — is the
// sub-batch itself, with no grouping at all. Otherwise grouping is
// slice-based rather than map-based: requests are assigned a group ordinal in
// one pass (memoizing the last descriptor, since batches are usually
// key-ordered and range-clustered).
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
			f.gids = append(f.gids, -1)
			continue
		}
		key := q.routingKey()
		if desc == nil || !desc.ContainsKey(key) {
			d, err := ds.Catalog.Lookup(key)
			if err != nil {
				out[i] = Response{Err: err}
				f.gids = append(f.gids, -1)
				continue
			}
			desc = d
			gid = -1
			for g, rid := range f.rids {
				if rid == d.RangeID {
					gid = int32(g)
					break
				}
			}
			if gid == -1 {
				gid = int32(len(f.rids))
				f.rids = append(f.rids, d.RangeID)
			}
		}
		f.gids = append(f.gids, gid)
	}
	ranges := len(f.rids)
	f.dispatch(p, "ds/batch-range", ranges, reqs, out)
	ds.putFan(f)
	return ranges
}

// descContainsAll reports whether d owns the routing key of every request.
func descContainsAll(d *RangeDescriptor, reqs []interface{}) bool {
	for _, r := range reqs {
		q, err := asRequest(r)
		if err != nil || !d.ContainsKey(q.routingKey()) {
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
// retries the whole sub-batch; if a split moved some keys out of the range
// mid-flight, the sub-batch is re-split through sendBatchInner. A sub-batch
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
		if len(reqs) > 1 && depth < maxBatchSplitDepth && !descContainsAll(desc, reqs) {
			// The range split under the batch: re-split against the fresh
			// descriptors.
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
		raw, rpcErr := ds.Net.SendRPC(p, ds.NodeID, target, b, 0)
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
	for _, r := range reqs {
		g := int32(0)
		if q, err := asRequest(r); err == nil && q.followerOK() {
			g = 1
		}
		f.gids = append(f.gids, g)
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
	// gids[i] is the group of the caller's request i, -1 when the request
	// was answered already (it could not be routed).
	gids []int32
	// rids is the range of each group, while sendBatchInner groups.
	rids []RangeID
	// sub holds the requests group by group, each group in request order:
	// group g is sub[ends[g-1]:ends[g]]. at[j] is the caller's index of
	// sub[j], and resps[j] answers it.
	sub   []interface{}
	at    []int32
	ends  []int32
	resps []Response
	send  func(wp *sim.Proc, g int) // f.sendGroup, bound once
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
	clear(f.sub)
	clear(f.resps)
	f.gids, f.rids, f.sub, f.at, f.ends, f.resps = f.gids[:0], f.rids[:0], f.sub[:0], f.at[:0], f.ends[:0], f.resps[:0]
	if len(ds.freeFans) < maxFreeFans {
		ds.freeFans = append(ds.freeFans, f)
	}
}

// dispatch sends the groups of reqs that gids assigns as one sub-batch each,
// in parallel on children named name, and writes every response into out at
// its request's index.
func (f *fanBatch) dispatch(p *sim.Proc, name string, groups int, reqs []interface{}, out []Response) {
	// Count each group, turn the counts into starts, then place each request
	// at its group's next slot: ends[g] ends up where group g ends.
	ends := slices.Grow(f.ends[:0], groups)[:groups]
	clear(ends)
	for _, g := range f.gids {
		if g >= 0 {
			ends[g]++
		}
	}
	n := int32(0)
	for g, c := range ends {
		ends[g] = n
		n += c
	}
	f.sub, f.at, f.resps = slices.Grow(f.sub, int(n))[:n], slices.Grow(f.at, int(n))[:n], slices.Grow(f.resps, int(n))[:n]
	for i, g := range f.gids {
		if g >= 0 {
			j := ends[g]
			ends[g]++
			f.sub[j], f.at[j] = reqs[i], int32(i)
		}
	}
	f.ends = ends
	p.Fanout(name, groups, f.send)
	for j, i := range f.at {
		out[i] = f.resps[j]
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

// sendScan executes a scan that may span multiple ranges: it looks up every
// descriptor overlapping the span, clamps a sub-scan to each range's
// bounds, dispatches the sub-scans in parallel, and merges rows in range
// order up to MaxRows. When a replica returns a resume key (its copy of the
// range was smaller than the catalog promised, or a MaxRows cut), the
// DistSender follows it until MaxRows or span exhaustion.
func (ds *DistSender) sendScan(p *sim.Proc, req *ScanRequest) Response {
	sp, finish := ds.Tracer.StartIn(p, "ds.scan")
	defer finish()
	if sp != nil {
		sp.SetTag("key", string(req.StartKey))
	}
	var rows []mvcc.KeyValue
	served := simnet.NodeID(0)
	cursor := req.StartKey
	ranges := 0
	for hops := 0; ; hops++ {
		if hops >= maxScanHops {
			err := fmt.Errorf("kv: scan from %q exceeded %d range hops", req.StartKey, maxScanHops)
			sp.SetError(err)
			return Response{Err: err}
		}
		remaining := 0
		if req.MaxRows > 0 {
			remaining = req.MaxRows - len(rows)
			if remaining <= 0 {
				break
			}
		}
		descs := ds.Catalog.LookupSpan(cursor, req.EndKey)
		if len(descs) == 0 {
			d, err := ds.Catalog.Lookup(cursor)
			if err != nil {
				sp.SetError(err)
				return Response{Err: err}
			}
			descs = []*RangeDescriptor{d}
		}
		subs := make([]interface{}, len(descs))
		var lastEnd mvcc.Key
		for i, d := range descs {
			sub := *req
			sub.StartKey = cursor
			if bytes.Compare(d.StartKey, sub.StartKey) > 0 {
				sub.StartKey = d.StartKey
			}
			sub.EndKey = req.EndKey
			if d.EndKey != nil && (sub.EndKey == nil || bytes.Compare(d.EndKey, sub.EndKey) < 0) {
				sub.EndKey = d.EndKey
			}
			sub.MaxRows = remaining
			subs[i] = &sub
			lastEnd = sub.EndKey
		}
		resps := make([]Response, len(subs))
		p.Fanout("ds/scan-range", len(subs), func(wp *sim.Proc, i int) {
			ds.sendToRange(wp, subs[i:i+1], resps[i:i+1], 0)
		})
		var resume mvcc.Key
		full := false
		for _, resp := range resps {
			if resp.Err != nil {
				sp.SetError(resp.Err)
				return resp
			}
			ranges++
			sr := resp.Scan
			if served == 0 {
				served = sr.ServedBy
			}
			for _, kvr := range sr.Rows {
				rows = append(rows, kvr)
				if req.MaxRows > 0 && len(rows) >= req.MaxRows {
					full = true
					break
				}
			}
			if full {
				break
			}
			if sr.ResumeKey != nil {
				// The replica served less than we asked of it: continue
				// from its resume key and discard any later ranges'
				// results (they may overlap the resumed span).
				resume = sr.ResumeKey
				break
			}
		}
		if full {
			break
		}
		if resume != nil {
			cursor = resume
			continue
		}
		// All dispatched sub-scans completed. If the catalog's coverage
		// stopped short of the requested span, continue from the last
		// covered key.
		if lastEnd != nil && (req.EndKey == nil || bytes.Compare(lastEnd, req.EndKey) < 0) {
			cursor = lastEnd
			continue
		}
		break
	}
	sp.SetTagInt("ranges", int64(ranges)).SetTagInt("rows", int64(len(rows)))
	if ds.Metrics != nil {
		ds.Metrics.Histogram("ds.scan.ranges").Record(int64(ranges))
	}
	return Response{Scan: ScanResponse{Rows: rows, ServedBy: served}}
}

// NegotiateBoundedStaleness implements the two-phase bounded staleness
// protocol of §5.3.2 for a set of key spans: ask the nearest replica of
// each touched range for its locally servable timestamp and take the
// minimum. The caller compares the result against its staleness bound.
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
			// Bounded staleness tolerates replica unavailability (§5.3.2):
			// try every replica in nearest-first order (live ones ahead of
			// suspect ones) and take the first answer, rather than failing
			// on the first transient RPC error.
			var lastErr error
			answered := false
			for _, target := range ds.replicasByPreference(desc) {
				b := ds.getBatch()
				b.RangeID, b.Reqs = desc.RangeID, append(b.Reqs, &NegotiateRequest{StartKey: span[0], EndKey: span[1]})
				raw, err := ds.Net.SendRPC(p, ds.NodeID, target, b, 0)
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
