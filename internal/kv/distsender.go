package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
	// Batches counts SendBatch calls; BatchedReqs the requests they carried.
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
	for _, id := range d.Replicas() {
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
	out := append([]simnet.NodeID(nil), d.Replicas()...)
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
	return ds.sendToRange(p, []interface{}{req}, 0)[0]
}

// SendBatch routes a batch of point requests: it groups them by range
// descriptor, dispatches one RPC per touched range in parallel (virtual
// latency is the max over ranges, not the sum), and returns responses in
// request order. Unroutable requests get per-slot errors; the rest of the
// batch still dispatches.
func (ds *DistSender) SendBatch(p *sim.Proc, reqs []interface{}) []Response {
	if len(reqs) == 0 {
		return nil
	}
	sp, finish := ds.Tracer.StartIn(p, "ds.batch")
	defer finish()
	if sp != nil {
		sp.SetTag("req", reqName(reqs[0])).SetTagInt("reqs", int64(len(reqs)))
	}
	resps, ranges := ds.sendBatchInner(p, reqs, 0)
	sp.SetTagInt("ranges", int64(ranges))
	ds.Batches++
	ds.BatchedReqs += int64(len(reqs))
	if ds.Metrics != nil {
		ds.Metrics.Histogram("ds.batch.size").Record(int64(len(reqs)))
		ds.Metrics.Histogram("ds.batch.ranges").Record(int64(ranges))
	}
	return resps
}

// batchGroup is one per-range slice of request indices within a batch.
type batchGroup struct {
	rid  RangeID
	idxs []int32
}

// sendBatchInner splits reqs into per-range groups (first-occurrence
// order) and dispatches them; it returns the merged responses in request
// order plus the number of ranges touched.
//
// A batch that lands entirely on one range — the overwhelmingly common
// case, every point read and write of a transaction included — is the
// sub-batch itself: sendToRange's responses are returned as they are, with
// no grouping or merge buffers at all. Otherwise grouping is slice-based
// rather than map-based: requests are assigned a group ordinal in one pass
// (memoizing the last descriptor, since batches are usually key-ordered and
// range-clustered).
func (ds *DistSender) sendBatchInner(p *sim.Proc, reqs []interface{}, depth int) ([]Response, int) {
	if q, err := asRequest(reqs[0]); err == nil {
		if d, err := ds.Catalog.Lookup(q.routingKey()); err == nil && descContainsAll(d, reqs) {
			return ds.sendToRange(p, reqs, depth), 1
		}
	}
	resps := make([]Response, len(reqs))
	var groups []batchGroup
	var desc *RangeDescriptor // memoized last descriptor
	gid := -1                 // memoized group ordinal for desc
	for i, req := range reqs {
		q, err := asRequest(req)
		if err != nil {
			resps[i] = Response{Err: err}
			continue
		}
		key := q.routingKey()
		if desc == nil || !desc.ContainsKey(key) {
			d, err := ds.Catalog.Lookup(key)
			if err != nil {
				resps[i] = Response{Err: err}
				continue
			}
			desc = d
			gid = -1
			for g := range groups {
				if groups[g].rid == d.RangeID {
					gid = g
					break
				}
			}
			if gid == -1 {
				gid = len(groups)
				groups = append(groups, batchGroup{rid: d.RangeID})
			}
		}
		groups[gid].idxs = append(groups[gid].idxs, int32(i))
	}
	p.Fanout("ds/batch-range", len(groups), func(wp *sim.Proc, g int) {
		idxs := groups[g].idxs
		sub := make([]interface{}, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		out := ds.sendToRange(wp, sub, depth)
		for j, i := range idxs {
			resps[i] = out[j]
		}
	})
	return resps, len(groups)
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

// errResponses fills one error Response per request.
func errResponses(n int, err error) []Response {
	resps := make([]Response, n)
	for i := range resps {
		resps[i] = Response{Err: err}
	}
	return resps
}

// sendToRange dispatches a per-range sub-batch (usually a singleton) as one
// RPC, retrying around leaseholder moves, follower-read misses, and range
// moves. A retriable error on any response retries the whole sub-batch; if
// a split moved some keys out of the range mid-flight, the sub-batch is
// re-split through sendBatchInner. A sub-batch that mixes follower-eligible
// reads with leaseholder-only requests goes out as two RPCs (sendSplit).
func (ds *DistSender) sendToRange(p *sim.Proc, reqs []interface{}, depth int) []Response {
	first, err := asRequest(reqs[0])
	if err != nil {
		return errResponses(len(reqs), err)
	}
	followers := 0
	for _, r := range reqs {
		if q, err := asRequest(r); err == nil && q.followerOK() {
			followers++
		}
	}
	if followers > 0 && followers < len(reqs) {
		return ds.sendSplit(p, reqs, depth)
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
			return errResponses(len(reqs), err)
		}
		if len(reqs) > 1 && depth < maxBatchSplitDepth && !descContainsAll(desc, reqs) {
			// The range split under the batch: re-split against the fresh
			// descriptors.
			sp.SetTag("resplit", "true")
			resps, _ := ds.sendBatchInner(p, reqs, depth+1)
			return resps
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
		raw, rpcErr := ds.Net.SendRPC(p, ds.NodeID, target,
			BatchRequest{RangeID: desc.RangeID, Reqs: reqs, Trace: asp.Ctx()}, 0)
		if rpcErr != nil {
			// Node unreachable: back off and re-route (the descriptor or
			// lease may move during failover).
			lastErr = rpcErr
			asp.SetError(rpcErr)
			ds.Retries++
			forceLeaseholder = false
			attemptDone()
			backoff(asp, desc)
			continue
		}
		resps := raw.(*BatchResponse).Resps
		// A retriable error on any response retries the whole sub-batch
		// (requests are idempotent at the MVCC layer: re-evaluating a
		// write lays down the same intent, and a MustNotExist write is
		// satisfied by the intent its first attempt laid).
		retriable := false
		for _, resp := range resps {
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
			continue
		}
		attemptDone()
		return resps
	}
	err = fmt.Errorf("kv: request to %q failed after %d attempts", key, maxSendAttempts)
	if lastErr != nil {
		err = fmt.Errorf("kv: request to %q failed after %d attempts: last attempt: %w",
			key, maxSendAttempts, lastErr)
	}
	sp.SetError(err)
	return errResponses(len(reqs), err)
}

// sendSplit sends one range's sub-batch as two RPCs in parallel: the
// follower-eligible reads to the nearest replica and everything else to the
// leaseholder. A write riding beside a GLOBAL-table read then costs the read
// nothing: the read stays local, and the batch pays the write's trip alone.
func (ds *DistSender) sendSplit(p *sim.Proc, reqs []interface{}, depth int) []Response {
	var parts [2][]interface{}
	var idxs [2][]int
	for i, r := range reqs {
		k := 0
		if q, err := asRequest(r); err == nil && q.followerOK() {
			k = 1
		}
		parts[k] = append(parts[k], r)
		idxs[k] = append(idxs[k], i)
	}
	resps := make([]Response, len(reqs))
	p.Fanout("ds/follower-split", 2, func(wp *sim.Proc, k int) {
		for j, resp := range ds.sendToRange(wp, parts[k], depth) {
			resps[idxs[k][j]] = resp
		}
	})
	return resps
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
			resps[i] = ds.sendToRange(wp, subs[i:i+1], 0)[0]
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
	return Response{Scan: &ScanResponse{Rows: rows, ServedBy: served}}
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
				raw, err := ds.Net.SendRPC(p, ds.NodeID, target,
					BatchRequest{RangeID: desc.RangeID, Reqs: []interface{}{&NegotiateRequest{StartKey: span[0], EndKey: span[1]}}}, 0)
				if err != nil {
					ds.Retries++
					lastErr = err
					continue
				}
				resp := raw.(*BatchResponse).Resps[0]
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
