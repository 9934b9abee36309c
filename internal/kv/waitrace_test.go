package kv

import (
	"errors"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestWaitingRequestReroutesAfterSplit: a request that parks (lock, latch,
// intent) may wake up on a range that no longer owns its key. The left-hand engine keeps a copy of the right half's
// data that later writes never reach, so evaluating against it reads stale
// values; the request must be re-routed instead.
func TestWaitingRequestReroutesAfterSplit(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	key := mvcc.Key("m")

	var get, put Response
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		// A writer holds the latch while both requests arrive…
		rep.latch(p, key)
		done := sim.NewWaitGroup(h.s)
		done.Add(2)
		h.s.Spawn("get", func(gp *sim.Proc) {
			defer done.Done()
			get = rep.evaluate(gp, &GetRequest{Key: key, Timestamp: st.Clock.Now()})
		})
		h.s.Spawn("put", func(pp *sim.Proc) {
			defer done.Done()
			put = rep.evaluate(pp, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: st.Clock.Now()})
		})
		p.Sleep(10 * sim.Millisecond)
		// …and the range splits below the key before the latch frees.
		if _, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		rep.unlatch(key)
		done.Wait(p)
		return nil
	})
	var mismatch *RangeKeyMismatchError
	if !errors.As(get.Err, &mismatch) {
		t.Errorf("get evaluated on the left-hand side after the split: %+v", get)
	}
	if !errors.As(put.Err, &mismatch) {
		t.Errorf("put evaluated on the left-hand side after the split: %+v", put)
	}
}

// TestFencedLeaseholderRefreshIsAFollowerRead: a leaseholder whose lease a
// peer fenced with an epoch bump still holds a descriptor naming itself, but
// it is no longer the range's authority. A refresh it receives is served only
// under its closed timestamp, like any follower's, and is never recorded in
// its timestamp cache: writes that replica evaluates are not the range's.
func TestFencedLeaseholderRefreshIsAFollowerRead(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc, err := h.admin.CreateRange(mvcc.Key("a"), mvcc.Key("z"),
		zones.Placement{Voters: []simnet.NodeID{1, 2, 3}, Leaseholder: 1}, ClosedTSLead)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := h.stores[1].Replica(desc.RangeID)
	h.run(t, 15*sim.Second, func(p *sim.Proc) error {
		if err := h.admin.WaitReady(p, desc.RangeID); err != nil {
			return err
		}
		// A write carrying a closed-timestamp promise gives the replica a
		// closed timestamp of its own.
		cmd := putCmd(h.stores[1], "w", "v")
		cmd.ClosedTS = rep.closed.issue(h.stores[1].Clock.Now())
		return rep.propose(p, cmd)
	})
	h.net.Partition(1, 2)
	h.net.Partition(1, 3)
	h.s.RunFor(20 * sim.Second)
	if !rep.isLeaseholder() || rep.hasValidLease() {
		t.Fatalf("n1 should still name itself leaseholder of a fenced lease: holder n%d, valid %v",
			rep.desc.Leaseholder, rep.hasValidLease())
	}

	key := mvcc.Key("k")
	before, _ := rep.keys.maxRead(key, 0)
	closed := rep.ClosedTimestamp()
	if closed.IsEmpty() {
		t.Fatal("the fenced replica has no closed timestamp")
	}
	from := closed.Add(-sim.Second)
	var above, below Response
	h.run(t, sim.Second, func(p *sim.Proc) error {
		above = rep.evaluate(p, &RefreshRequest{Key: key, FromTS: from, ToTS: closed.Add(sim.Second), TxnID: 7})
		below = rep.evaluate(p, &RefreshRequest{Key: key, FromTS: from, ToTS: closed, TxnID: 7})
		return nil
	})
	var unavailable *FollowerReadUnavailableError
	if !errors.As(above.Err, &unavailable) {
		t.Errorf("refresh above the fenced replica's closed timestamp: %+v, want FollowerReadUnavailableError", above)
	}
	if below.Err != nil || !below.Refresh.Success {
		t.Errorf("refresh below the fenced replica's closed timestamp: %+v, want Success", below)
	}
	if after, _ := rep.keys.maxRead(key, 0); after != before {
		t.Errorf("fenced replica recorded a refresh in its timestamp cache: %v -> %v", before, after)
	}
}

// TestRefreshWaitsForInFlightWrite: a write between evaluation and
// application has already passed the timestamp cache, so a refresh that
// does not wait for it would bless a read the write invalidates.
func TestRefreshWaitsForInFlightWrite(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	key := mvcc.Key("k")

	var resp Response
	answered := false
	h.run(t, sim.Second, func(p *sim.Proc) error {
		from := st.Clock.Now()
		p.Sleep(sim.Millisecond)
		writeTS := st.Clock.Now()
		p.Sleep(sim.Millisecond)
		to := st.Clock.Now()
		// The write is evaluated (latch held) but not yet applied.
		rep.latch(p, key)
		done := sim.NewWaitGroup(h.s)
		done.Add(1)
		h.s.Spawn("refresh", func(rp *sim.Proc) {
			defer done.Done()
			resp = rep.evaluate(rp, &RefreshRequest{Key: key, FromTS: from, ToTS: to, TxnID: 7})
			answered = true
		})
		p.Sleep(10 * sim.Millisecond)
		if answered {
			t.Errorf("refresh answered %+v while a write on the key was in flight", resp)
		}
		if _, err := rep.engine.Put(key, mvcc.Value("v"), writeTS, nil); err != nil {
			return err
		}
		rep.unlatch(key)
		done.Wait(p)
		return nil
	})
	if resp.Err != nil || resp.Refresh.Success {
		t.Fatalf("refresh across an applied write: %+v, want Success=false", resp)
	}
}

// TestSplitRightHalfLedPromptly: the right half's leaseholder campaigns as
// the split applies locally, before any follower has created its replica,
// so those vote requests are dropped. SplitRange must re-campaign once a
// quorum of the new range exists rather than leave the right half
// leaderless until an election timeout.
func TestSplitRightHalfLedPromptly(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	var took sim.Duration
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		start := p.Now()
		_, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h"))
		took = p.Now().Sub(start)
		return err
	})
	if took >= electionTimeoutFloor {
		t.Fatalf("split left the right half leaderless for %v (an election timeout)", took)
	}
}

// electionTimeoutFloor is below raft's 2s election timeout and well above
// one 400ms append interval plus a round trip.
const electionTimeoutFloor = sim.Second

// TestRightHalfWaitsForInFlightLeftWrites: a write the left half evaluated
// before a split, but whose entry sits behind the split in the log, applies
// into the right half's engine. A read on the right half must wait for it
// (it holds its latch on the left half) instead of reading around it.
func TestRightHalfWaitsForInFlightLeftWrites(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	lhs, _ := st.Replica(desc.RangeID)
	key := mvcc.Key("m")

	var got Response
	answered := false
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		lhs.latch(p, key)         // the in-flight write…
		writeTS := st.Clock.Now() // …evaluated at this timestamp
		rdesc, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h"))
		if err != nil {
			return err
		}
		rhs, _ := st.Replica(rdesc.RangeID)
		done := sim.NewWaitGroup(h.s)
		done.Add(1)
		h.s.Spawn("get", func(gp *sim.Proc) {
			defer done.Done()
			got = rhs.evaluate(gp, &GetRequest{Key: key, Timestamp: st.Clock.Now()})
			answered = true
		})
		p.Sleep(10 * sim.Millisecond)
		if answered {
			t.Errorf("right half read around an in-flight left-half write: %+v", got)
		}
		// The write applies (into the right half's engine), then unlatches.
		if _, err := lhs.engineFor(key).Put(key, mvcc.Value("v"), writeTS, nil); err != nil {
			return err
		}
		lhs.unlatch(key)
		done.Wait(p)
		return nil
	})
	if got.Err != nil || string(got.Get.Value) != "v" {
		t.Fatalf("read after the write applied: %+v", got)
	}
}

// TestQueryIntentReroutesAfterSplit: a QueryIntent that waits on its key's
// latch may wake up on a range that no longer owns the key. The left-hand
// engine keeps its copy of the right half's data as it was at the split,
// which the intent laid on the right-hand range since never reaches. The
// waiting request must get RangeKeyMismatchError instead of answering from
// that copy, and a QueryIntent sent through the DistSender must take the
// right-hand range's answer.
func TestQueryIntentReroutesAfterSplit(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	rep, _ := st.Replica(desc.RangeID)
	ds := &DistSender{NodeID: 1, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
	key := mvcc.Key("m")
	tx := GatewayTxn(st, key, 0)
	query := &QueryIntentRequest{Key: key, TxnID: tx.Meta.ID, Epoch: tx.Meta.Epoch}

	var direct, routed, put Response
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		// A writer holds the latch while both queries arrive…
		rep.latch(p, key)
		done := sim.NewWaitGroup(h.s)
		done.Add(3)
		h.s.Spawn("query-intent", func(qp *sim.Proc) {
			defer done.Done()
			direct = rep.evaluate(qp, query)
		})
		h.s.Spawn("ds-query-intent", func(qp *sim.Proc) {
			defer done.Done()
			routed = ds.Send(qp, query)
		})
		p.Sleep(10 * sim.Millisecond)
		// …the range splits below the key, and the transaction's write
		// queues behind the queries for the latch, which moved to the
		// right-hand range with its key; it lays its intent there only.
		if _, err := h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		h.s.Spawn("put", func(wp *sim.Proc) {
			defer done.Done()
			put = ds.Send(wp, &PutRequest{Key: key, Value: mvcc.Value("v"), Timestamp: tx.Meta.WriteTimestamp, Txn: tx})
		})
		p.Sleep(sim.Millisecond)
		rep.unlatch(key)
		done.Wait(p)
		return nil
	})
	if put.Err != nil {
		t.Fatalf("put: %v", put.Err)
	}
	var mismatch *RangeKeyMismatchError
	if !errors.As(direct.Err, &mismatch) {
		t.Errorf("QueryIntent evaluated on the left-hand side after the split: %+v", direct)
	}
	if routed.Err != nil || !routed.QueryIntent.Found {
		t.Errorf("DistSender QueryIntent = %+v (err %v), want the right-hand range's Found", routed.QueryIntent, routed.Err)
	}
}

// TestLeaderReclaimsItsFencedLease: a peer that bumps a node's epoch to take
// one range's lease fences every lease the node holds. A range whose leader
// is that node and keeps leading — its voters share a region that failed
// and recovered as a whole — gets no leader change to start an acquisition,
// and its lease once stayed fenced for good: every request bounced off the
// leaseholder until the sender gave up. The leader reclaims the lease under
// its new epoch and serves again.
func TestLeaderReclaimsItsFencedLease(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	rep, _ := h.stores[1].Replica(desc.RangeID)
	h.run(t, 15*sim.Second, func(p *sim.Proc) error {
		if err := h.admin.WaitReady(p, desc.RangeID); err != nil {
			return err
		}
		// Another range's acquisition found n1's record expired and fenced it.
		h.nl.recs[1].Expiration = p.Now() - 1
		if !h.nl.IncrementEpoch(1, p.Now()) {
			t.Fatal("could not fence n1")
		}
		p.Sleep(5 * sim.Second)
		return nil
	})
	if !rep.raft.IsLeader() || !rep.isLeaseholder() || !rep.hasValidLease() || rep.leaseEpoch != h.nl.Epoch(1) {
		t.Fatalf("n1 leader %v, named leaseholder %v, lease valid %v (lease epoch %d, node epoch %d): want a reclaimed lease",
			rep.raft.IsLeader(), rep.isLeaseholder(), rep.hasValidLease(), rep.leaseEpoch, h.stores[1].CurrentEpoch())
	}
	var resp Response
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp = rep.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: h.stores[1].Clock.Now()})
		return nil
	})
	if resp.Err != nil {
		t.Fatalf("read at the leaseholder after the reclaim: %v", resp.Err)
	}
}
