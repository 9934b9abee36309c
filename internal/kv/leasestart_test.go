package kv

import (
	"errors"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// TestLeaseStasis: a leaseholder serves no read at or past the expiration a
// peer acked its liveness record to, and one just below it lies below where
// the lease that replaces it after a failover starts: the successor fences
// the record at that expiration and starts its lease there, so a write it
// evaluates cannot land below a read the old leaseholder served.
func TestLeaseStasis(t *testing.T) {
	h := newRecoveryHarness(t, 5, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(5 * sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	var served hlc.Timestamp
	h.run(t, sim.Second, func(p *sim.Proc) error {
		acked := hlc.Timestamp{WallTime: int64(h.stores[1].ackedExp)}
		resp := r1.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: acked})
		var nle *NotLeaseholderError
		if !errors.As(resp.Err, &nle) {
			t.Errorf("n1 answered a read at its acked expiration %v with %v, want NotLeaseholderError", acked, resp.Err)
		}
		served = acked.Prev()
		if resp := r1.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: served}); resp.Err != nil {
			t.Errorf("n1 refused a read just below its acked expiration: %v", resp.Err)
		}
		return nil
	})
	h.net.CrashNode(1)
	h.stores[1].Crash()
	h.s.RunFor(10 * sim.Second)
	cur, _ := h.cat.LookupByID(desc.RangeID)
	if cur.Leaseholder == 1 {
		t.Fatal("setup: no survivor took the lease")
	}
	fenced := hlc.Timestamp{WallTime: int64(h.nl.Fenced(1))}
	if !served.Less(cur.LeaseStart) || cur.LeaseStart != fenced {
		t.Fatalf("n1 served a read at %v; n%d's lease starts at %v, want n1's fenced expiration %v, above the read",
			served, cur.Leaseholder, cur.LeaseStart, fenced)
	}
	lh, _ := h.stores[cur.Leaseholder].Replica(desc.RangeID)
	h.run(t, sim.Second, func(p *sim.Proc) error {
		resp := lh.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: served})
		if resp.Err != nil || !served.Less(resp.Put.WriteTimestamp) {
			t.Errorf("a write at the served read's %v landed at %v (%v), want above it", served, resp.Put.WriteTimestamp, resp.Err)
		}
		return nil
	})
}

// TestTransferredLeaseStartsAtNewestRead: a cooperative transfer starts the
// new lease at the newest read the old leaseholder served, which its key
// table holds, not at its clock plus the maximum offset. A write evaluated
// right after the transfer lands at its own timestamp and its gateway
// commit-waits nothing; a write of the key that was read still lands above
// the read.
func TestTransferredLeaseStartsAtNewestRead(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r2, _ := h.stores[2].Replica(desc.RangeID)
	clock := h.stores[2].Clock
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		read := h.stores[1].Clock.Now()
		if resp := r1.evaluate(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: read}); resp.Err != nil {
			return resp.Err
		}
		if err := h.admin.TransferLease(p, desc.RangeID, 2); err != nil {
			return err
		}
		if r2.desc.LeaseStart != read {
			t.Errorf("n2's lease starts at %v, want n1's newest read %v", r2.desc.LeaseStart, read)
		}
		ts := clock.Now()
		resp := r2.evaluate(p, &PutRequest{Key: mvcc.Key("w"), Value: mvcc.Value("v"), Timestamp: ts})
		if resp.Err != nil {
			return resp.Err
		}
		if wts := resp.Put.WriteTimestamp; wts != ts || clock.NowAfter(wts) != 0 {
			t.Errorf("a write at %v right after the transfer landed at %v: its gateway commit-waits %v, want 0",
				ts, wts, clock.NowAfter(wts))
		}
		resp = r2.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: read})
		if resp.Err != nil || !read.Less(resp.Put.WriteTimestamp) {
			t.Errorf("a write of the read key at %v landed at %v (%v), want above the read", read, resp.Put.WriteTimestamp, resp.Err)
		}
		return nil
	})
}

// TestReadParkedOnLatchAcrossTransferIsRefused: a read that the leaseholder
// began while its lease was valid, and that waits on a write's latch while
// the lease is transferred away, is refused when the latch frees. The
// transfer started the new lease at the newest read the key table held when
// it was proposed; a read served after that, at a later timestamp, could sit
// above the new lease's start, where the new leaseholder may write.
func TestReadParkedOnLatchAcrossTransferIsRefused(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	// Slow appends hold the write's latch until after the transfer is
	// proposed.
	for _, id := range []simnet.NodeID{2, 3} {
		h.net.SlowLink(1, id, 300*sim.Millisecond)
	}
	clock := h.stores[1].Clock
	var read Response
	readDone := false
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		if resp := r1.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: clock.Now(), Pipelined: true}); resp.Err != nil {
			return resp.Err
		}
		h.s.Spawn("read", func(rp *sim.Proc) {
			read = r1.evaluate(rp, &GetRequest{Key: mvcc.Key("k"), Timestamp: clock.Now()})
			readDone = true
		})
		p.Sleep(sim.Millisecond)
		if readDone {
			t.Fatal("setup: the read did not wait on the write's latch")
		}
		return h.admin.TransferLease(p, desc.RangeID, 2)
	})
	var nle *NotLeaseholderError
	if !readDone || !errors.As(read.Err, &nle) {
		t.Fatalf("a read parked on a latch across the transfer: done=%v, err=%v; want NotLeaseholderError", readDone, read.Err)
	}
}

// TestRPCEndsWhenItsTargetsRecordLapses: a DistSender attempt to a node that
// crashed while the request was in flight ends the instant the node's
// liveness record expires, within the TTL and a round trip of the send, not
// at the 10 s RPC timeout. A live node's reply slower than the record's
// remaining life is still waited for: the wait re-arms while the record is
// renewed.
func TestRPCEndsWhenItsTargetsRecordLapses(t *testing.T) {
	const gateway = simnet.NodeID(5)
	setup := func(t *testing.T) (*recoveryHarness, *DistSender, *BatchRequest) {
		h := newRecoveryHarness(t, 5, 0)
		desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
		h.s.RunFor(5 * sim.Second)
		ds := &DistSender{NodeID: gateway, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}
		b := ds.getBatch()
		b.RangeID, b.Reqs = desc.RangeID, append(b.Reqs, &GetRequest{Key: mvcc.Key("k"), Timestamp: h.stores[gateway].Clock.Now()})
		return h, ds, b
	}
	t.Run("crashed", func(t *testing.T) {
		h, ds, b := setup(t)
		h.run(t, 15*sim.Second, func(p *sim.Proc) error {
			start := p.Now()
			h.s.After(sim.Microsecond, func() {
				h.net.CrashNode(1)
				h.stores[1].Crash()
			})
			_, err := ds.sendRPC(p, 1, b)
			exp, _ := h.nl.Expiration(1)
			var rpc *simnet.ErrRPC
			if !errors.As(err, &rpc) || rpc.Timeout == 0 {
				t.Errorf("attempt to the crashed n1: %v, want a timed-out ErrRPC", err)
			}
			bound := LivenessTTL + h.topo.NodeRTT(gateway, 1)
			if p.Now() != exp.Add(1) || p.Now().Sub(start) > bound {
				t.Errorf("attempt sent at %v ended at %v; n1's record expired at %v: want the next instant, within %v of the send",
					start, p.Now(), exp, bound)
			}
			return nil
		})
	})
	t.Run("slow but live", func(t *testing.T) {
		h, ds, b := setup(t)
		const slow = 4 * sim.Second
		h.net.SlowLink(1, gateway, slow)
		h.run(t, 15*sim.Second, func(p *sim.Proc) error {
			start := p.Now()
			if exp, _ := h.nl.Expiration(1); exp >= start.Add(slow) {
				t.Fatalf("setup: n1's record (expiring %v) outlives the %v reply sent at %v", exp, slow, start)
			}
			raw, err := ds.sendRPC(p, 1, b)
			if err != nil || p.Now().Sub(start) < slow {
				t.Errorf("attempt to the live n1 with a %v reply: %v after %v, want its reply", slow, err, p.Now().Sub(start))
			} else if resp := raw.(*BatchRequest).Resps[0]; resp.Err != nil {
				t.Errorf("n1 answered %v", resp.Err)
			}
			return nil
		})
	})
}

// TestOvertakenLeaseIsDropped: a lease applies only on top of the descriptor
// generation it was derived from, as a descriptor update does. A lease
// proposed before a placement update applied, and landing after it in the
// log, used to install its older descriptor and undo the update: in
// `mrchaos -seed 373 -faults 12` a leader's reclaim of its own fenced lease
// reverted a relocation's new voters, and the range's zone config and
// replicas disagreed for 11 s. Its proposer looks again instead.
func TestOvertakenLeaseIsDropped(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		lease := r1.desc.Clone()
		lease.Leaseholder = 2
		lease.Generation++
		update := r1.desc.Clone()
		update.Policy = ClosedTSLead
		update.Generation++
		if err := r1.propose(p, &Command{Kind: CmdDescUpdate, Desc: update, ClosedTS: r1.closed.issued}); err != nil {
			return err
		}
		if err := r1.propose(p, &Command{Kind: CmdLeaseTransfer, Desc: lease, LeaseEpoch: h.nl.Epoch(2), ClosedTS: r1.closed.issued}); err != nil {
			return err
		}
		return nil
	})
	h.s.RunFor(sim.Second)
	for _, id := range desc.Voters {
		r, _ := h.stores[id].Replica(desc.RangeID)
		if d := r.desc; d.Policy != ClosedTSLead || d.Leaseholder != 1 || d.Generation != desc.Generation+1 {
			t.Errorf("n%d: descriptor generation %d, policy %v, leaseholder n%d; want the update's (generation %d, %v, n1)",
				id, d.Generation, d.Policy, d.Leaseholder, desc.Generation+1, ClosedTSLead)
		}
	}
}
