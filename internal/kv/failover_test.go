package kv

import (
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
	"mrdb/internal/zones"
)

// quorumRound bounds one replication round between a and b: a round trip at
// the top of the network's jitter plus the follower's fsync, which the
// leader's own overlaps.
func (h *recoveryHarness) quorumRound(a, b simnet.NodeID) sim.Duration {
	return sim.Duration(float64(h.topo.NodeRTT(a, b))*(1+h.topo.Jitter)) + storage.DefaultFsyncDelay
}

// TestFailoverLeaseAtLivenessExpiry crashes the leaseholder of a durable
// range. Its successor claims the lease the first instant both of these
// hold: it leads with its term's no-op applied, and the incumbent's liveness
// record has expired (Expiration + 1ns). An election won before the expiry
// proposes the lease at the expiry instant; one won after it proposes the
// lease in the instant its no-op applies. Either way the lease applies one
// quorum round later.
func TestFailoverLeaseAtLivenessExpiry(t *testing.T) {
	for _, c := range []struct {
		name  string
		early bool
	}{
		{"election before expiry", true},
		{"election after expiry", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// n4 and n5 hold no replica: they keep n2's and n3's liveness
			// records renewed while n2 and n3 cannot reach each other.
			h := newRecoveryHarness(t, 5, 0)
			desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
			h.s.RunFor(5 * sim.Second)
			h.net.CrashNode(1)
			h.stores[1].Crash()
			exp, _ := h.nl.Expiration(1) // no ping of n1's is delivered from now on
			epoch := h.nl.Epoch(1)
			r2, _ := h.stores[2].Replica(desc.RangeID)
			r3, _ := h.stores[3].Replica(desc.RangeID)
			routed, _ := h.cat.LookupByID(desc.RangeID)
			var published sim.Time
			// The first write, evaluated when the lease is published, lands
			// at its gateway's clock reading: the lease starts at n1's fenced
			// expiration, which has passed, so nothing pushes the write ahead
			// and its gateway (n5) commit-waits nothing.
			gateway := h.stores[5].Clock
			var written, wts hlc.Timestamp
			var wait sim.Duration
			h.s.Spawn("publication", func(p *sim.Proc) {
				h.cat.WaitNewer(p, desc.RangeID, routed.Generation, sim.Minute)
				published = p.Now()
				cur, _ := h.cat.LookupByID(desc.RangeID)
				lh, _ := h.stores[cur.Leaseholder].Replica(desc.RangeID)
				written = gateway.Now()
				resp := lh.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: written})
				if resp.Err != nil {
					t.Errorf("first write after the failover: %v", resp.Err)
				}
				wts, wait = resp.Put.WriteTimestamp, gateway.NowAfter(resp.Put.WriteTimestamp)
			})

			var leader *Replica
			var proposed sim.Time
			if c.early {
				r2.raft.Campaign()
				h.s.RunUntil(exp)
				if !r2.raft.IsLeader() || r2.raft.AppliedTerm() != r2.raft.Term() {
					t.Fatalf("setup: at n1's expiration %v n2 leads=%v with its no-op applied=%v", exp, r2.raft.IsLeader(), r2.raft.AppliedTerm() == r2.raft.Term())
				}
				last := r2.raft.LastIndex()
				if h.nl.Epoch(1) != epoch || r2.hasValidLease() {
					t.Fatalf("n1 fenced (epoch %d -> %d) or lease taken while its record was live", epoch, h.nl.Epoch(1))
				}
				h.s.RunUntil(exp.Add(1))
				if h.nl.Epoch(1) != epoch+1 || r2.raft.LastIndex() != last+1 {
					t.Fatalf("at n1's expiry instant: epoch %d (want %d), log %d -> %d; want the lease proposed then",
						h.nl.Epoch(1), epoch+1, last, r2.raft.LastIndex())
				}
				leader, proposed = r2, exp.Add(1)
			} else {
				// Neither survivor can win an election without the other.
				h.net.Partition(2, 3)
				h.s.RunUntil(exp.Add(100 * sim.Millisecond))
				if r2.raft.IsLeader() || r3.raft.IsLeader() || h.nl.Epoch(1) != epoch {
					t.Fatal("setup: a survivor led (or fenced n1) while partitioned from the other")
				}
				h.net.Heal(2, 3)
				// Watch each survivor from the instant its term's no-op
				// applies: the acquirer, woken by the same broadcast, has
				// proposed the lease once every wake of that instant ran.
				for _, r := range []*Replica{r2, r3} {
					h.s.Spawn("watch", func(p *sim.Proc) {
						for !r.raft.IsLeader() || r.raft.AppliedTerm() != r.raft.Term() {
							r.leaderApplied.Wait(p)
						}
						at, noop := p.Now(), r.raft.Applied()
						p.Sleep(0)
						if p.Now() != at || r.raft.LastIndex() != noop+1 || h.nl.Epoch(1) != epoch+1 {
							t.Errorf("n%d applied its no-op (index %d) at %v; at that instant its log ends at %d and n1's epoch is %d, want the lease proposed",
								r.store.NodeID, noop, at, r.raft.LastIndex(), h.nl.Epoch(1))
						}
						leader, proposed = r, at
					})
				}
				h.s.RunFor(10 * sim.Second)
				if leader == nil {
					t.Fatal("no survivor led after the partition healed")
				}
				if proposed <= exp {
					t.Fatalf("setup: the election (lease proposed at %v) did not come after n1's expiration %v", proposed, exp)
				}
			}
			h.s.RunFor(10 * sim.Second)
			other := r3
			if leader == r3 {
				other = r2
			}
			if bound := h.quorumRound(leader.store.NodeID, other.store.NodeID); published < proposed || published > proposed.Add(bound) {
				t.Fatalf("n%d proposed the lease at %v and published it at %v, want within one quorum round (%v)",
					leader.store.NodeID, proposed, published, bound)
			}
			if !leader.hasValidLease() || leader.LeaseAcquisitions != 1 {
				t.Fatalf("n%d: valid lease %v after %d acquisitions, want one", leader.store.NodeID, leader.hasValidLease(), leader.LeaseAcquisitions)
			}
			if cur, _ := h.cat.LookupByID(desc.RangeID); cur.Leaseholder != leader.store.NodeID {
				t.Fatalf("catalog leaseholder n%d, want n%d", cur.Leaseholder, leader.store.NodeID)
			}
			if wts != written || wait != 0 {
				t.Fatalf("the first write after the failover, at %v, landed at %v: its gateway commit-waits %v, want 0", written, wts, wait)
			}
		})
	}
}

// TestBackoffWakesOnLeasePublication: a read whose leaseholder crashed backs
// off until a survivor's lease is published, and its next attempt leaves at
// that instant, so it is served one gateway-to-leaseholder round trip later
// however long its last backoff draw was. A backoff that sees no newer
// descriptor of its range — an unchanged re-publication, another range's
// change — waits out its whole draw.
func TestBackoffWakesOnLeasePublication(t *testing.T) {
	h := newRecoveryHarness(t, 5, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	other, err := h.admin.CreateRange(mvcc.Key("z"), nil, zones.Placement{Voters: []simnet.NodeID{2, 3, 4}, Leaseholder: 2}, ClosedTSLag, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.s.RunFor(5 * sim.Second)
	const gateway = simnet.NodeID(5)
	ds := &DistSender{NodeID: gateway, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}

	h.net.CrashNode(1)
	h.stores[1].Crash()
	routed, _ := h.cat.LookupByID(desc.RangeID)
	var published, served sim.Time
	var resp Response
	h.s.Spawn("publication", func(p *sim.Proc) {
		h.cat.WaitNewer(p, desc.RangeID, routed.Generation, sim.Minute)
		published = p.Now()
	})
	h.s.Spawn("read", func(p *sim.Proc) {
		resp = ds.Send(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: h.stores[gateway].Clock.Now()})
		served = p.Now()
	})
	h.s.RunFor(10 * sim.Second)
	if resp.Err != nil || published == 0 {
		t.Fatalf("read: %v; lease published at %v", resp.Err, published)
	}
	cur, _ := h.cat.LookupByID(desc.RangeID)
	rtt := sim.Duration(float64(h.topo.NodeRTT(gateway, cur.Leaseholder)) * (1 + h.topo.Jitter))
	if served < published || served > published.Add(rtt) {
		t.Fatalf("n%d's lease published at %v, read served at %v: want within one round trip (%v) of the publication",
			cur.Leaseholder, published, served, rtt)
	}
	if ds.Retries < 8 {
		t.Fatalf("setup: %d retries, want the read in a capped backoff when the lease moved", ds.Retries)
	}

	// No newer descriptor of the range: the whole draw is waited.
	h.s.Spawn("backoff", func(p *sim.Proc) {
		before, start := ds.BackoffTotal, p.Now()
		moved := other.Clone()
		moved.Generation++
		h.s.After(10*sim.Millisecond, func() {
			h.cat.Update(cur)   // the same generation again
			h.cat.Update(moved) // another range moves on
		})
		ds.backoff(p, 10, cur)
		waited := p.Now().Sub(start)
		if waited < retryBackoffMax/2 || waited > retryBackoffMax || ds.BackoffTotal-before != waited {
			t.Errorf("backoff with no newer descriptor waited %v and accrued %v, want its whole draw in [%v, %v]",
				waited, ds.BackoffTotal-before, retryBackoffMax/2, retryBackoffMax)
		}
	})
	h.s.RunFor(2 * sim.Second)
}

// TestTransferLeaseToLaggingFollower: a cooperative lease transfer whose
// target wins the election before it learns that the transfer committed. It
// must wait for the transfer to apply — its term's no-op applies only after
// it — and keep both the lease and leadership, never hand leadership back to
// the old leaseholder its stale descriptor still names.
func TestTransferLeaseToLaggingFollower(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(2 * sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r2, _ := h.stores[2].Replica(desc.RangeID)
	// Once the transfer has applied on n1, n1's appends to n2 (the ones that
	// would tell n2 it committed) are lost; its TimeoutNow is not.
	var handBacks int
	leaderNamed := simnet.NodeID(0)
	h.net.Register(2, func(m simnet.Message) {
		if env, ok := m.Payload.(*RaftEnvelope); ok && m.From == 1 && env.Msg.Kind == raft.MsgApp && r1.desc.Leaseholder == 2 {
			return
		}
		wasLeader := r2.raft.IsLeader()
		h.stores[2].handleMessage(m)
		if !wasLeader && r2.raft.IsLeader() && leaderNamed == 0 {
			leaderNamed = r2.desc.Leaseholder
		}
	})
	h.net.Register(1, func(m simnet.Message) {
		if env, ok := m.Payload.(*RaftEnvelope); ok && env.Msg.Kind == raft.MsgTimeoutNow {
			handBacks++
		}
		h.stores[1].handleMessage(m)
	})
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		return h.admin.TransferLease(p, desc.RangeID, 2)
	})
	h.s.RunFor(5 * sim.Second)
	if leaderNamed != 1 {
		t.Fatalf("setup: n2 became leader with its descriptor naming n%d as leaseholder, want the pre-transfer n1", leaderNamed)
	}
	if handBacks != 0 || !r2.raft.IsLeader() || r1.raft.IsLeader() {
		t.Fatalf("leadership handed back to n1 %d times; n2 leads=%v, n1 leads=%v", handBacks, r2.raft.IsLeader(), r1.raft.IsLeader())
	}
	cur, _ := h.cat.LookupByID(desc.RangeID)
	if !r2.hasValidLease() || cur.Leaseholder != 2 || r2.LeaseAcquisitions != 0 {
		t.Fatalf("n2 valid lease=%v, catalog leaseholder n%d, %d acquisitions; want the transferred lease kept", r2.hasValidLease(), cur.Leaseholder, r2.LeaseAcquisitions)
	}
}

// TestLeaseholderTakingOverMidSplitAppliesItFirst: the leaseholder commits a
// split and crashes in the instant it applied it, before any follower learns
// the entry committed. The follower that takes over must apply its term's
// no-op, and with it the split, before it claims the lease: a lease claimed
// on the pre-split descriptor would carry that wider span back over the
// right half when it applies, and the left half would serve the right
// half's keys outside the right half's log.
func TestLeaseholderTakingOverMidSplitAppliesItFirst(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r2, _ := h.stores[2].Replica(desc.RangeID)
	for _, id := range []simnet.NodeID{2, 3} {
		st := h.stores[id]
		h.net.Register(id, func(m simnet.Message) {
			if m.From == 1 && h.net.NodeDown(1) {
				return // nothing n1 sent reaches a follower once it crashed
			}
			st.handleMessage(m)
		})
	}
	h.s.Spawn("split", func(p *sim.Proc) { h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")) })
	for r1.desc.ContainsKey(mvcc.Key("m")) {
		h.s.RunFor(sim.Microsecond)
	}
	h.net.CrashNode(1)
	h.stores[1].Crash()
	if !r2.desc.ContainsKey(mvcc.Key("m")) {
		t.Fatal("setup: n2 applied the split before n1 crashed")
	}
	// n1's record has expired, so n2 claims the lease as soon as it may.
	h.nl.recs[1].Expiration = h.s.Now() - 1
	r2.raft.Campaign()
	h.s.RunFor(5 * sim.Second)
	if !r2.hasValidLease() {
		t.Fatal("n2 holds no valid lease after the takeover")
	}
	if r2.desc.ContainsKey(mvcc.Key("m")) {
		t.Fatalf("n2's left half spans [%q, %q) after the takeover: its lease carried the pre-split descriptor", r2.desc.StartKey, r2.desc.EndKey)
	}
}

// TestLeadershipFollowsATransferredLease: a lease transfer commits, but the
// target's TimeoutNow is lost, so its proposer keeps leading. The new
// leaseholder cannot propose, and no leader change comes. The old leader's
// next append checks the lease rule, which asks the leaseholder to campaign
// again: it leads within one heartbeat interval plus a round trip of the
// transfer applying, and serves writes.
func TestLeadershipFollowsATransferredLease(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	r2, _ := h.stores[2].Replica(desc.RangeID)
	lost := false
	h.net.Register(2, func(m simnet.Message) {
		if env, ok := m.Payload.(*RaftEnvelope); ok && env.Msg.Kind == raft.MsgTimeoutNow && !lost {
			lost = true
			return
		}
		h.stores[2].handleMessage(m)
	})
	var applied, led sim.Time
	h.s.Spawn("watch", func(p *sim.Proc) {
		for !r2.raft.IsLeader() {
			if r1.desc.Leaseholder != 2 {
				applied = p.Now()
			}
			p.Sleep(sim.Millisecond)
		}
		led = p.Now()
	})
	var put Response
	h.run(t, 15*sim.Second, func(p *sim.Proc) error {
		if err := h.admin.TransferLease(p, desc.RangeID, 2); err != nil {
			return err
		}
		put = r2.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: h.stores[2].Clock.Now()})
		return nil
	})
	if !lost {
		t.Fatal("setup: no TimeoutNow reached n2")
	}
	// TimeoutNow travels one way, and the vote takes a replication round.
	bound := raft.DefaultHeartbeatInterval + h.quorumRound(1, 2) + h.topo.OneWay(1, 2) + sim.Millisecond
	if d := led.Sub(applied); d > bound {
		t.Errorf("n2 led %v after the transfer applied, want within %v", d, bound)
	}
	if put.Err != nil {
		t.Errorf("write at the new leaseholder: %v", put.Err)
	}
}

// TestFencedLeaseholderServesAgain: the leaseholder's epoch is bumped — by
// another range's acquisition — while another voter leads. Here n2 holds the
// lease through a transfer proposed without asking n2 to campaign (as if its
// TimeoutNow were lost), so n1 still leads, and n2 is fenced in the instant
// the transfer applies. No leader change comes. The leader's lease rule still
// runs on its next append, and the range serves again within one liveness
// heartbeat interval, one heartbeat interval and a few replication rounds of
// the fence.
func TestFencedLeaseholderServesAgain(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(2 * sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	var fenced, served sim.Time
	var put Response
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		nd := r1.desc.Clone()
		nd.Leaseholder = 2
		nd.Generation++
		if err := r1.propose(p, &Command{
			Kind: CmdLeaseTransfer, Desc: nd, LeaseEpoch: h.nl.Epoch(2),
			ClosedTS: r1.closed.issued,
		}); err != nil {
			return err
		}
		h.nl.recs[2].Expiration = p.Now() - 1
		if !h.nl.IncrementEpoch(2, p.Now()) {
			t.Fatal("setup: could not fence n2")
		}
		fenced = p.Now()
		for p.Now() < fenced.Add(20*sim.Second) {
			for _, id := range desc.Voters {
				if r, _ := h.stores[id].Replica(desc.RangeID); r.raft.IsLeader() && r.hasValidLease() {
					put = r.evaluate(p, &PutRequest{Key: mvcc.Key("k"), Value: mvcc.Value("v"), Timestamp: r.store.Clock.Now()})
					served = p.Now()
					return put.Err
				}
			}
			p.Sleep(sim.Millisecond)
		}
		return fmt.Errorf("no replica leads with a valid lease 20s after the fence")
	})
	bound := LivenessHeartbeatInterval + raft.DefaultHeartbeatInterval + 4*h.quorumRound(1, 2)
	if d := served.Sub(fenced); d > bound {
		t.Errorf("the range served %v after its leaseholder was fenced, want within %v", d, bound)
	}
}

// TestOneDeathIsOneEpochBump: in TestFencedLeaseholderServesAgain's setup,
// n2's epoch is bumped once, fencing the lease the range just bound to its
// old epoch, and n2 stays expired. The voter that claims the lease finds it
// bound below n2's epoch, already fenced, and claims it without a second
// bump of n2's epoch: one death, one bump.
func TestOneDeathIsOneEpochBump(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(2 * sim.Second)
	r1, _ := h.stores[1].Replica(desc.RangeID)
	var bumps, epochs int64
	var claimed *Replica
	h.run(t, 30*sim.Second, func(p *sim.Proc) error {
		nd := r1.desc.Clone()
		nd.Leaseholder = 2
		nd.Generation++
		if err := r1.propose(p, &Command{
			Kind: CmdLeaseTransfer, Desc: nd, LeaseEpoch: h.nl.Epoch(2),
			ClosedTS: r1.closed.issued,
		}); err != nil {
			return err
		}
		// n2 stays cut off, so its record stays expired and only a claim by
		// another voter brings the range back.
		h.net.Partition(2, 1)
		h.net.Partition(2, 3)
		h.nl.recs[2].Expiration = p.Now() - 1
		before, epoch := h.nl.EpochBumps, h.nl.Epoch(2)
		if !h.nl.IncrementEpoch(2, p.Now()) {
			t.Fatal("setup: could not fence n2")
		}
		for start := p.Now(); p.Now() < start.Add(20*sim.Second); p.Sleep(sim.Millisecond) {
			for _, id := range []simnet.NodeID{1, 3} {
				if r, _ := h.stores[id].Replica(desc.RangeID); r.raft.IsLeader() && r.hasValidLease() {
					claimed, bumps, epochs = r, h.nl.EpochBumps-before, h.nl.Epoch(2)-epoch
					return nil
				}
			}
		}
		return fmt.Errorf("no other voter leads with a valid lease 20s after the fence")
	})
	if claimed == nil {
		t.Fatal("no voter claimed the fenced lease")
	}
	if bumps != 1 || epochs != 1 {
		t.Errorf("n%d claimed the lease after %d epoch bumps (n2's epoch moved by %d), want 1: the fence and no second one",
			claimed.store.NodeID, bumps, epochs)
	}
}

// TestSingleVoterReacquiresLeaseAfterRestart: a restarted single-voter
// range commits its new term's no-op with its own fsync, so no message
// reports that the no-op applied. The replica must still settle and take its
// lease back.
func TestSingleVoterReacquiresLeaseAfterRestart(t *testing.T) {
	h := newRecoveryHarness(t, 1, 0)
	desc := h.createRange(t, []simnet.NodeID{1}, 1)
	st := h.stores[1]
	h.s.RunFor(sim.Second)
	h.net.CrashNode(1)
	st.Crash()
	h.run(t, 5*sim.Second, func(p *sim.Proc) error {
		_, err := st.Recover(p)
		return err
	})
	h.net.RestartNode(1)
	h.s.RunFor(10 * sim.Second)
	r, _ := st.Replica(desc.RangeID)
	if !r.raft.IsLeader() || !r.hasValidLease() || r.LeaseAcquisitions != 1 {
		t.Fatalf("restarted single voter: leads=%v valid lease=%v after %d acquisitions, want its lease back",
			r.raft.IsLeader(), r.hasValidLease(), r.LeaseAcquisitions)
	}
}

// TestFailoverBounceIsNotAFollowerMiss: a consistent read whose cached
// leaseholder crashed goes, once that node's liveness expires, to the
// nearest live replica, which bounces it while no survivor holds the lease
// (here n2 and n3 cannot reach each other to elect one). Each bounce is a
// retry, not a follower-read miss: only an attempt routed as a follower read
// counts in FollowerMisses.
func TestFailoverBounceIsNotAFollowerMiss(t *testing.T) {
	h := newRecoveryHarness(t, 4, 0)
	h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	h.s.RunFor(5 * sim.Second)
	const gateway = simnet.NodeID(4)
	ds := &DistSender{NodeID: gateway, Net: h.net, Topo: h.topo, Catalog: h.cat, Liveness: h.nl}

	h.net.CrashNode(1)
	h.stores[1].Crash()
	h.net.Partition(2, 3)
	var resp Response
	served := false
	h.s.Spawn("read", func(p *sim.Proc) {
		resp = ds.Send(p, &GetRequest{Key: mvcc.Key("k"), Timestamp: h.stores[gateway].Clock.Now()})
		served = true
	})
	h.s.RunFor(LivenessTTL + 2*sim.Second)
	if served || ds.live(1) {
		t.Fatalf("setup: read answered %v, n1 live %v; want a pending read and n1's record expired", served, ds.live(1))
	}
	h.net.Heal(2, 3)
	h.s.RunFor(10 * sim.Second)
	if !served || resp.Err != nil {
		t.Fatalf("read after the partition healed: answered %v, %v", served, resp.Err)
	}
	if ds.Retries == 0 {
		t.Fatal("setup: the read was never retried")
	}
	if ds.FollowerMisses != 0 {
		t.Errorf("%d follower-read misses counted for a read never routed as a follower read (%d retries)",
			ds.FollowerMisses, ds.Retries)
	}
}
