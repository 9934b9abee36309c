package cluster

import (
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// A replica's closed-timestamp policy and Raft heartbeat cadence follow the
// descriptor it has installed: whichever replica holds the lease, after a
// relocation, a transfer or a failover, closes timestamps as the descriptor's
// policy and placement say (paper §6.2.1), not as its own policy was when it
// was built.

// writePush sends a non-transactional write to key from the range's
// leaseholder node, stamped with that node's clock, and returns how far the
// leaseholder pushed it: zero under the lagging policy, the lead time under
// the leading one.
func writePush(t *testing.T, p *sim.Proc, c *Cluster, key string) sim.Duration {
	t.Helper()
	desc, err := c.Catalog.Lookup(mvcc.Key(key))
	if err != nil {
		t.Fatal(err)
	}
	ts := c.Stores[desc.Leaseholder].Clock.Now()
	resp := c.Senders[desc.Leaseholder].Send(p, &kv.PutRequest{Key: mvcc.Key(key), Value: mvcc.Value("v"), Timestamp: ts})
	if resp.Err != nil {
		t.Fatalf("write to %s: %v", key, resp.Err)
	}
	return sim.Duration(resp.Put.WriteTimestamp.WallTime - ts.WallTime)
}

// relocatedToLag creates a range with three us-east1 voters and a non-voter
// in each other region under policy, relocates it in place to ClosedTSLag,
// and moves its lease to another us-east1 voter. It returns the push of a
// write before and after the move, and the messages the idle cluster sends
// over the next 10 s.
func relocatedToLag(t *testing.T, policy kv.ClosedTSPolicy) (before, after sim.Duration, idle int64) {
	t.Helper()
	c := New(Config{Seed: 71, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("t/"), []byte("t0"), cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		in := zones.Placement{Voters: desc.Voters, NonVoters: desc.NonVoters, Leaseholder: desc.Leaseholder}
		if err := c.Admin.Relocate(p, desc.RangeID, in, kv.ClosedTSLag, nil); err != nil {
			t.Error(err)
			return
		}
		// Past the last leading promise and the transfer's timestamp-cache
		// low-water mark, neither of which may be written under.
		p.Sleep(sim.Second)
		before = writePush(t, p, c, "t/a")
		target := desc.Voters[0]
		if target == desc.Leaseholder {
			target = desc.Voters[1]
		}
		if err := c.Admin.TransferLease(p, desc.RangeID, target); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(sim.Second)
		after = writePush(t, p, c, "t/b")
		sent := c.Net.MessagesSent
		p.Sleep(10 * sim.Second)
		idle = c.Net.MessagesSent - sent
	})
	c.Sim.RunFor(5 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d command application errors", n)
	}
	return before, after, idle
}

// TestRangeRelocatedToLagClosesLikeALagRange: a GLOBAL range made REGIONAL in
// place and then handed to a former follower must not keep closing
// timestamps ahead of present time, nor heartbeat at the leading cadence.
func TestRangeRelocatedToLagClosesLikeALagRange(t *testing.T) {
	_, _, lagIdle := relocatedToLag(t, kv.ClosedTSLag)
	before, after, idle := relocatedToLag(t, kv.ClosedTSLead)
	t.Logf("pushes %v, %v; idle messages in 10s: %d (created lagging: %d)", before, after, idle, lagIdle)
	if before != 0 || after != 0 {
		t.Errorf("writes to the relocated range pushed %v before and %v after the lease transfer, want 0 and 0", before, after)
	}
	if idle != lagIdle {
		t.Errorf("idle cluster sent %d messages in 10s, want %d as for a range created lagging", idle, lagIdle)
	}
}

// TestFailoverLeadIsTheNewLeaseholders: a REGION-survivable GLOBAL range
// whose home region fails closes timestamps at the lead computed from the
// replica that acquired the lease, not from the one that lost it.
func TestFailoverLeadIsTheNewLeaseholders(t *testing.T) {
	c := New(Config{Seed: 73, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 5,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 2, simnet.EuropeW2: 2, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("g/"), []byte("g0"), cfg, kv.ClosedTSLead); err != nil {
		t.Fatal(err)
	}
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		c.Net.FailRegion(simnet.USEast1)
		gw := c.GatewayFor(simnet.EuropeW2)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		for failAt := p.Now(); ; p.Sleep(250 * sim.Millisecond) {
			if err := co.Run(p, func(tx *txn.Txn) error { return tx.Put(p, mvcc.Key("g/a"), mvcc.Value("v")) }); err == nil {
				break
			}
			if p.Now().Sub(failAt) > 30*sim.Second {
				t.Error("the range did not fail over")
				return
			}
		}
		p.Sleep(sim.Second)
		desc, _ := c.Catalog.Lookup(mvcc.Key("g/b"))
		if loc, _ := c.Topo.LocalityOf(desc.Leaseholder); loc.Region == simnet.USEast1 {
			t.Errorf("lease still on n%d in the failed region", desc.Leaseholder)
			return
		}
		want := kv.LeadTime(c.Topo, desc.Leaseholder, desc.Voters, desc.NonVoters, c.MaxOffset)
		// The write travels from the leaseholder's own gateway to its
		// replica, a 25µs hop, before the leaseholder reads its clock.
		got := writePush(t, p, c, "g/b")
		t.Logf("write at the new leaseholder n%d pushed %v; LeadTime = %v", desc.Leaseholder, got, want)
		if got < want || got > want+sim.Millisecond {
			t.Errorf("write at the new leaseholder n%d pushed %v, want LeadTime = %v", desc.Leaseholder, got, want)
		}
	})
	c.Sim.RunFor(5 * 60 * sim.Second)
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d command application errors", n)
	}
}
