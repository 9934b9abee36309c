package cluster

import (
	"fmt"
	"sort"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestAllocatorMovesLeasesNotReplicas pins the allocator loop's only move
// toward traffic: the lease goes to the hot region's voter, unless a lease
// preference pins it elsewhere. Replicas never move for load, not even on a
// range whose zone config (three voters, no constraints) would allow a voter
// to be swapped into the hot region.
func TestAllocatorMovesLeasesNotReplicas(t *testing.T) {
	// The lease moves after leaseTicks (2) consecutive hot intervals; one
	// more interval covers the transfer and the phase of the first tick.
	const interval = 10 * sim.Second
	t.Run("lease moves to a hot voter", func(t *testing.T) {
		r := runAllocator(t, false, true, 3*interval)
		if got := regionOf(t, r.c, r.after.Leaseholder); got != r.hot {
			t.Errorf("leaseholder n%d in %s after %v of %s traffic, want %s", r.after.Leaseholder, got, 3*interval, r.hot, r.hot)
		}
		if p0, p1 := placement(r.before), placement(r.after); p0 != p1 {
			t.Errorf("replicas moved: %s -> %s", p0, p1)
		}
		if r.c.Admin.LeaseMoves != 1 {
			t.Errorf("%d lease moves, want 1", r.c.Admin.LeaseMoves)
		}
	})
	t.Run("lease preference holds the lease", func(t *testing.T) {
		r := runAllocator(t, true, true, 6*interval)
		if r.before.Leaseholder != r.after.Leaseholder || placement(r.before) != placement(r.after) {
			t.Errorf("range moved under a lease preference: %s lh=n%d -> %s lh=n%d",
				placement(r.before), r.before.Leaseholder, placement(r.after), r.after.Leaseholder)
		}
	})
	t.Run("no replica in the hot region", func(t *testing.T) {
		r := runAllocator(t, false, false, 6*interval)
		if r.before.Leaseholder != r.after.Leaseholder || placement(r.before) != placement(r.after) {
			t.Errorf("range moved toward %s traffic: %s lh=n%d -> %s lh=n%d", r.hot,
				placement(r.before), r.before.Leaseholder, placement(r.after), r.after.Leaseholder)
		}
	})
}

// allocatorRun is one range under one region's traffic: the range before
// the traffic and after it.
type allocatorRun struct {
	c             *Cluster
	hot           simnet.Region
	before, after kv.RangeDescriptor
}

// runAllocator creates a 3-voter range with no constraints (with a lease
// preference for its leaseholder's region when pinLease is set) and, for d,
// reads it from one region, each read 20 ms after the last returned. The hot
// region holds a non-leaseholder voter when hotHasVoter is set, and no
// replica otherwise.
func runAllocator(t *testing.T, pinLease, hotHasVoter bool, d sim.Duration) allocatorRun {
	t.Helper()
	c := New(Config{Seed: 44, Regions: PaperRegions(), LoadBased: true,
		Load: kv.LoadConfig{SplitQPS: 1e9}})
	cfg := zones.Config{NumReplicas: 3, NumVoters: 3}
	if pinLease {
		// The allocator places the lease on the first voter, in the
		// lowest-numbered region.
		cfg.LeasePreferences = []simnet.Region{simnet.Table1Regions()[0]}
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("al/"), []byte("al0"), cfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	if pinLease && regionOf(t, c, desc.Leaseholder) != cfg.LeasePreferences[0] {
		t.Fatalf("leaseholder n%d outside the preferred region %s", desc.Leaseholder, cfg.LeasePreferences[0])
	}
	onRange := map[simnet.Region]bool{}
	for _, id := range desc.Replicas() {
		onRange[regionOf(t, c, id)] = true
	}
	var hot simnet.Region
	for _, r := range simnet.Table1Regions() {
		if r != regionOf(t, c, desc.Leaseholder) && onRange[r] == hotHasVoter {
			hot = r
			break
		}
	}
	if hot == "" {
		t.Fatalf("no hot region for %s", placement(*desc))
	}
	before := *desc.Clone()
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		gw := c.GatewayFor(hot)
		end := c.Sim.Now().Add(d)
		for c.Sim.Now() < end {
			ts := c.Stores[gw].Clock.Now()
			if resp := c.Senders[gw].Send(p, &kv.GetRequest{Key: mvcc.Key("al/k"), Timestamp: ts}); resp.Err != nil {
				t.Errorf("read from %s: %v", hot, resp.Err)
				return
			}
			p.Sleep(20 * sim.Millisecond)
		}
	})
	c.Sim.Run()
	cur, ok := c.Catalog.LookupByID(desc.RangeID)
	if !ok {
		t.Fatalf("r%d vanished", desc.RangeID)
	}
	if n := c.ApplyErrors(); n != 0 {
		t.Errorf("%d apply errors", n)
	}
	return allocatorRun{c: c, hot: hot, before: before, after: *cur.Clone()}
}

func regionOf(t *testing.T, c *Cluster, id simnet.NodeID) simnet.Region {
	t.Helper()
	l, ok := c.Topo.LocalityOf(id)
	if !ok {
		t.Fatalf("n%d not in the topology", id)
	}
	return l.Region
}

// placement renders a range's replica sets, order-independent within each.
func placement(d kv.RangeDescriptor) string {
	return fmt.Sprintf("voters=%v non_voters=%v", sortedIDs(d.Voters), sortedIDs(d.NonVoters))
}

func sortedIDs(ids []simnet.NodeID) []simnet.NodeID {
	out := append([]simnet.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
