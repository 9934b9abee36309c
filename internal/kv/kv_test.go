package kv

import (
	"testing"
	"testing/quick"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

func ts(w int64) hlc.Timestamp { return hlc.Timestamp{WallTime: w} }

// --- The key table: reads ---

// tableAt returns an empty key table whose floor is floor.
func tableAt(floor hlc.Timestamp) *keyTable {
	t := newKeyTable()
	t.floor = floor
	return &t
}

func TestTimestampCacheBasics(t *testing.T) {
	c := tableAt(ts(10))
	if got, _ := c.maxRead(mvcc.Key("a"), 0); got != ts(10) {
		t.Fatalf("empty table maxRead = %v, want the floor", got)
	}
	c.recordRead(mvcc.Key("a"), ts(20), 1)
	if got, _ := c.maxRead(mvcc.Key("a"), 0); got != ts(20) {
		t.Fatalf("maxRead = %v", got)
	}
	// Lower reads don't regress the entry.
	c.recordRead(mvcc.Key("a"), ts(15), 2)
	if got, _ := c.maxRead(mvcc.Key("a"), 0); got != ts(20) {
		t.Fatalf("maxRead regressed to %v", got)
	}
	// Reads at or below the floor are not recorded.
	c.recordRead(mvcc.Key("b"), ts(5), 1)
	if len(c.entries) != 1 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

func TestTimestampCacheSelfExemption(t *testing.T) {
	c := tableAt(hlc.Timestamp{})
	c.recordRead(mvcc.Key("k"), ts(30), 7)
	// The reader itself may write AT its read timestamp…
	if got, own := c.maxRead(mvcc.Key("k"), 7); !own || got != ts(30) {
		t.Fatalf("owner maxRead = %v own=%v", got, own)
	}
	// …anyone else must write above it.
	if _, own := c.maxRead(mvcc.Key("k"), 8); own {
		t.Fatal("non-owner got the exemption")
	}
	// A second reader at the same timestamp destroys the exemption.
	c.recordRead(mvcc.Key("k"), ts(30), 9)
	if _, own := c.maxRead(mvcc.Key("k"), 7); own {
		t.Fatal("exemption survived a second reader")
	}
}

func TestTimestampCacheLowWater(t *testing.T) {
	c := tableAt(hlc.Timestamp{})
	c.recordRead(mvcc.Key("a"), ts(10), 1)
	c.recordRead(mvcc.Key("b"), ts(50), 1)
	c.sweep(ts(30), nil)
	if got, _ := c.maxRead(mvcc.Key("a"), 0); got != ts(30) {
		t.Fatalf("entry below the floor not floored: %v", got)
	}
	if got, _ := c.maxRead(mvcc.Key("b"), 0); got != ts(50) {
		t.Fatalf("entry above the floor clobbered: %v", got)
	}
	if len(c.entries) != 1 {
		t.Fatalf("the sweep kept %d entries, want the one above the floor", len(c.entries))
	}
	// Ratchets only forward.
	c.sweep(ts(20), nil)
	if c.floor != ts(30) {
		t.Fatal("floor regressed")
	}
	c.raiseFloor(ts(40))
	if c.floor != ts(40) {
		t.Fatal("span read did not ratchet the floor")
	}
}

// TestTimestampCacheRereadAllocs: a read of a key the table already holds
// re-stores its entry under the key string the entry carries, so it
// allocates nothing. Every point read passes through here, and a fresh
// entry per read was the most expensive line of evalGet once the engine
// read got cheap.
func TestTimestampCacheRereadAllocs(t *testing.T) {
	c := tableAt(hlc.Timestamp{})
	key := mvcc.Key("/t/usertable/1/us-east1/user00000042")
	c.recordRead(key, ts(10), 7)
	at := int64(10)
	if n := testing.AllocsPerRun(100, func() {
		at++
		c.recordRead(key, ts(at), 7)
	}); n != 0 {
		t.Errorf("re-read at a higher timestamp allocates %.0f", n)
	}
	if got, own := c.maxRead(key, 7); got != ts(at) || !own {
		t.Fatalf("maxRead = %v own=%v, want %v and the exemption", got, own, ts(at))
	}
	reader := mvcc.TxnID(8)
	if n := testing.AllocsPerRun(100, func() {
		reader++
		c.recordRead(key, ts(at), reader)
	}); n != 0 {
		t.Errorf("a second reader at the same timestamp allocates %.0f", n)
	}
	if got, own := c.maxRead(key, 7); got != ts(at) || own {
		t.Fatalf("maxRead = %v own=%v: the exemption must not survive a second reader", got, own)
	}
	if len(c.entries) != 1 {
		t.Fatalf("Len = %d", len(c.entries))
	}
}

// Property: maxRead never decreases as reads are recorded.
func TestQuickTimestampCacheMonotone(t *testing.T) {
	f := func(keys []uint8, walls []uint8) bool {
		c := tableAt(hlc.Timestamp{})
		last := map[byte]hlc.Timestamp{}
		n := len(keys)
		if len(walls) < n {
			n = len(walls)
		}
		for i := 0; i < n; i++ {
			k := mvcc.Key{keys[i]}
			c.recordRead(k, ts(int64(walls[i])), mvcc.TxnID(i))
			got, _ := c.maxRead(k, 0)
			if got.Less(last[keys[i]]) {
				return false
			}
			last[keys[i]] = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- The key table: latches ---

// latchReplica is a replica owning every key, with nothing but a key table.
func latchReplica() *Replica {
	return &Replica{desc: &RangeDescriptor{}, keys: newKeyTable()}
}

func TestLatchManagerExclusion(t *testing.T) {
	s := sim.New(1)
	m := latchReplica()
	k := mvcc.Key("k")
	var order []int
	s.Spawn("a", func(p *sim.Proc) {
		m.latch(p, k)
		order = append(order, 1)
		p.Sleep(10 * sim.Millisecond)
		order = append(order, 2)
		m.unlatch(k)
	})
	s.Spawn("b", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		m.latch(p, k)
		order = append(order, 3)
		m.unlatch(k)
	})
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if m.keys.latched != 0 || len(m.keys.entries[string(k)].waiters) != 0 {
		t.Fatal("latches leaked")
	}
}

func TestLatchWaitFree(t *testing.T) {
	s := sim.New(2)
	m := latchReplica()
	var readAt sim.Time
	s.Spawn("writer", func(p *sim.Proc) {
		m.latch(p, mvcc.Key("k"))
		p.Sleep(20 * sim.Millisecond)
		m.unlatch(mvcc.Key("k"))
	})
	s.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		m.waitUnlatched(p, mvcc.Key("k"))
		readAt = p.Now()
	})
	s.Run()
	if readAt < sim.Time(20*sim.Millisecond) {
		t.Fatalf("reader proceeded at %v while latch held", readAt)
	}
}

// --- TxnRegistry ---

func regHarness() (*sim.Simulation, *TxnRegistry) {
	s := sim.New(3)
	topo := simnet.NewTopology()
	topo.AddNode(1, simnet.Locality{Region: "r1", Zone: "a"})
	topo.AddNode(2, simnet.Locality{Region: "r2", Zone: "a"})
	return s, NewTxnRegistry(s, topo)
}

func TestRegistryCommitAbortRace(t *testing.T) {
	_, reg := regHarness()
	id := reg.Begin(1, 0)
	if st, _ := reg.Status(id); st != mvcc.Pending {
		t.Fatal("not pending")
	}
	if err := reg.TryCommit(id, ts(5)); err != nil {
		t.Fatal(err)
	}
	// Abort after commit loses.
	if reg.Abort(id) {
		t.Fatal("abort beat a commit")
	}
	if st, cts := reg.Status(id); st != mvcc.Committed || cts != ts(5) {
		t.Fatalf("status %v %v", st, cts)
	}
	// Commit after abort fails.
	id2 := reg.Begin(1, 0)
	reg.Abort(id2)
	if err := reg.TryCommit(id2, ts(6)); err == nil {
		t.Fatal("commit beat an abort")
	}
}

func TestRegistryStagingProtectsFromPush(t *testing.T) {
	s, reg := regHarness()
	holder := reg.Begin(1, 0)
	pusher := reg.Begin(2, 0)
	if err := reg.TryStage(holder, ts(9)); err != nil {
		t.Fatal(err)
	}
	var st mvcc.TxnStatus
	s.Spawn("pusher", func(p *sim.Proc) {
		// Even with a fake deadlock edge, staging holders are immune.
		reg.BeginWait(holder, pusher)
		st, _ = reg.PushTxn(p, 2, pusher, holder)
		reg.EndWait(holder)
	})
	s.Run()
	if st != mvcc.Pending {
		t.Fatalf("push changed staging txn to %v", st)
	}
	if err := reg.FinalizeStaged(holder); err != nil {
		t.Fatal(err)
	}
	if st, _ := reg.Status(holder); st != mvcc.Committed {
		t.Fatal("finalize failed")
	}
}

func TestRegistryStagingAbortRollback(t *testing.T) {
	_, reg := regHarness()
	id := reg.Begin(1, 0)
	if err := reg.TryStage(id, ts(4)); err != nil {
		t.Fatal(err)
	}
	reg.AbortStaged(id)
	if st, _ := reg.Status(id); st != mvcc.Aborted {
		t.Fatalf("status %v", st)
	}
	if err := reg.FinalizeStaged(id); err == nil {
		t.Fatal("finalized an aborted parallel commit")
	}
}

func TestRegistryDeadlockDetection(t *testing.T) {
	s, reg := regHarness()
	a := reg.Begin(1, 0)
	b := reg.Begin(1, 0)
	// a waits on b; b pushes a — the cycle b -> a -> b must abort the
	// youngest (b).
	reg.BeginWait(a, b)
	var st mvcc.TxnStatus
	s.Spawn("pusher", func(p *sim.Proc) {
		reg.BeginWait(b, a)
		st, _ = reg.PushTxn(p, 1, b, a)
	})
	s.Run()
	_ = st
	if bst, _ := reg.Status(b); bst != mvcc.Aborted {
		t.Fatalf("deadlock victim (youngest) not aborted: b=%v", bst)
	}
	if ast, _ := reg.Status(a); ast != mvcc.Pending {
		t.Fatalf("survivor aborted: a=%v", ast)
	}
}

func TestRegistryNoFalseAborts(t *testing.T) {
	s, reg := regHarness()
	holder := reg.Begin(1, 0)
	pusher := reg.Begin(1, 0)
	var st mvcc.TxnStatus
	s.Spawn("pusher", func(p *sim.Proc) {
		// No cycle: the holder is just slow. The push must not abort it.
		reg.BeginWait(pusher, holder)
		st, _ = reg.PushTxn(p, 1, pusher, holder)
		reg.EndWait(pusher)
	})
	s.Run()
	if st != mvcc.Pending {
		t.Fatalf("push returned %v", st)
	}
	if hst, _ := reg.Status(holder); hst != mvcc.Pending {
		t.Fatal("live holder aborted without a deadlock")
	}
}

func TestRegistryPushPaysRTT(t *testing.T) {
	s, reg := regHarness()
	holder := reg.Begin(2, 0) // anchored on node 2
	var took sim.Duration
	s.Spawn("pusher", func(p *sim.Proc) {
		start := p.Now()
		reg.PushTxn(p, 1, 0, holder)
		took = p.Now().Sub(start)
	})
	s.Run()
	want := reg.topo.NodeRTT(1, 2)
	if took != want {
		t.Fatalf("push took %v, want the anchor RTT %v", took, want)
	}
}

func TestRegistryWaitFinishedWakesOnCommit(t *testing.T) {
	s, reg := regHarness()
	id := reg.Begin(1, 0)
	var woke sim.Time
	var st mvcc.TxnStatus
	s.Spawn("waiter", func(p *sim.Proc) {
		st, _ = reg.WaitFinished(p, id, 10*sim.Second)
		woke = p.Now()
	})
	s.Spawn("committer", func(p *sim.Proc) {
		p.Sleep(7 * sim.Millisecond)
		reg.TryCommit(id, ts(3))
	})
	s.Run()
	if st != mvcc.Committed || woke != sim.Time(7*sim.Millisecond) {
		t.Fatalf("woke at %v with %v", woke, st)
	}
}

// --- Range catalog ---

func TestRangeCatalogLookup(t *testing.T) {
	c := NewRangeCatalog()
	mk := func(start, end string) *RangeDescriptor {
		return &RangeDescriptor{
			RangeID: c.NextRangeID(), StartKey: mvcc.Key(start), EndKey: mvcc.Key(end),
		}
	}
	if err := c.Insert(mk("b", "d")); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(mk("d", "f")); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(mk("a", "b")); err != nil {
		t.Fatal(err)
	}
	// Overlap rejected.
	if err := c.Insert(mk("c", "e")); err == nil {
		t.Fatal("overlapping insert accepted")
	}
	d, err := c.Lookup(mvcc.Key("c"))
	if err != nil || string(d.StartKey) != "b" {
		t.Fatalf("Lookup(c) = %v, %v", d, err)
	}
	if _, err := c.Lookup(mvcc.Key("z")); err == nil {
		t.Fatal("lookup past end succeeded")
	}
	span := c.LookupSpan(mvcc.Key("a"), mvcc.Key("e"))
	if len(span) != 3 {
		t.Fatalf("span = %d ranges", len(span))
	}
	c.Remove(d.RangeID)
	if _, err := c.Lookup(mvcc.Key("c")); err == nil {
		t.Fatal("removed range still found")
	}
}

func TestRangeDescriptorHelpers(t *testing.T) {
	d := &RangeDescriptor{
		RangeID: 1, StartKey: mvcc.Key("a"), EndKey: mvcc.Key("m"),
		Voters: []simnet.NodeID{1, 2}, NonVoters: []simnet.NodeID{3},
	}
	if !d.ContainsKey(mvcc.Key("a")) || d.ContainsKey(mvcc.Key("m")) {
		t.Fatal("ContainsKey bounds wrong")
	}
	if r := d.Replicas(); len(r) != 3 || r[0] != 1 || r[2] != 3 {
		t.Fatalf("Replicas = %v, want voters then non-voters", r)
	}
	cl := d.Clone()
	cl.Voters[0] = 9
	if d.Voters[0] == 9 {
		t.Fatal("Clone shares voter slice")
	}
}

// --- Closed timestamps ---

func TestClosedTrackerLagAndLead(t *testing.T) {
	lag := closedTracker{offset: -3 * sim.Second}
	now := ts(int64(10 * sim.Second))
	target := lag.issue(now)
	if target != ts(int64(7*sim.Second)) {
		t.Fatalf("lag target %v", target)
	}
	lead := closedTracker{offset: 500 * sim.Millisecond}
	lt := lead.issue(now)
	if lt != now.Add(500*sim.Millisecond) {
		t.Fatalf("lead target %v", lt)
	}
	// Issued targets never regress.
	if lead.issue(ts(int64(9*sim.Second))) != lt {
		t.Fatal("issued target regressed")
	}
	// Follower advance is monotonic.
	tr := closedTracker{}
	tr.advance(ts(10))
	tr.advance(ts(5))
	if tr.closed != ts(10) {
		t.Fatal("closed regressed")
	}
}

func TestLeadTimeComposition(t *testing.T) {
	topo := simnet.NewTable1Topology()
	topo.Jitter = 0
	// Leaseholder and two voters in us-east1 zones; non-voter in
	// australia (the furthest).
	topo.AddNode(1, simnet.Locality{Region: simnet.USEast1, Zone: "a"})
	topo.AddNode(2, simnet.Locality{Region: simnet.USEast1, Zone: "b"})
	topo.AddNode(3, simnet.Locality{Region: simnet.USEast1, Zone: "c"})
	topo.AddNode(4, simnet.Locality{Region: simnet.AustralSE1, Zone: "a"})
	offset := 250 * sim.Millisecond
	lead := LeadTime(topo, 1, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4}, offset)
	// L_raft = intra-region RTT (2ms), L_replicate = one way to
	// australia (99ms), plus offset and the publication budget.
	want := topo.IntraRegionRTT + topo.OneWay(1, 4) + offset + SideTransportInterval + leadPropagationMargin
	if lead != want {
		t.Fatalf("lead = %v, want %v", lead, want)
	}
}

// TestWriteRTTs: for a key's range, the DistSender states the gateway's
// round trip to the leaseholder and the leaseholder's quorum round trip — the
// ⌊n/2⌋-th nearest other voter — from the catalog and the topology alone,
// and allocates nothing doing so.
func TestWriteRTTs(t *testing.T) {
	topo := simnet.NewTable1Topology()
	topo.Jitter = 0
	for i, l := range []simnet.Locality{
		{Region: simnet.USEast1, Zone: "a"}, {Region: simnet.USEast1, Zone: "b"}, {Region: simnet.USEast1, Zone: "c"},
		{Region: simnet.EuropeW2, Zone: "a"}, {Region: simnet.EuropeW2, Zone: "b"}, {Region: simnet.EuropeW2, Zone: "c"},
		{Region: simnet.AsiaNE1, Zone: "a"},
	} {
		topo.AddNode(simnet.NodeID(i+1), l)
	}
	cat := NewRangeCatalog()
	for _, d := range []*RangeDescriptor{
		// ZONE-survivable, homed at the gateway.
		{RangeID: 1, StartKey: mvcc.Key("a"), EndKey: mvcc.Key("b"), Voters: []simnet.NodeID{1, 2, 3}, Leaseholder: 1},
		// ZONE-survivable, homed in europe-west2, with a non-voter at the gateway.
		{RangeID: 2, StartKey: mvcc.Key("b"), EndKey: mvcc.Key("c"), Voters: []simnet.NodeID{4, 5, 6}, NonVoters: []simnet.NodeID{1}, Leaseholder: 5},
		// REGION-survivable, homed in europe-west2: the quorum crosses regions.
		{RangeID: 3, StartKey: mvcc.Key("c"), EndKey: mvcc.Key("d"), Voters: []simnet.NodeID{4, 5, 1, 2, 7}, Leaseholder: 4},
	} {
		if err := cat.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	ds := &DistSender{NodeID: 1, Topo: topo, Catalog: cat}
	for _, c := range []struct {
		key                   string
		toLeaseholder, quorum sim.Duration
		ok                    bool
	}{
		{"a1", 50 * sim.Microsecond, topo.IntraRegionRTT, true},
		{"b1", 87 * sim.Millisecond, topo.IntraRegionRTT, true},
		{"c1", 87 * sim.Millisecond, 87 * sim.Millisecond, true},
		{"z", 0, 0, false},
	} {
		lh, q, ok := ds.WriteRTTs(mvcc.Key(c.key))
		if lh != c.toLeaseholder || q != c.quorum || ok != c.ok {
			t.Errorf("WriteRTTs(%q) = %v, %v, %v; want %v, %v, %v", c.key, lh, q, ok, c.toLeaseholder, c.quorum, c.ok)
		}
	}
	key := mvcc.Key("c1")
	if n := testing.AllocsPerRun(100, func() { ds.WriteRTTs(key) }); n != 0 {
		t.Errorf("WriteRTTs allocates %.0f objects, want 0", n)
	}
}
