package simnet

import (
	"testing"

	"mrdb/internal/sim"
)

// threeRegionTopo builds a 3-region topology with one node per zone,
// 3 zones per region: node IDs 1..9.
func threeRegionTopo() *Topology {
	t := NewTable1Topology()
	t.Jitter = 0 // exact latencies for assertions
	id := NodeID(1)
	for _, r := range []Region{USEast1, EuropeW2, AsiaNE1} {
		for _, z := range []string{"a", "b", "c"} {
			t.AddNode(id, Locality{Region: r, Zone: Zone(string(r) + "-" + z)})
			id++
		}
	}
	return t
}

func TestTable1Matrix(t *testing.T) {
	topo := NewTable1Topology()
	cases := []struct {
		a, b Region
		ms   int
	}{
		{USEast1, USWest1, 63},
		{USWest1, USEast1, 63}, // symmetric
		{USEast1, EuropeW2, 87},
		{USEast1, AsiaNE1, 155},
		{USEast1, AustralSE1, 198},
		{USWest1, EuropeW2, 132},
		{USWest1, AsiaNE1, 90},
		{USWest1, AustralSE1, 156},
		{EuropeW2, AsiaNE1, 222},
		{EuropeW2, AustralSE1, 274},
		{AsiaNE1, AustralSE1, 113},
	}
	for _, c := range cases {
		if got := topo.RegionRTT(c.a, c.b); got != sim.Duration(c.ms)*sim.Millisecond {
			t.Errorf("RTT(%s,%s) = %v, want %dms", c.a, c.b, got, c.ms)
		}
	}
}

func TestNodeRTTTiers(t *testing.T) {
	topo := threeRegionTopo()
	// Same node.
	if topo.NodeRTT(1, 1) >= topo.IntraZoneRTT {
		t.Error("self RTT should be below intra-zone RTT")
	}
	// Same region, different zone: nodes 1 and 2.
	if got := topo.NodeRTT(1, 2); got != topo.IntraRegionRTT {
		t.Errorf("intra-region RTT = %v", got)
	}
	// Cross region: node 1 (us-east1) to node 4 (europe-west2).
	if got := topo.NodeRTT(1, 4); got != 87*sim.Millisecond {
		t.Errorf("cross-region RTT = %v, want 87ms", got)
	}
	if topo.OneWay(1, 4) != topo.NodeRTT(1, 4)/2 {
		t.Error("one-way != RTT/2")
	}
}

func TestTopologyQueries(t *testing.T) {
	topo := threeRegionTopo()
	regions := topo.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions = %v", regions)
	}
	if got := topo.NodesInRegion(USEast1); len(got) != 3 || got[0] != 1 {
		t.Fatalf("us-east1 nodes = %v", got)
	}
	if got := topo.Nodes(); len(got) != 9 {
		t.Fatalf("nodes = %v", got)
	}
}

func TestSendLatency(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	var deliveredAt sim.Time
	n.Register(4, func(m Message) { deliveredAt = s.Now() })
	n.Send(1, 4, "hello")
	s.Run()
	want := sim.Time(87 * sim.Millisecond / 2)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	n.Register(4, func(m Message) {
		req := m.Payload.(*RPCRequest)
		req.Reply("pong:" + req.Payload.(string))
	})
	var got string
	var rtt sim.Duration
	s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		resp, err := n.SendRPC(p, 1, 4, "ping", 0)
		if err != nil {
			t.Errorf("rpc failed: %v", err)
			return
		}
		got = resp.(string)
		rtt = p.Now().Sub(start)
	})
	s.Run()
	if got != "pong:ping" {
		t.Fatalf("got %q", got)
	}
	if rtt != 87*sim.Millisecond {
		t.Fatalf("rtt = %v, want 87ms", rtt)
	}
}

func TestRPCTimeout(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	n.Register(4, func(m Message) { /* never replies */ })
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = n.SendRPC(p, 1, 4, "ping", 100*sim.Millisecond)
	})
	s.Run()
	if err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestCrashNodeDropsTraffic(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	delivered := 0
	n.Register(2, func(m Message) { delivered++ })
	n.CrashNode(2)
	n.Send(1, 2, "x")
	s.Run()
	if delivered != 0 {
		t.Fatal("message delivered to crashed node")
	}
	n.RestartNode(2)
	n.Send(1, 2, "x")
	s.Run()
	if delivered != 1 {
		t.Fatal("message not delivered after restart")
	}
}

func TestCrashMidFlight(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	delivered := 0
	n.Register(4, func(m Message) { delivered++ })
	n.Send(1, 4, "x") // 43.5ms one-way
	s.After(10*sim.Millisecond, func() { n.CrashNode(4) })
	s.Run()
	if delivered != 0 {
		t.Fatal("message delivered to node that crashed mid-flight")
	}
}

func TestRegionFailure(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	delivered := map[NodeID]int{}
	for id := NodeID(1); id <= 9; id++ {
		id := id
		n.Register(id, func(m Message) { delivered[id]++ })
	}
	n.FailRegion(EuropeW2) // nodes 4,5,6
	n.Send(1, 4, "x")
	n.Send(1, 7, "x")
	n.Send(5, 1, "x") // from failed region
	s.Run()
	if delivered[4] != 0 || delivered[1] != 0 {
		t.Fatalf("traffic crossed failed region: %v", delivered)
	}
	if delivered[7] != 1 {
		t.Fatalf("unrelated traffic dropped: %v", delivered)
	}
	n.RecoverRegion(EuropeW2)
	n.Send(1, 4, "x")
	s.Run()
	if delivered[4] != 1 {
		t.Fatal("traffic still blocked after recovery")
	}
}

func TestPartitionPair(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	delivered := 0
	n.Register(2, func(m Message) { delivered++ })
	n.Register(1, func(m Message) { delivered++ })
	n.Partition(1, 2)
	n.Send(1, 2, "x")
	n.Send(2, 1, "x")
	s.Run()
	if delivered != 0 {
		t.Fatal("partitioned traffic delivered")
	}
	n.Heal(1, 2)
	n.Send(1, 2, "x")
	s.Run()
	if delivered != 1 {
		t.Fatal("traffic blocked after heal")
	}
}

func TestPartitionOneWay(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	got := map[NodeID]int{}
	n.Register(1, func(m Message) { got[1]++ })
	n.Register(2, func(m Message) { got[2]++ })
	n.PartitionOneWay(1, 2)
	n.Send(1, 2, "x") // blocked
	n.Send(2, 1, "x") // reverse direction still flows
	s.Run()
	if got[2] != 0 {
		t.Fatal("1→2 delivered through one-way partition")
	}
	if got[1] != 1 {
		t.Fatal("2→1 blocked by one-way partition")
	}
	n.HealOneWay(1, 2)
	n.Send(1, 2, "x")
	s.Run()
	if got[2] != 1 {
		t.Fatal("1→2 still blocked after heal")
	}
}

func TestPartitionOneWayBlocksRPCReply(t *testing.T) {
	// A server whose replies are blocked looks dead to the client even
	// though the request arrived: the RPC must time out.
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	served := 0
	n.Register(4, func(m Message) {
		served++
		m.Payload.(*RPCRequest).Reply("pong")
	})
	n.PartitionOneWay(4, 1)
	var err error
	s.Spawn("client", func(p *sim.Proc) {
		_, err = n.SendRPC(p, 1, 4, "ping", 200*sim.Millisecond)
	})
	s.Run()
	if served != 1 {
		t.Fatalf("request not delivered: served=%d", served)
	}
	if err == nil {
		t.Fatal("expected timeout with reply direction partitioned")
	}
}

func TestSlowLink(t *testing.T) {
	s := sim.New(1)
	topo := threeRegionTopo()
	n := NewNetwork(s, topo)
	var at sim.Time
	n.Register(4, func(m Message) { at = s.Now() })
	n.SlowLink(1, 4, 100*sim.Millisecond)
	n.Send(1, 4, "x")
	s.Run()
	want := sim.Time(87*sim.Millisecond/2 + 100*sim.Millisecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	// Reverse direction unaffected.
	var back sim.Time
	n.Register(1, func(m Message) { back = s.Now() - at })
	n.Send(4, 1, "x")
	s.Run()
	if got := sim.Duration(back); got != 87*sim.Millisecond/2 {
		t.Fatalf("reverse latency %v, want 43.5ms", got)
	}
	n.HealLink(1, 4)
	n.Register(4, func(m Message) { at = s.Now() })
	start := s.Now()
	n.Send(1, 4, "x")
	s.Run()
	if at.Sub(start) != 87*sim.Millisecond/2 {
		t.Fatalf("latency after heal = %v", at.Sub(start))
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	run := func(seed int64) sim.Time {
		s := sim.New(seed)
		topo := threeRegionTopo()
		topo.Jitter = 0.05
		n := NewNetwork(s, topo)
		var at sim.Time
		n.Register(4, func(m Message) { at = s.Now() })
		n.Send(1, 4, "x")
		s.Run()
		return at
	}
	a, b := run(5), run(5)
	if a != b {
		t.Fatalf("jitter nondeterministic: %v vs %v", a, b)
	}
	base := 87 * sim.Millisecond / 2
	lo := sim.Time(float64(base) * 0.95)
	hi := sim.Time(float64(base) * 1.05)
	if a < lo || a > hi {
		t.Fatalf("jittered latency %v outside [%v,%v]", a, lo, hi)
	}
}

func TestLocalityString(t *testing.T) {
	l := Locality{Region: USEast1, Zone: "us-east1-b"}
	if l.String() != "region=us-east1,zone=us-east1-b" {
		t.Fatalf("got %q", l.String())
	}
}
