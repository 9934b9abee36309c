package simnet

import (
	"testing"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// The tests in this file pin what a message costs the host: events executed,
// entries left in the event queue, objects allocated, registry lookups. Each
// fails when the rule that set the number is taken out (CI runs them by name
// in its "RPC and message budget" step).

// TestRPCCostsTwoEvents: a round trip is the request's delivery, which starts
// the handler's process, and the reply's, which resumes the caller — and once
// the caller is back nothing of the RPC is left in the queue: no wake, no
// spawn, no timeout waiting to fire as a no-op. A handler that blocks adds
// what it blocks on and no more.
func TestRPCCostsTwoEvents(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, threeRegionTopo())
	n.Register(4, echo)
	n.Register(5, func(m Message) {
		req := m.Payload.(*RPCRequest)
		req.Proc.Sleep(sim.Millisecond)
		req.Reply(req.Payload)
	})
	s.Spawn("client", func(p *sim.Proc) {
		for _, c := range []struct {
			to     NodeID
			events int64
			took   sim.Duration
		}{
			{4, 2, 87 * sim.Millisecond},
			{5, 3, 88 * sim.Millisecond}, // the handler's sleep is the third
		} {
			start, events, queued := p.Now(), s.Events(), s.Pending()
			resp, err := n.SendRPC(p, 1, c.to, "ping", 0)
			if err != nil || resp != "ping" || p.Now().Sub(start) != c.took {
				t.Errorf("rpc to n%d returned (%v, %v) after %v, want ping after %v", c.to, resp, err, p.Now().Sub(start), c.took)
			}
			if got := s.Events() - events; got != c.events {
				t.Errorf("round trip to n%d ran %d events, want %d", c.to, got, c.events)
			}
			if s.Pending() != queued {
				t.Errorf("%d events queued after the round trip to n%d, %d before it", s.Pending(), c.to, queued)
			}
		}
	})
	if end := s.Run(); end != sim.Time(175*sim.Millisecond) {
		t.Errorf("run ended at %v, want 175ms: an RPC left something queued", end)
	}
}

// TestRPCRequestLostInFlightTimesOut: the destination crashes while the
// request is on the wire. The request is dropped at the delivery instant, the
// handler never runs, and the caller gets its timeout after exactly the
// timeout, once: the sleep it starts next lasts its full second.
func TestRPCRequestLostInFlightTimesOut(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, threeRegionTopo())
	served := 0
	n.Register(4, func(m Message) { served++ })
	var err error
	var returned, slept sim.Time
	s.Spawn("client", func(p *sim.Proc) {
		_, err = n.SendRPC(p, 1, 4, "ping", 200*sim.Millisecond) // 43.5ms one way
		returned = p.Now()
		p.Sleep(sim.Second)
		slept = p.Now()
	})
	s.After(10*sim.Millisecond, func() { n.CrashNode(4) })
	s.Run()
	if _, ok := err.(*ErrRPC); !ok || served != 0 || n.MessagesDropped != 1 {
		t.Fatalf("err=%v served=%d dropped=%d, want an ErrRPC, 0 and 1", err, served, n.MessagesDropped)
	}
	if returned != sim.Time(200*sim.Millisecond) || slept != returned.Add(sim.Second) {
		t.Fatalf("rpc returned at %v and the sleep after it ended at %v, want 200ms and 1.2s", returned, slept)
	}
	// client start, crash, dropped delivery, deadline, end of sleep.
	if s.Events() != 5 {
		t.Fatalf("%d events ran, want 5", s.Events())
	}
}

// TestSendAllocatesNothingInFlight: at steady state a plain message is a
// recycled record and a queue entry; the delivery gives the record back.
func TestSendAllocatesNothingInFlight(t *testing.T) {
	s := sim.New(1)
	n := twoNodeNet(s)
	delivered := 0
	n.Register(2, func(Message) { delivered++ })
	var payload interface{} = "x"
	round := func() {
		for i := 0; i < 8; i++ {
			n.Send(1, 2, payload)
		}
		s.Run()
	}
	round() // grow the queue and make the eight records
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("8 sends and their deliveries allocate %.1f objects, want 0", allocs)
	}
	if len(n.free) != 8 || delivered != 8*102 {
		t.Fatalf("%d records in the free list after %d deliveries, want 8 after %d", len(n.free), delivered, 8*102)
	}
	// A message dropped at delivery gives its record back too, once.
	n.Send(1, 2, payload)
	n.CrashNode(2)
	s.Run()
	if len(n.free) != 8 || n.MessagesDropped != 1 {
		t.Fatalf("%d records in the free list and %d drops after a drop in flight, want 8 and 1", len(n.free), n.MessagesDropped)
	}
	seen := map[*flight]bool{}
	for _, f := range n.free {
		if seen[f] || f.msg != (Message{}) {
			t.Fatalf("free list holds a record twice, or one that still pins its message: %+v", f.msg)
		}
		seen[f] = true
	}
}

// TestRPCRoundTripAllocs: an echo round trip allocates nothing. The record
// for the exchange (request, reply slot, waiter) and the two delivery
// callbacks bound to it come back from the network's free list once the
// reply has landed. They were three objects per round trip while each
// exchange made its own record, and seven while the future, the wake and
// timeout closures and what they captured were objects of their own.
func TestRPCRoundTripAllocs(t *testing.T) {
	s := sim.New(1)
	n := twoNodeNet(s)
	n.Register(2, echo)
	var payload interface{} = "ping"
	var allocs float64
	s.Spawn("client", func(p *sim.Proc) {
		rpc := func() {
			if _, err := n.SendRPC(p, 1, 2, payload, 0); err != nil {
				t.Error(err)
			}
		}
		rpc() // the handler's process, the queue, the record
		allocs = testing.AllocsPerRun(100, rpc)
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("an echo round trip allocates %.1f objects, want 0", allocs)
	}
	if len(n.freeRPCs) != 1 || n.freeRPCs[0].Payload != nil || n.freeRPCs[0].resp != nil {
		t.Fatalf("free list holds %d records after back-to-back round trips, want one, cleared", len(n.freeRPCs))
	}
}

// TestLateReplyIsNeverRecycled: a handler replies after its caller's
// deadline. The caller's record is abandoned, never reused, so the late reply
// writes into a record nobody reads, and the next exchange, in flight when
// the late reply is sent, still receives its own reply. Recycling the record
// at the timeout would hand it to the next exchange, whose caller would then
// take the late reply for its own.
func TestLateReplyIsNeverRecycled(t *testing.T) {
	s := sim.New(1)
	n := twoNodeNet(s)
	var late *RPCRequest
	n.Register(2, func(m Message) {
		req := m.Payload.(*RPCRequest)
		switch req.Payload {
		case "slow": // replies 300ms after its delivery
			late = req
			req.Proc.Sleep(300 * sim.Millisecond)
			req.Reply("late")
		default: // replies 250ms after its delivery, after the late reply
			req.Proc.Sleep(250 * sim.Millisecond)
			req.Reply(req.Payload)
		}
	})
	var first, second interface{}
	var firstErr, secondErr error
	s.Spawn("client", func(p *sim.Proc) {
		first, firstErr = n.SendRPC(p, 1, 2, "slow", 100*sim.Millisecond)
		second, secondErr = n.SendRPC(p, 1, 2, "fast", 0)
	})
	s.Run()
	if _, ok := firstErr.(*ErrRPC); !ok || first != nil {
		t.Fatalf("first exchange returned (%v, %v), want a timeout", first, firstErr)
	}
	if secondErr != nil || second != "fast" {
		t.Fatalf("second exchange returned (%v, %v), want its own reply, fast", second, secondErr)
	}
	if late.resp != "late" {
		t.Fatalf("the late reply left %v in its record, want late", late.resp)
	}
	for _, r := range n.freeRPCs {
		if r == late {
			t.Fatal("the timed-out exchange's record is in the free list")
		}
	}
	if len(n.freeRPCs) != 1 {
		t.Fatalf("free list holds %d records, want the second exchange's", len(n.freeRPCs))
	}
}

// TestBlockedFastPath: blocked answers from three lengths when no fault is
// installed. Every way to heal a fault must therefore empty its map again,
// and any one kind of fault alone must leave the fast path.
func TestBlockedFastPath(t *testing.T) {
	n := NewNetwork(sim.New(1), threeRegionTopo())
	for name, fault := range map[string][2]func(){
		"crash":     {func() { n.CrashNode(4) }, func() { n.RestartNode(4) }},
		"partition": {func() { n.Partition(1, 4) }, func() { n.Heal(1, 4) }},
		"one-way":   {func() { n.PartitionOneWay(1, 4) }, func() { n.HealOneWay(1, 4) }},
		"region":    {func() { n.FailRegion(EuropeW2) }, func() { n.RecoverRegion(EuropeW2) }},
	} {
		fault[0]()
		if !n.blocked(1, 4) || n.blocked(1, 7) {
			t.Errorf("%s: blocked(1,4)=%v blocked(1,7)=%v, want true and false", name, n.blocked(1, 4), n.blocked(1, 7))
		}
		fault[1]()
		if left := len(n.downNodes) + len(n.partitioned) + len(n.downRegions); left != 0 || n.blocked(1, 4) {
			t.Errorf("%s: %d fault entries left after healing, blocked(1,4)=%v", name, left, n.blocked(1, 4))
		}
	}
}

// TestMetricHandles: the network counts what it always counted, under the
// same names, through handles it resolves once per registry; a registry
// assigned later takes over from that message on, and none at all is fine.
func TestMetricHandles(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, threeRegionTopo())
	serve := func(m Message) {
		if req, ok := m.Payload.(*RPCRequest); ok {
			req.Reply(req.Payload)
		}
	}
	n.Register(2, serve)
	n.Register(4, serve)
	check := func(r *obs.Registry, want int64) {
		t.Helper()
		for name, v := range map[string]int64{"net.send": 2 * want, "net.send.wan": want, "net.rpc": 2 * want, "net.rpc.wan": want} {
			if got := r.Counter(name).Value(); got != v {
				t.Errorf("%s = %d, want %d", name, got, v)
			}
		}
		if got := r.Histogram("net.rpc.rtt").Count(); got != 2*want {
			t.Errorf("net.rpc.rtt holds %d samples, want %d", got, 2*want)
		}
	}
	round := func() {
		s.Spawn("client", func(p *sim.Proc) {
			n.Send(1, 2, "local")
			n.Send(1, 4, "wan")
			n.SendRPC(p, 1, 2, "local", 0)
			n.SendRPC(p, 1, 4, "wan", 0)
		})
		s.Run()
	}
	round() // no registry
	first := obs.NewRegistry()
	n.Metrics = first
	round()
	round()
	check(first, 2)
	second := obs.NewRegistry()
	n.Metrics = second
	round()
	check(first, 2)
	check(second, 1)
	if n.MessagesSent != 16 || n.MessagesDropped != 0 {
		t.Errorf("sent %d dropped %d, want 16 and 0", n.MessagesSent, n.MessagesDropped)
	}
}
