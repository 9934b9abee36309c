package simnet

import (
	"testing"

	"mrdb/internal/sim"
)

// twoNodeNet is a network of nodes 1 and 2 in one zone, without jitter and at
// the 10µs floor of the one-way delay.
func twoNodeNet(s *sim.Simulation) *Network {
	topo := NewTable1Topology()
	topo.Jitter = 0
	topo.IntraZoneRTT = 0
	topo.AddNode(1, Locality{Region: USEast1, Zone: "a"})
	topo.AddNode(2, Locality{Region: USEast1, Zone: "a"})
	return NewNetwork(s, topo)
}

// echo answers every request with its own payload.
func echo(m Message) {
	req := m.Payload.(*RPCRequest)
	req.Reply(req.Payload)
}

// BenchmarkRPCRoundTrip times echo round trips issued back to back, 10 000
// to a simulation, which take 200 virtual ms: no 10-second timeout comes due
// while the loop runs. If a finished RPC left its deadline
// behind, the event queue would grow to 10 000 entries and every push and pop
// would pay for the depth: a tombstone heap that grows back shows as ns/op
// here, and allocations per round trip show as allocs/op.
func BenchmarkRPCRoundTrip(b *testing.B) {
	b.ReportAllocs()
	const perSim = 10000
	for done := 0; done < b.N; done += perSim {
		s := sim.New(1)
		n := twoNodeNet(s)
		n.Register(2, echo)
		k := min(perSim, b.N-done)
		s.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				if _, err := n.SendRPC(p, 1, 2, "ping", 0); err != nil {
					b.Errorf("rpc %d: %v", i, err)
					return
				}
			}
		})
		s.Run()
	}
}

// BenchmarkSendDeliver times one plain message from Send to its handler,
// with 64 in flight at a time.
func BenchmarkSendDeliver(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	n := twoNodeNet(s)
	delivered := 0
	n.Register(2, func(Message) { delivered++ })
	var payload interface{} = "x"
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		for k := 0; k < 64 && sent < b.N; k++ {
			n.Send(1, 2, payload)
			sent++
		}
		s.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
