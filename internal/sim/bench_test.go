package sim

import "testing"

// benchEventQueue measures raw event-queue throughput: one proc sleeping in
// a tight loop, so each iteration is a schedule + pop + resume round through
// the heap. This is the floor every simulated RPC pays twice.
func benchEventQueue(b *testing.B, s *Simulation) {
	b.ReportAllocs()
	s.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Millisecond)
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkEventQueue(b *testing.B) { benchEventQueue(b, New(1)) }

// benchSpawnFanOut measures proc spawn/join overhead: each iteration spawns
// a batch of procs that sleep once and rejoin through a WaitGroup — the
// shape of a DistSender per-range fan-out.
func benchSpawnFanOut(b *testing.B, s *Simulation) {
	const fan = 8
	b.ReportAllocs()
	s.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			wg := s.GetWaitGroup()
			for j := 0; j < fan; j++ {
				wg.Add(1)
				s.Spawn("worker", func(wp *Proc) {
					defer wg.Done()
					wp.Sleep(Millisecond)
				})
			}
			wg.Wait(p)
			wg.Release()
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkSpawnFanOut(b *testing.B) { benchSpawnFanOut(b, New(1)) }

// BenchmarkScheduleDrain measures bare callback scheduling: b.N events
// pushed onto the queue, then drained in one Run.
func BenchmarkScheduleDrain(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.After(Duration(i%1000)*Microsecond, func() {})
	}
	b.ResetTimer()
	s.Run()
}
