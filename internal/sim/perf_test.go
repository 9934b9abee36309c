package sim

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// mailbox is an unbounded FIFO rendezvous between procs: Send never blocks
// and wakes the longest-waiting receiver; Recv parks until an item is
// queued. It is the message path of schedulerWorkload, whose golden hashes
// fix the exact wakes it makes.
type mailbox struct {
	sim     *Simulation
	queue   []int
	waiters []*Proc
}

func (m *mailbox) Send(v int) {
	m.queue = append(m.queue, v)
	m.wakeOne()
}

func (m *mailbox) wakeOne() {
	if len(m.waiters) == 0 {
		return
	}
	w := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.sim.wakeAt(m.sim.now, w)
}

func (m *mailbox) Recv(p *Proc) int {
	for len(m.queue) == 0 {
		m.waiters = append(m.waiters, p)
		p.park()
	}
	v := m.queue[0]
	m.queue = m.queue[1:]
	// If items remain and receivers wait, pass the wake on.
	if len(m.queue) > 0 {
		m.wakeOne()
	}
	return v
}

// schedulerWorkload drives a randomized mix of every scheduler feature —
// sleeps, mailbox rendezvous, futures, waitgroup fan-outs, bare callbacks —
// and records the (virtual time, kind) of every observed step plus the
// consumer-side message trace. TestScheduleGolden hashes both. Every sleep
// draws from rng, in the order the processes run.
func schedulerWorkload(s *Simulation, rng *rand.Rand) (steps []Time, trace []Time) {
	s.stepHook = func(at Time) { steps = append(steps, at) }
	m := &mailbox{sim: s}
	f := NewFuture[string](s)
	for i := 0; i < 8; i++ {
		s.Spawn("producer", func(p *Proc) {
			for j := 0; j < 12; j++ {
				p.Sleep(Duration(rng.Intn(700)) * Microsecond)
				m.Send(j)
			}
		})
	}
	s.Spawn("fanout", func(p *Proc) {
		for i := 0; i < 5; i++ {
			wg := s.GetWaitGroup()
			for j := 0; j < 4; j++ {
				wg.Add(1)
				s.Spawn("child", func(cp *Proc) {
					defer wg.Done()
					cp.Sleep(Duration(rng.Intn(300)) * Microsecond)
				})
			}
			wg.Wait(p)
			wg.Release()
		}
		f.Set("fanout-done")
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 96; i++ {
			m.Recv(p)
			trace = append(trace, p.Now())
		}
		f.Wait(p)
	})
	s.Spawn("timeouts", func(p *Proc) {
		g := NewFuture[int](s)
		g.WaitTimeout(p, 3*Millisecond)
		f.WaitTimeout(p, Second)
	})
	s.Schedule(Time(2*Millisecond), func() { m.Send(-1) })
	s.Run()
	return steps, trace
}

// scheduleHash is FNV-1a over the step times followed by the consumer trace,
// each as 8 little-endian bytes.
func scheduleHash(steps, trace []Time) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ts := range [][]Time{steps, trace} {
		for _, t := range ts {
			binary.LittleEndian.PutUint64(b[:], uint64(t))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestScheduleGolden pins the scheduler (value-event 4-ary heap, direct proc
// wakes, pooled coroutines) to the event sequence the original boxed
// container/heap scheduler executed: the hashes were captured
// at the last commit that carried both, where the two agreed step for step
// on every seed. Any optimization that perturbs event order fails here
// before it can corrupt a span-hash oracle downstream.
func TestScheduleGolden(t *testing.T) {
	for _, g := range []struct {
		seed int64
		hash uint64
	}{
		{1, 0x570e0d51446c66df},
		{7, 0x9496df31e0a45885},
		{42, 0x36ce29a5d2d9d1eb},
		{999, 0xefe1a6058a88b871},
	} {
		steps, trace := schedulerWorkload(New(g.seed), rand.New(rand.NewSource(g.seed)))
		if len(trace) != 96 {
			t.Fatalf("seed %d: consumer saw %d messages, want 96", g.seed, len(trace))
		}
		if got := scheduleHash(steps, trace); got != g.hash {
			t.Errorf("seed %d: schedule hash %#016x over %d steps, want %#016x",
				g.seed, got, len(steps), g.hash)
		}
	}
}

// refEvent and refHeap are the reference model for the event queue: boxed
// (at, seq) entries behind container/heap, the shape the scheduler's first
// queue had.
type refEvent struct {
	at  Time
	seq int64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestFourAryHeapMatchesReference drives 10k randomized pushes, pops and
// removes of (at, seq) events — many sharing a timestamp, so the seq tie-break
// matters — through fourAryHeap and through the container/heap model, and
// requires the identical pop order. A third of the events are deadlines, the
// only entries remove is ever asked for: after every operation each queued
// deadline's process must know exactly where its entry sits, and every other
// process (a plain wake queued, or its deadline popped or removed) must be
// untracked.
func TestFourAryHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fourAryHeap
	var ref refHeap
	var seq int64
	type tracked struct {
		p   *Proc
		seq int64
	}
	var deadlines []tracked // queued deadline entries, in push order
	var others []*Proc      // processes behind plain wakes, and past deadlines
	check := func(op int) {
		t.Helper()
		if len(q) != ref.Len() {
			t.Fatalf("op %d: %d queued, reference holds %d", op, len(q), ref.Len())
		}
		for _, d := range deadlines {
			if i := d.p.deadline; i < 0 || i >= len(q) || q[i].proc != d.p || q[i].seq != d.seq {
				t.Fatalf("op %d: deadline seq %d tracked at index %d, which does not hold it", op, d.seq, i)
			}
		}
		for _, p := range others {
			if p.deadline != -1 {
				t.Fatalf("op %d: a process with no deadline queued is tracked at index %d", op, p.deadline)
			}
		}
	}
	// left records that e is out of the queue, however it went.
	left := func(e event) {
		for i, d := range deadlines {
			if d.p == e.proc {
				deadlines = append(deadlines[:i], deadlines[i+1:]...)
				others = append(others, d.p)
				return
			}
		}
	}
	pop := func(op int) {
		got, want := q.pop(), heap.Pop(&ref).(refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: popped (%d, %d), reference popped (%d, %d)",
				op, got.at, got.seq, want.at, want.seq)
		}
		left(got)
	}
	for op := 0; op < 10000; op++ {
		check(op)
		switch r := rng.Intn(10); {
		case len(q) == 0 || r < 5:
			seq++
			e := event{at: Time(rng.Intn(64)), seq: seq}
			switch rng.Intn(3) {
			case 0: // a deadline
				e.proc = &Proc{deadline: 0}
				deadlines = append(deadlines, tracked{e.proc, seq})
			case 1: // a plain wake
				e.proc = &Proc{deadline: -1}
				others = append(others, e.proc)
			}
			q.push(e)
			heap.Push(&ref, refEvent{at: e.at, seq: seq})
		case r < 7 && len(deadlines) > 0:
			d := deadlines[rng.Intn(len(deadlines))]
			if got := q.remove(d.p.deadline); got.proc != d.p || got.seq != d.seq {
				t.Fatalf("op %d: remove returned seq %d, want deadline seq %d", op, got.seq, d.seq)
			}
			for i, e := range ref {
				if e.seq == d.seq {
					heap.Remove(&ref, i)
					break
				}
			}
			left(event{proc: d.p})
		default:
			pop(op)
		}
	}
	for len(q) > 0 {
		pop(-1)
		check(-1)
	}
	if ref.Len() != 0 {
		t.Fatalf("reference still holds %d events", ref.Len())
	}
}

// TestScheduleInPastFIFO pins the clamp semantics satellite: events
// scheduled with a timestamp in the past run at the current instant, ordered
// strictly by schedule order (seq) among all same-instant events — a
// past-timestamp Schedule cannot jump ahead of work already queued for now.
func TestScheduleInPastFIFO(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(Time(10), func() {
		s.Schedule(Time(10), func() { got = append(got, 1) }) // same instant
		s.Schedule(Time(3), func() { got = append(got, 2) })  // past: clamps to 10
		s.Schedule(Time(0), func() { got = append(got, 3) })  // past: clamps to 10
		s.Schedule(Time(10), func() { got = append(got, 4) }) // same instant
	})
	s.Run()
	if len(got) != 4 {
		t.Fatalf("ran %d events, want 4", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("past-clamped events not in FIFO seq order: %v", got)
		}
	}
	if s.Now() != 10 {
		t.Fatalf("clock rewound: now = %v, want 10", s.Now())
	}
}

// TestAfterClampsNegative covers After's only remaining clamp: a negative
// delay fires at the current instant (After skips Schedule's past-timestamp
// branch because now+d can never be in the past for d >= 0).
func TestAfterClampsNegative(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(Time(5), func() {
		s.After(-Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("negative After fired at %v, want 5", at)
	}
}

// TestProcPoolReuse verifies finished proc coroutines are recycled: after a
// wave of spawns completes, the next wave draws from the free list rather
// than starting more coroutines, and Run drains the pool on exit. A proc
// spawned for a later time is a queue entry and no coroutine until its time
// comes. It counts the simulation's own coroutines, not the process's
// goroutines, so tests running beside it cannot move the count.
func TestProcPoolReuse(t *testing.T) {
	s := New(1)
	ran := 0
	const ahead, hour = 10000, Time(60 * Minute)
	s.Spawn("driver", func(p *Proc) {
		for wave := 0; wave < 10; wave++ {
			wg := s.GetWaitGroup()
			for i := 0; i < 8; i++ {
				wg.Add(1)
				s.Spawn("w", func(wp *Proc) {
					defer wg.Done()
					wp.Sleep(Millisecond)
					ran++
				})
			}
			wg.Wait(p)
			wg.Release()
		}
	})
	for i := 0; i < ahead; i++ {
		s.SpawnAt(hour, "later", func(p *Proc) {
			p.Sleep(Millisecond)
			ran++
		})
	}
	s.RunUntil(hour - 1)
	if ran != 80 {
		t.Fatalf("ran %d workers, want 80", ran)
	}
	if n := s.coroutines; n > maxFreeProcs {
		t.Fatalf("%d coroutines before any of the %d procs spawned ahead has run", n, ahead)
	}
	s.RunUntil(hour)
	if n := s.coroutines; n < ahead {
		t.Fatalf("%d coroutines with %d procs asleep", n, ahead)
	}
	s.Run()
	if ran != 80+ahead {
		t.Fatalf("ran %d procs, want %d", ran, 80+ahead)
	}
	if n := len(s.freeProcs); n != 0 {
		t.Fatalf("Run left %d procs in the free list, want 0", n)
	}
	if n := s.coroutines; n != 0 {
		t.Fatalf("Run left %d coroutines, want 0", n)
	}
}

// TestSpawnedAheadProcAdoptsFreeCoroutine: a proc spawned for a later time is
// a bare queue entry, made when the free list may have been empty. If a
// finished proc is parked there by the time it starts, its work runs on that
// coroutine rather than on a new one — an open loop spawns its whole schedule
// ahead, and would otherwise create a coroutine (and grow its stack from
// scratch) per operation beside a full free list.
func TestSpawnedAheadProcAdoptsFreeCoroutine(t *testing.T) {
	s := New(1)
	var early, late *Proc
	var lateName string
	s.SpawnAt(Time(10*Millisecond), "late", func(p *Proc) {
		late, lateName = p, p.Name()
		p.Sleep(Millisecond)
	})
	s.Spawn("early", func(p *Proc) { early = p })
	s.RunUntil(Time(5 * Millisecond))
	if early == nil || len(s.freeProcs) != 1 {
		t.Fatalf("setup: early ran=%v, %d procs in the free list, want 1", early != nil, len(s.freeProcs))
	}
	s.RunUntil(Time(10 * Millisecond))
	if late != early || lateName != "late" || len(s.freeProcs) != 0 {
		t.Fatalf("late ran as %q on proc %p with %d procs left in the free list; want \"late\" on early's proc %p, taken from the list",
			lateName, late, len(s.freeProcs), early)
	}
	s.Run()
	if s.Now() != Time(11*Millisecond) {
		t.Fatalf("run ended at %v, want 11ms", s.Now())
	}
}

// TestWaitGroupPoolSafety verifies Release refuses to pool a WaitGroup that
// is still in use, so a buggy early Release cannot cause cross-talk.
func TestWaitGroupPoolSafety(t *testing.T) {
	s := New(1)
	wg := s.GetWaitGroup()
	wg.Add(1)
	wg.Release() // in use: must not pool
	if got := s.GetWaitGroup(); got == wg {
		t.Fatal("Release pooled a WaitGroup with a non-zero count")
	}
	wg.Done()
	wg.Release()
	if got := s.GetWaitGroup(); got != wg {
		t.Fatal("idle WaitGroup was not recycled")
	}
}

// TestSteadyStateSleepAllocs asserts the core event loop is allocation-free
// at steady state: after warm-up, a proc sleeping in a loop must not
// allocate per event.
func TestSteadyStateSleepAllocs(t *testing.T) {
	s := New(1)
	var perSleep float64
	s.Spawn("bench", func(p *Proc) {
		const warm, n = 64, 2048
		for i := 0; i < warm; i++ {
			p.Sleep(Microsecond)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			p.Sleep(Microsecond)
		}
		runtime.ReadMemStats(&after)
		perSleep = float64(after.Mallocs-before.Mallocs) / n
	})
	s.Run()
	if perSleep > 0.05 {
		t.Fatalf("steady-state sleep allocates %.3f objects/event, want ~0", perSleep)
	}
}

// TestStopHaltsSpinningProc ensures Stop halts a proc that sleeps in a loop
// with nothing else in the queue.
func TestStopHaltsSpinningProc(t *testing.T) {
	s := New(1)
	iters := 0
	s.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
			iters++
		}
	})
	s.Schedule(Time(5*Millisecond)+1, func() { s.Stop() })
	s.Run()
	if iters > 6 {
		t.Fatalf("proc ran %d iterations past Stop", iters)
	}
}

// TestRunUntilLeavesLaterSelfWakeQueued ensures RunUntil's deadline holds
// for a lone sleeping proc: its wake event scheduled beyond the bound stays
// queued for the next run.
func TestRunUntilLeavesLaterSelfWakeQueued(t *testing.T) {
	s := New(1)
	var wokeAt []Time
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Millisecond)
			wokeAt = append(wokeAt, p.Now())
		}
	})
	s.RunUntil(Time(15 * Millisecond))
	if len(wokeAt) != 1 {
		t.Fatalf("woke %d times inside bound, want 1 (wokeAt=%v)", len(wokeAt), wokeAt)
	}
	if s.Now() != Time(15*Millisecond) {
		t.Fatalf("now = %v, want 15ms", s.Now())
	}
	s.Run()
	if len(wokeAt) != 3 {
		t.Fatalf("woke %d times total, want 3", len(wokeAt))
	}
}

var nilMap map[int]int

//go:noinline
func writeNilMap() { nilMap[1] = 1 }

// TestProcPanicCarriesNameAndStack ensures a panic inside a proc reaches
// Run's caller naming the proc and carrying the stack it was raised on: the
// panic crosses from the proc's coroutine to the scheduler's goroutine, whose
// own trace shows only the scheduler.
func TestProcPanicCarriesNameAndStack(t *testing.T) {
	s := New(1)
	s.Spawn("doomed", func(p *Proc) {
		p.Sleep(Millisecond)
		writeNilMap()
	})
	defer func() {
		got := fmt.Sprint(recover())
		for _, want := range []string{`proc "doomed"`, "assignment to entry in nil map", "sim.writeNilMap"} {
			if !strings.Contains(got, want) {
				t.Errorf("panic out of Run lacks %q:\n%s", want, got)
			}
		}
	}()
	s.Run()
	t.Fatal("Run returned past a panicking proc")
}
