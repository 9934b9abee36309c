package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Millisecond)
		wake = p.Now()
	})
	s.Run()
	if wake != Time(100*Millisecond) {
		t.Fatalf("woke at %v, want 100ms", wake)
	}
}

func TestProcSleepUntilPast(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.SleepUntil(5) // already past; should not rewind time
		if p.Now() < 10 {
			t.Errorf("time went backwards: %v", p.Now())
		}
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("proc did not complete")
	}
}

func TestManyProcsInterleave(t *testing.T) {
	s := New(1)
	const n = 50
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("worker", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(Duration(i+1) * Millisecond)
				counts[i]++
			}
		})
	}
	s.Run()
	for i, c := range counts {
		if c != 20 {
			t.Fatalf("proc %d ran %d iterations, want 20", i, c)
		}
	}
}

func TestFutureSetBeforeWait(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	f.Set(42)
	var got int
	s.Spawn("w", func(p *Proc) { got = f.Wait(p) })
	s.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestFutureSetAfterWait(t *testing.T) {
	s := New(1)
	f := NewFuture[string](s)
	var got string
	var at Time
	s.Spawn("w", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	s.Spawn("setter", func(p *Proc) {
		p.Sleep(7 * Millisecond)
		f.Set("done")
	})
	s.Run()
	if got != "done" || at != Time(7*Millisecond) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	total := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) { total += f.Wait(p) })
	}
	s.Spawn("setter", func(p *Proc) {
		p.Sleep(1)
		f.Set(10)
	})
	s.Run()
	if total != 50 {
		t.Fatalf("total = %d, want 50", total)
	}
}

func TestFutureWaitTimeoutExpires(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var ok bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		_, ok = f.WaitTimeout(p, 50*Millisecond)
		at = p.Now()
	})
	s.Run()
	if ok {
		t.Fatal("wait unexpectedly succeeded")
	}
	if at != Time(50*Millisecond) {
		t.Fatalf("timed out at %v, want 50ms", at)
	}
}

func TestFutureWaitTimeoutFulfilled(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var got int
	var ok bool
	s.Spawn("w", func(p *Proc) { got, ok = f.WaitTimeout(p, 50*Millisecond) })
	s.Spawn("setter", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		f.Set(9)
	})
	s.Run()
	if !ok || got != 9 {
		t.Fatalf("got %d ok=%v", got, ok)
	}
}

// TestFutureFulfilledAtDeadlineInstant: a fulfilment and the deadline of a
// wait fall on the same nanosecond. Whichever event is first in the queue
// decides the outcome, and either way the waiter is resumed exactly once and
// nothing is left queued for it. The trap is the fulfil-first order with Set:
// the waiter's wake is queued behind the deadline, so a deadline that Set left
// in place would fire in between and resume the waiter a second time, out of
// whatever it blocks on next (here a one-second sleep, which must last its
// second).
func TestFutureFulfilledAtDeadlineInstant(t *testing.T) {
	const at = Time(50 * Millisecond)
	for _, c := range []struct {
		name          string
		fulfil        func(f *Future[int])
		deadlineFirst bool
		events        int64 // waiter start, [deadline,] fulfilment, [wake,] end of sleep
	}{
		{"Set first", func(f *Future[int]) { f.Set(9) }, false, 4},
		{"Deliver first", func(f *Future[int]) { f.Deliver(9) }, false, 3},
		{"deadline first, then Set", func(f *Future[int]) { f.Set(9) }, true, 4},
		{"deadline first, then Deliver", func(f *Future[int]) { f.Deliver(9) }, true, 4},
	} {
		s := New(1)
		f := NewFuture[int](s)
		var got int
		var ok bool
		var returned, slept Time
		returns := 0
		waiter := func(p *Proc) {
			got, ok = f.WaitTimeout(p, at.Sub(p.Now()))
			returns++
			returned = p.Now()
			p.Sleep(Second)
			slept = p.Now()
		}
		if c.deadlineFirst {
			s.Spawn("waiter", waiter)
			s.RunUntil(0) // the waiter has parked: its deadline is in the queue
			s.Schedule(at, func() { c.fulfil(f) })
		} else {
			s.Schedule(at, func() { c.fulfil(f) })
			s.Spawn("waiter", waiter)
		}
		s.Run()
		if wantOK := !c.deadlineFirst; ok != wantOK || (ok && got != 9) {
			t.Errorf("%s: WaitTimeout returned (%d, %v), want ok=%v", c.name, got, ok, wantOK)
		}
		if returns != 1 || returned != at || slept != at.Add(Second) {
			t.Errorf("%s: WaitTimeout returned %d times, last at %v, and the sleep after it ended at %v; want once at %v and %v",
				c.name, returns, returned, slept, at, at.Add(Second))
		}
		if s.Events() != c.events || s.Pending() != 0 || len(f.waiters) != 0 {
			t.Errorf("%s: %d events ran (want %d), %d still queued, %d still waiting",
				c.name, s.Events(), c.events, s.Pending(), len(f.waiters))
		}
	}
}

// TestFutureWaitTimeoutLeavesNothing: a wait that is fulfilled in time takes
// its deadline out of the queue, so the run ends when the work does and not
// at the deadline; a wait that expires takes its process out of the future's
// waiters, so a later Set wakes nobody.
func TestFutureWaitTimeoutLeavesNothing(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	s.Spawn("w", func(p *Proc) { f.WaitTimeout(p, 10*Second) })
	s.Schedule(Time(Millisecond), func() {
		if s.Pending() != 1 {
			t.Errorf("%d events queued while the waiter is parked, want its deadline alone", s.Pending())
		}
		f.Set(1)
		if s.Pending() != 1 {
			t.Errorf("%d events queued after Set, want the wake alone", s.Pending())
		}
	})
	if end := s.Run(); end != Time(Millisecond) || s.Events() != 3 {
		t.Fatalf("run ended at %v after %d events, want 1ms after 3: the deadline was left behind", end, s.Events())
	}

	s = New(1)
	g := NewFuture[int](s)
	s.Spawn("w", func(p *Proc) {
		if _, ok := g.WaitTimeout(p, Millisecond); ok {
			t.Error("wait on an empty future succeeded")
		}
		p.Sleep(Second)
	})
	s.RunUntil(Time(2 * Millisecond))
	if len(g.waiters) != 0 {
		t.Fatalf("%d waiters after the wait expired, want 0", len(g.waiters))
	}
	g.Set(1)
	if s.Pending() != 1 { // the sleep
		t.Fatalf("%d events queued after a Set nobody waits for, want 1", s.Pending())
	}
	if end := s.Run(); end != Time(Millisecond).Add(Second) {
		t.Fatalf("run ended at %v, want 1.001s", end)
	}
}

// TestFutureNotifyTakesAWakesPlace: a Notify callback runs where a waiting
// process would be resumed — Set queues it at that instant, behind the
// waiters' wakes and ahead of anything queued after Set; Deliver calls it
// inline; on a fulfilled future it is queued at once — and it runs once.
func TestFutureNotifyTakesAWakesPlace(t *testing.T) {
	for _, deliver := range []bool{false, true} {
		s := New(1)
		f := NewFuture[int](s)
		var order []string
		s.Spawn("waiter", func(p *Proc) {
			f.Wait(p)
			order = append(order, "waiter")
		})
		f.Notify(s, func() { order = append(order, "notify") })
		s.Schedule(Time(Millisecond), func() {
			if deliver {
				f.Deliver(1)
			} else {
				f.Set(1)
			}
			s.Schedule(s.Now(), func() { order = append(order, "after") })
		})
		s.Run()
		want := []string{"waiter", "notify", "after"}
		if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
			t.Errorf("deliver=%v: order %v, want %v", deliver, order, want)
		}
	}
	s := New(1)
	f := NewFuture[int](s)
	f.Set(1)
	var ran []Time
	s.Schedule(0, func() {})
	f.Notify(s, func() { ran = append(ran, s.Now()) })
	s.Run()
	if len(ran) != 1 || ran[0] != 0 {
		t.Errorf("Notify on a fulfilled future ran at %v", ran)
	}
}

// TestWaitTimeoutAllocatesNothing: a deadline is a value in the event queue,
// not a closure and a cell to share with it.
func TestWaitTimeoutAllocatesNothing(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var perWait float64
	s.Spawn("w", func(p *Proc) {
		perWait = testing.AllocsPerRun(1000, func() { f.WaitTimeout(p, Microsecond) })
	})
	s.Run()
	if perWait != 0 {
		t.Fatalf("WaitTimeout allocates %.2f objects per expired wait, want 0", perWait)
	}
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	var doneAt Time
	const n = 8
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(i+1) * Millisecond)
			wg.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run()
	if doneAt != Time(n*Millisecond) {
		t.Fatalf("waiter released at %v, want %v", doneAt, Time(n*Millisecond))
	}
}

// TestFanout: children start in index order at the parent's instant, carry
// its observability context, and the parent resumes when the slowest returns.
func TestFanout(t *testing.T) {
	s := New(1)
	var order []int
	var joined Time
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		p.SetObsCtx("ctx")
		p.Fanout("child", 4, func(cp *Proc, i int) {
			if cp.ObsCtx() != "ctx" || cp.Now() != Time(Millisecond) {
				t.Errorf("child %d: obsctx %v at %v", i, cp.ObsCtx(), cp.Now())
			}
			order = append(order, i)
			cp.Sleep(Duration(4-i) * Millisecond)
		})
		joined = p.Now()
		p.Fanout("none", 0, nil)
	})
	s.Run()
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("children started in order %v, want [0 1 2 3]", order)
	}
	if joined != Time(5*Millisecond) || s.Now() != joined {
		t.Fatalf("parent resumed at %v, run ended at %v, want 5ms for both", joined, s.Now())
	}
}

// TestGroupStartsChildrenWithoutAllocating: a group's children start in the
// order Go was called, each with the index handed to Go and the observability
// context its parent had when it made the group, and Wait returns when the
// slowest has returned. A child learns its index from the group, not from a
// closure of its own, so once the free lists have grown a fan-out of four
// allocates nothing.
func TestGroupStartsChildrenWithoutAllocating(t *testing.T) {
	s := New(1)
	order := make([]int, 0, 1024)
	fn := func(cp *Proc, i int) {
		if cp.ObsCtx() != "ctx" {
			t.Errorf("child %d: obsctx %v, want ctx", i, cp.ObsCtx())
		}
		order = append(order, i)
		cp.Sleep(Duration(i) * Millisecond)
	}
	var allocs float64
	s.Spawn("parent", func(p *Proc) {
		p.SetObsCtx("ctx")
		g := p.Group(fn)
		p.SetObsCtx("later")
		for _, i := range []int{3, 0, 2} {
			g.Go("child", i)
		}
		start := p.Now()
		g.Wait(p)
		if !slices.Equal(order, []int{3, 0, 2}) || p.Now().Sub(start) != 3*Millisecond {
			t.Errorf("children started in order %v and were joined after %v, want [3 0 2] and 3ms", order, p.Now().Sub(start))
		}
		if p.Group(fn) != g {
			t.Error("Wait did not give the group back to the free list")
		}
		p.SetObsCtx("ctx")
		fan := func() { p.Fanout("child", 4, fn) }
		fan() // the procs, the group's index list, the queue
		allocs = testing.AllocsPerRun(50, fan)
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("a fan-out of four allocates %.1f objects, want 0", allocs)
	}
}

// TestRunnerStartsEachOnItsOwnValue: processes a Runner spawns, at one
// instant or at several, each run the body on the value their own Go
// queued, including when another process spawns between them, and once the
// queue has grown, starting one allocates nothing.
func TestRunnerStartsEachOnItsOwnValue(t *testing.T) {
	s := New(1)
	var got []string
	var r Runner[string]
	r.Bind(func(p *Proc, v string) {
		got = append(got, v)
		p.Sleep(Millisecond)
		got = append(got, v)
	})
	var allocs float64
	s.Spawn("parent", func(p *Proc) {
		r.Go(s, "a", "a")
		s.Spawn("other", func(*Proc) { got = append(got, "other") })
		r.Go(s, "b", "b")
		p.Sleep(Microsecond)
		r.Go(s, "c", "c")
		p.Sleep(Second)
		if want := []string{"a", "other", "b", "c", "a", "b", "c"}; !slices.Equal(got, want) {
			t.Errorf("the bodies ran as %v, want %v", got, want)
		}
		got = make([]string, 0, 1024)
		start := func() {
			r.Go(s, "d", "d")
			r.Go(s, "e", "e")
			p.Sleep(Second)
		}
		start() // the procs, the queue
		allocs = testing.AllocsPerRun(50, start)
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("starting two processes allocates %.1f objects, want 0", allocs)
	}
}

// TestFanoutOfOneRunsOnCaller: a fan-out of one is a call. It consumes no
// event, runs at the caller's instant on the caller's process, and a child
// that replaces the observability context (obs.SetProcSpan does) leaves the
// caller's as it found it.
func TestFanoutOfOneRunsOnCaller(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("parent", func(p *Proc) {
		p.SetObsCtx("parent-span")
		events := s.Events()
		p.Fanout("child", 1, func(cp *Proc, i int) {
			ran = true
			if cp != p || i != 0 || cp.ObsCtx() != "parent-span" {
				t.Errorf("child ran as (%p, %d) with obsctx %v, want the caller %p, 0, parent-span", cp, i, cp.ObsCtx(), p)
			}
			cp.SetObsCtx("child-span")
		})
		if p.ObsCtx() != "parent-span" {
			t.Errorf("obsctx after the fan-out is %v, want parent-span", p.ObsCtx())
		}
		if got := s.Events() - events; got != 0 || s.Pending() != 0 {
			t.Errorf("fan-out of one ran %d events and left %d queued, want 0 and 0", got, s.Pending())
		}
	})
	s.Run()
	if !ran {
		t.Fatal("child did not run")
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	ready := false
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woken++
		})
	}
	s.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		ready = true
		c.Broadcast()
	})
	s.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

// TestLineWakesFirstInFirstOut: processes queued in a Line wake one per
// WakeFirst, in the order they joined, each at the instant of its wake and
// with one event; a copy of the line is a value its owner stores back; an
// empty line wakes no one, and a process may not await in no line.
func TestLineWakesFirstInFirstOut(t *testing.T) {
	s := New(1)
	var line Line
	var order []int
	var at []Time
	for i := 0; i < 3; i++ {
		s.SpawnAt(Time(i+1), "w", func(p *Proc) {
			l := line
			l.Join(p)
			line = l
			p.Await()
			order = append(order, i)
			at = append(at, p.Now())
		})
	}
	s.SpawnAt(Time(Millisecond), "waker", func(p *Proc) {
		if line.Empty() {
			t.Error("three processes joined, the line is empty")
		}
		for i := 0; i < 4; i++ {
			events := s.Events()
			line.WakeFirst()
			p.Sleep(Millisecond)
			if got := s.Events() - events; i < 3 && got != 2 {
				t.Errorf("wake %d and a sleep took %d events, want 2", i, got)
			}
		}
		if !line.Empty() {
			t.Error("the line is not empty after every process woke")
		}
	})
	s.Run()
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("woke in order %v, want [0 1 2]", order)
	}
	for i, w := range at {
		if want := Time((i + 1) * int(Millisecond)); w != want {
			t.Errorf("process %d woke at %v, want %v", i, w, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a process awaited in no line")
		}
	}()
	s.Spawn("stray", func(p *Proc) { p.Await() })
	s.Run()
}

// TestCondWaitTimeout: a Broadcast ends a timed wait at its instant and takes
// the deadline out of the queue; a wait nobody broadcasts to ends at its
// deadline and leaves the waiter list, so a later Broadcast wakes nobody. Each
// way the wait costs one event, as the sleep it replaces does.
func TestCondWaitTimeout(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var woken []bool
	var at []Time
	s.Spawn("early", func(p *Proc) {
		woken = append(woken, c.WaitTimeout(p, Second))
		at = append(at, p.Now())
	})
	s.Schedule(Time(Millisecond), func() {
		if s.Pending() != 1 {
			t.Errorf("%d events queued while the waiter is parked, want its deadline alone", s.Pending())
		}
		c.Broadcast()
		if s.Pending() != 1 {
			t.Errorf("%d events queued after Broadcast, want the wake alone", s.Pending())
		}
	})
	if end := s.Run(); end != Time(Millisecond) || s.Events() != 3 {
		t.Fatalf("run ended at %v after %d events, want 1ms after 3: the deadline was left behind", end, s.Events())
	}

	s.Spawn("late", func(p *Proc) {
		woken = append(woken, c.WaitTimeout(p, Millisecond))
		at = append(at, p.Now())
	})
	s.RunUntil(Time(5 * Millisecond))
	if len(c.waiters) != 0 {
		t.Fatalf("%d waiters after the wait expired, want 0", len(c.waiters))
	}
	c.Broadcast()
	if s.Pending() != 0 {
		t.Fatalf("%d events queued after a Broadcast nobody waits for, want 0", s.Pending())
	}
	if !slices.Equal(woken, []bool{true, false}) || !slices.Equal(at, []Time{Time(Millisecond), Time(2 * Millisecond)}) {
		t.Fatalf("waits returned %v at %v, want [true false] at [1ms 2ms]", woken, at)
	}

	var perWait float64
	s.Spawn("w", func(p *Proc) {
		perWait = testing.AllocsPerRun(1000, func() { c.WaitTimeout(p, Microsecond) })
	})
	s.Run()
	if perWait != 0 {
		t.Fatalf("Cond.WaitTimeout allocates %.2f objects per expired wait, want 0", perWait)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	ticks := 0
	var stop func()
	stop = s.Ticker(10*Millisecond, func() {
		ticks++
		if ticks == 5 {
			stop()
		}
	})
	s.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if s.Now() != Time(50*Millisecond) {
		t.Fatalf("final time %v, want 50ms", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(Time(10), func() { fired++ })
	s.Schedule(Time(30), func() { fired++ })
	s.RunUntil(Time(20))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("now = %v, want 20", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(1, func() { fired++; s.Stop() })
	s.Schedule(2, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
}

// TestDeterminism runs the same randomized workload twice and requires
// identical traces: the foundation of reproducible experiments.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []Time {
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		for i := 0; i < 10; i++ {
			s.Spawn("producer", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(rng.Intn(1000)) * Microsecond)
					trace = append(trace, p.Now())
				}
			})
		}
		s.Run()
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := runOnce(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces; RNG not wired through")
	}
}

// Property: time never goes backwards across an arbitrary schedule of sleeps.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		ok := true
		var last Time
		s.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Sleep(Duration(d) * Microsecond)
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDependsOnlyOnSeedAndName: a stream's draws are a function of the
// seed and its name alone. Drawing from one stream, or fetching others first,
// moves no other stream, and a name fetched twice is the same generator.
func TestStreamDependsOnlyOnSeedAndName(t *testing.T) {
	first := func(r *rand.Rand) []int64 {
		out := make([]int64, 8)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	a := New(42)
	want := first(a.Stream("raft/election"))

	b := New(42)
	b.Stream("simnet/jitter").Int63()
	for i := 0; i < 100; i++ {
		b.Stream("chaos/nemesis").Int63()
	}
	if got := first(b.Stream("raft/election")); !slices.Equal(got, want) {
		t.Fatalf("draws from other streams moved raft/election: %v, want %v", got, want)
	}
	if b.Stream("chaos/nemesis") != b.Stream("chaos/nemesis") {
		t.Fatal("a name fetched twice gave two generators")
	}
	if slices.Equal(first(New(42).Stream("kv/backoff")), want) {
		t.Fatal("two names of one seed gave the same stream")
	}
	if slices.Equal(first(New(43).Stream("raft/election")), want) {
		t.Fatal("two seeds gave the same stream")
	}
}
