// Package sim implements a deterministic discrete-event simulator with
// cooperative green-thread processes.
//
// All components of mrdb — nodes, Raft groups, transaction coordinators and
// workload clients — run as Procs on a single Simulation. Virtual time only
// advances when every live process is parked on a timer or a wait queue, so a
// run is fully deterministic for a given seed: the same events fire in the
// same order and produce the same latencies. This is what lets the benchmark
// harness reproduce the paper's WAN-scale latency distributions in
// milliseconds of real time.
//
// Concurrency model: exactly one goroutine (either the scheduler or a single
// process) executes at any moment. Each process is one runtime coroutine
// (iter.Pull over Proc.run): the scheduler resumes it by calling next, the
// process parks by calling yield, and each is a direct switch between the two
// goroutines that never passes through the Go scheduler's run queue. Shared
// state touched only from Procs therefore needs no locking.
//
// What unwinds a process unwinds the caller of Run. A panic inside a process
// is re-raised on the goroutine that called Run, carrying the process's name
// and stack (Proc.run adds them; the switch would otherwise drop the faulting
// frames). runtime.Goexit travels the same way, so t.Fatal inside a process
// ends the test at once, where it used to end only the process and let the
// simulation run on.
//
// Wall-clock performance: the event queue is an inlined 4-ary heap over
// event values (no per-event boxing, no container/heap interface calls),
// process wake-ups are value events that resume the process directly (no
// closure per wake), and finished processes park their coroutines in a free
// list so the next Spawn reuses the coroutine and its stack. A coroutine is
// created when its process first runs, not when it is spawned, so a process
// spawned for a later time costs one queue entry until then. A wait with a
// timeout queues its deadline as one more value event and takes it out again
// when the wait ends early, so a queue entry is always work to come, never a
// no-op waiting for its turn. None of this changes the (at, seq) total order
// events execute in, so same-seed runs stay byte-identical —
// TestScheduleGolden pins the schedule of a mixed workload to committed
// hashes, and TestFourAryHeapMatchesReference pins the heap's pop order and
// its removals against a container/heap model.
//
// Two shortcuts do the work of an event inside the event that caused it:
// Future.Deliver resumes the waiters where Set would queue their wakes, and a
// Proc.Fanout of one runs on its caller. Each skipped event would have been
// queued for the current instant by the event now doing its work, so it was
// the next pop unless another event sat at the very same nanosecond with a
// lower seq; only such ties can reorder.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration mirrors time.Duration but measures virtual time.
type Duration = time.Duration

// Common durations re-exported for callers that build latencies.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is one queue entry. Exactly one of fn and proc is set: fn events run
// a callback in scheduler context; proc events hand control to a process,
// parked or not yet started. Events are stored by value — scheduling
// allocates nothing beyond amortized queue growth.
type event struct {
	at   Time
	seq  int64 // tie-break for determinism
	fn   func()
	proc *Proc
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// fourAryHeap is the event queue: a d=4 min-heap over event values.
// Shallower than a binary heap (fewer cache lines touched per op) and free
// of the interface conversions container/heap imposes.
//
// It tracks where WaitTimeout deadlines sit, and nothing else, so that a wait
// that ends early can take its deadline out of the queue instead of leaving it
// to fire as a no-op. A parked process has at most one event queued for it —
// its wake or its deadline — so the position lives on the Proc
// (Proc.deadline, -1 when the queued event is not a deadline) and events stay
// 32 bytes.
type fourAryHeap []event

// place stores e at index i; if e is a deadline, its process learns the index.
func (q fourAryHeap) place(i int, e event) {
	q[i] = e
	if e.proc != nil && e.proc.deadline >= 0 {
		e.proc.deadline = i
	}
}

// up fills the hole at i with e, moving the hole towards the root first
// while e is earlier than the hole's parent.
func (q fourAryHeap) up(i int, e event) {
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&q[p]) {
			break
		}
		q.place(i, q[p])
		i = p
	}
	q.place(i, e)
}

// down fills the hole at i with e, moving the hole towards the leaves first
// while its earliest child is earlier than e.
func (q fourAryHeap) down(i int, e event) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&e) {
			break
		}
		q.place(i, q[m])
		i = m
	}
	q.place(i, e)
}

func (h *fourAryHeap) push(e event) {
	q := append(*h, event{})
	*h = q
	q.up(len(q)-1, e)
}

func (h *fourAryHeap) pop() event { return h.remove(0) }

// remove takes the event at index i out of the queue and returns it. If it
// is a deadline, its process stops being tracked.
func (h *fourAryHeap) remove(i int) event {
	q := *h
	n := len(q) - 1
	e, last := q[i], q[n]
	q[n] = event{} // release fn/proc references
	q = q[:n]
	*h = q
	if e.proc != nil && e.proc.deadline >= 0 {
		e.proc.deadline = -1
	}
	if i < n {
		if i > 0 && last.before(&q[(i-1)>>2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return e
}

// maxFreeProcs caps the per-simulation pool of finished processes kept
// parked for reuse; beyond it, finished coroutines return. Run drains the
// pool when the queue empties so idle simulations hold no goroutines.
const maxFreeProcs = 64

// maxFreeWaitGroups caps the WaitGroup free list.
const maxFreeWaitGroups = 32

// Simulation owns the virtual clock and the event queue.
type Simulation struct {
	now     Time
	queue   fourAryHeap
	seq     int64
	events  int64 // events executed (wall-clock throughput denominator)
	parks   int64 // times a process parked
	rng     *rand.Rand
	stopped bool

	freeProcs []*Proc      // finished procs parked for reuse
	freeWGs   []*WaitGroup // released WaitGroups
	// coroutines counts the coroutines iter.Pull started whose run has not
	// returned: the goroutines this simulation holds.
	coroutines int

	// stepHook, if set, is invoked before each event executes. Used by
	// tests to observe scheduling.
	stepHook func(at Time)
}

// New returns a Simulation whose randomness is derived from seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Events returns the number of events executed so far. It is a wall-clock
// throughput denominator for the perf harness; virtual time never depends
// on it.
func (s *Simulation) Events() int64 { return s.events }

// Parks returns how many times a process parked (slept, waited, yielded).
// Like Events it counts cost; virtual time never depends on it.
func (s *Simulation) Parks() int64 { return s.parks }

// Pending returns the number of events queued. Like Events it measures cost,
// for tests and the perf harness; virtual time never depends on it.
func (s *Simulation) Pending() int { return len(s.queue) }

// Rand returns the simulation's deterministic random source. It must only be
// used from scheduler callbacks or running Procs.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// push enqueues e under the next sequence number.
func (s *Simulation) push(e event) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
}

// Schedule runs fn at virtual time at (or now, if at is in the past).
func (s *Simulation) Schedule(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, fn: fn})
}

// After runs fn d after the current virtual time. Negative delays clamp to
// zero; because the target time is derived from the current clock it can
// never be in the past, so After skips Schedule's past-clamp branch.
func (s *Simulation) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.push(event{at: s.now.Add(d), fn: fn})
}

// wakeAt schedules p to resume at time at: a value event that resumes the
// process directly, no closure per wake.
func (s *Simulation) wakeAt(at Time, p *Proc) {
	s.push(event{at: at, proc: p})
}

// deadlineAt queues the deadline of p's WaitTimeout: a wake like any other,
// except that the queue tracks where it sits so cancelDeadline can take it
// out. p must park before anything else queues an event for it.
func (s *Simulation) deadlineAt(at Time, p *Proc) {
	p.deadline = len(s.queue) // where push starts it; any value >= 0 marks it tracked
	s.wakeAt(at, p)
}

// cancelDeadline removes p's deadline from the queue, if it has one there.
// Whoever ends a wait calls it before queueing or running p's wake: a deadline
// left in place could fire between the two and resume p a second time.
func (s *Simulation) cancelDeadline(p *Proc) {
	if p.deadline >= 0 {
		s.queue.remove(p.deadline)
	}
}

// Stop halts the simulation: Run returns after the current event completes
// and pending events are discarded.
func (s *Simulation) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (s *Simulation) Run() Time {
	for !s.stopped && len(s.queue) > 0 {
		s.step()
	}
	s.drainFreeProcs()
	return s.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (s *Simulation) RunUntil(t Time) {
	for !s.stopped && len(s.queue) > 0 && s.queue[0].at <= t {
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulation) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

func (s *Simulation) step() {
	e := s.queue.pop()
	if e.at > s.now {
		s.now = e.at
	}
	if s.stepHook != nil {
		s.stepHook(s.now)
	}
	s.events++
	if e.proc != nil {
		e.proc.resumeNow()
	} else {
		e.fn()
	}
}

// drainFreeProcs retires pooled coroutines so a finished simulation holds
// none. Called when Run exhausts the queue.
func (s *Simulation) drainFreeProcs() {
	for i, p := range s.freeProcs {
		p.stop()
		s.freeProcs[i] = nil
	}
	s.freeProcs = s.freeProcs[:0]
}

// Proc is a cooperative green thread. A Proc's function runs on its own
// coroutine, so only ever concurrently with nothing else: it holds the
// simulation's execution token between calls to blocking primitives.
type Proc struct {
	sim  *Simulation
	name string
	fn   func(p *Proc)

	// The coroutine, nil until the process first runs: next resumes it until
	// it parks again, yield parks it, stop retires it from the free list.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// deadline is the index in the event queue of the process's WaitTimeout
	// deadline, maintained by fourAryHeap; -1 while it has none queued.
	deadline int

	// obsctx is an opaque slot for the observability layer (the process's
	// current trace span). sim knows nothing about its type; it exists here
	// so spans can follow a process across blocking calls without sim
	// importing obs.
	obsctx interface{}
}

// ObsCtx returns the process's opaque observability context.
func (p *Proc) ObsCtx() interface{} { return p.obsctx }

// SetObsCtx installs an opaque observability context on the process.
func (p *Proc) SetObsCtx(v interface{}) { p.obsctx = v }

// Sim returns the simulation the process runs on.
func (p *Proc) Sim() *Simulation { return p.sim }

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Rand returns the simulation's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.sim.rng }

// Spawn starts fn as a new process at the current virtual time. It may be
// called from scheduler callbacks or from other Procs.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) {
	s.SpawnAt(s.now, name, fn)
}

// SpawnAt starts fn as a new process at time at. When a finished process is
// parked in the free list its coroutine and stack are reused; otherwise a
// fresh coroutine starts when the event fires.
func (s *Simulation) SpawnAt(at Time, name string, fn func(p *Proc)) {
	p := s.takeFreeProc()
	if p == nil {
		p = &Proc{sim: s, deadline: -1}
	}
	p.name, p.fn, p.obsctx = name, fn, nil
	if at < s.now {
		at = s.now
	}
	s.wakeAt(at, p)
}

// takeFreeProc pops a finished process, parked with its coroutine, off the
// free list; nil if the list is empty.
func (s *Simulation) takeFreeProc() *Proc {
	n := len(s.freeProcs)
	if n == 0 {
		return nil
	}
	p := s.freeProcs[n-1]
	s.freeProcs[n-1] = nil
	s.freeProcs = s.freeProcs[:n-1]
	return p
}

// run is the body of a process's coroutine: execute fn, then park in the
// simulation's free list awaiting the next Spawn. It returns when the list
// is full or Run drains it (yield then reports false). A panic in fn is
// re-raised with the process's name and stack, which is the only place the
// faulting frames survive: iter.Pull re-raises on the goroutine that called
// Run, whose trace shows the scheduler.
func (p *Proc) run(yield func(struct{}) bool) {
	defer func() {
		p.sim.coroutines--
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
		}
	}()
	s := p.sim
	p.yield = yield
	for {
		p.fn(p)
		p.fn = nil
		if len(s.freeProcs) >= maxFreeProcs {
			return
		}
		s.freeProcs = append(s.freeProcs, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// park suspends the calling process until a scheduled event resumes it. The
// scheduler regains control.
func (p *Proc) park() {
	p.sim.parks++
	p.yield(struct{}{})
}

// resumeNow runs the process until it next parks or finishes. It must only
// be invoked from scheduler context (a proc event, or inside a Schedule
// callback). The coroutine is created here, at the first run, and not in
// SpawnAt: iter.Pull creates its goroutine at once, and a process spawned far
// ahead must not hold one, with its stack, while it waits in the queue. If by
// then a finished process is parked in the free list, that one runs the work
// instead, on its coroutine and grown stack: nobody has seen p yet (its
// function learns its Proc when it is called), so the substitution is
// invisible, and an open loop that spawned its whole schedule ahead of time
// recycles coroutines like everyone else.
func (p *Proc) resumeNow() {
	if p.next == nil {
		if q := p.sim.takeFreeProc(); q != nil {
			q.name, q.fn, q.obsctx = p.name, p.fn, nil
			p = q
		} else {
			p.next, p.stop = iter.Pull(p.run)
			p.sim.coroutines++
		}
	}
	p.next()
}

// Sleep suspends the process for d of virtual time. Even a zero-length
// sleep yields, putting the proc behind already-queued events at the
// current instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.wakeAt(p.sim.now.Add(d), p)
	p.park()
}

// SleepUntil suspends the process until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		p.Sleep(0)
		return
	}
	p.Sleep(t.Sub(p.sim.now))
}

// Yield lets any other work scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Future is a single-assignment value that processes can wait on. The zero
// Future is empty and ready to use, so a record that carries one can embed it
// by value; it learns its simulation from the processes that wait on it. A
// Future must not be copied once a process has waited on it.
//
// There are two ways to fulfil one. Set may be called from anywhere, any
// number of statements before its caller is done: it queues a wake per waiter
// and returns. Deliver is for an event that exists to carry the value (a
// message arriving): it resumes the waiters inside that event, which saves the
// wake events, and is legal only from scheduler context and only as the
// event's last action, because each waiter runs until it next parks before
// Deliver returns. Set cannot do the same: raft's apply loop fulfils
// proposals mid-loop, and a waiter resumed there would re-enter the node.
type Future[T any] struct {
	set     bool
	val     T
	waiters []*Proc
	first   [1]*Proc // backs waiters while there is one, the usual case
	// notify and notifySim are the Notify callback and its simulation.
	notify    func()
	notifySim *Simulation
}

// NewFuture returns an empty future. The simulation is not recorded (see
// Future); the parameter keeps the constructor uniform with NewCond and
// NewWaitGroup.
func NewFuture[T any](*Simulation) *Future[T] {
	return &Future[T]{}
}

// fulfil stores v and returns the waiters, each with its WaitTimeout
// deadline, if any, already out of the event queue. Fulfilling twice panics:
// a future is a one-shot rendezvous.
func (f *Future[T]) fulfil(v T) []*Proc {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.val = v
	waiters := f.waiters
	f.waiters = nil
	for _, w := range waiters {
		w.sim.cancelDeadline(w)
	}
	return waiters
}

// Set fulfils the future and queues a wake for every waiter at the current
// instant, then the Notify callback, if any.
func (f *Future[T]) Set(v T) {
	for _, w := range f.fulfil(v) {
		w.sim.wakeAt(w.sim.now, w)
	}
	if f.notify != nil {
		f.notifySim.After(0, f.notify)
	}
}

// Deliver fulfils the future and resumes every waiter, in the order they
// began to wait, before it returns; then it runs the Notify callback, if
// any. See Future for when it may be called.
func (f *Future[T]) Deliver(v T) {
	for _, w := range f.fulfil(v) {
		w.resumeNow()
	}
	if f.notify != nil {
		f.notify()
	}
}

// Notify makes fn run once f is fulfilled, where a waiting process would be
// resumed: Set queues it as an event of its own at that instant, Deliver
// calls it. It is for a reaction that needs no process of its own — a
// caller that keeps fn in a field starts nothing and allocates nothing per
// future — and fn reads what it needs from state it shares with the
// fulfiller. A future takes one callback; on a future already fulfilled, fn
// is queued at once.
func (f *Future[T]) Notify(s *Simulation, fn func()) {
	if f.set {
		s.After(0, fn)
		return
	}
	f.notify, f.notifySim = fn, s
}

// Done reports whether the future has been fulfilled.
func (f *Future[T]) Done() bool { return f.set }

// enqueue adds p to the waiters.
func (f *Future[T]) enqueue(p *Proc) {
	if f.waiters == nil {
		f.waiters = f.first[:0]
	}
	f.waiters = append(f.waiters, p)
}

// Wait parks p until the future is fulfilled and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	if !f.set {
		f.enqueue(p)
		p.park()
	}
	return f.val
}

// WaitTimeout waits for the future for at most d. It returns the value and
// true if the future was fulfilled in time. The deadline is one queue entry
// that is removed when the wait ends early, so a wait that does not time out
// leaves nothing behind; a fulfilment and a deadline at the same instant
// resolve in queue order, like any two events.
func (f *Future[T]) WaitTimeout(p *Proc, d Duration) (T, bool) {
	if !f.set {
		if d < 0 {
			d = 0
		}
		f.enqueue(p)
		p.sim.deadlineAt(p.sim.now.Add(d), p)
		p.park()
		if !f.set {
			// The deadline fired (fulfil would have removed it): stop waiting.
			for i, w := range f.waiters {
				if w == p {
					f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
					break
				}
			}
			var zero T
			return zero, false
		}
	}
	return f.val, true
}

// WaitGroup tracks a set of processes and lets another process wait for all
// of them to finish, mirroring sync.WaitGroup in virtual time.
type WaitGroup struct {
	sim     *Simulation
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Simulation) *WaitGroup { return &WaitGroup{sim: s} }

// GetWaitGroup returns a WaitGroup from the simulation's free list, or a
// fresh one. Hot fan-out paths pair it with Release so steady state
// allocates no WaitGroups.
func (s *Simulation) GetWaitGroup() *WaitGroup {
	if n := len(s.freeWGs); n > 0 {
		wg := s.freeWGs[n-1]
		s.freeWGs[n-1] = nil
		s.freeWGs = s.freeWGs[:n-1]
		return wg
	}
	return &WaitGroup{sim: s}
}

// Release returns an idle WaitGroup to the simulation's free list. Calling
// it on a WaitGroup with a non-zero count or parked waiters is a no-op.
func (wg *WaitGroup) Release() {
	s := wg.sim
	if wg.count != 0 || len(wg.waiters) != 0 || len(s.freeWGs) >= maxFreeWaitGroups {
		return
	}
	s.freeWGs = append(s.freeWGs, wg)
}

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter, waking waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.count == 0 {
		waiters := wg.waiters
		wg.waiters = nil
		for _, w := range waiters {
			wg.sim.wakeAt(wg.sim.now, w)
		}
	}
}

// Wait parks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park()
	}
}

// Fanout runs fn(cp, i) for each i in [0, n) on a child process of its own,
// spawned in index order at the current instant and inheriting p's
// observability context, and parks p until all n have returned. A fan-out of
// one has nothing to run beside: fn(p, 0) runs on p itself, which costs no
// event, and whatever it does to the observability context is undone when it
// returns, as if a child had carried it.
func (p *Proc) Fanout(name string, n int, fn func(cp *Proc, i int)) {
	if n == 1 {
		ctx := p.obsctx
		fn(p, 0)
		p.obsctx = ctx
		return
	}
	wg := p.sim.GetWaitGroup()
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.sim.Spawn(name, func(cp *Proc) {
			defer wg.Done()
			cp.obsctx = p.obsctx
			fn(cp, i)
		})
	}
	wg.Wait(p)
	wg.Release()
}

// Cond is a waiting-room: processes park on it and are woken explicitly.
// Unlike sync.Cond there is no associated lock; the simulation's cooperative
// scheduling makes one unnecessary.
type Cond struct {
	sim     *Simulation
	waiters []*Proc
}

// NewCond returns a Cond bound to s.
func NewCond(s *Simulation) *Cond { return &Cond{sim: s} }

// Wait parks p until a Broadcast reaches it. Callers must re-check their
// predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// WaitTimeout parks p until a Broadcast reaches it or d elapses, and reports
// whether the Broadcast came first. As with Future.WaitTimeout the deadline is
// one queue entry, removed when a Broadcast ends the wait early, so a wait
// costs one event whichever way it ends.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	if d < 0 {
		d = 0
	}
	c.waiters = append(c.waiters, p)
	p.sim.deadlineAt(p.sim.now.Add(d), p)
	p.park()
	for i, w := range c.waiters {
		if w == p {
			// The deadline fired (Broadcast would have emptied the list): stop
			// waiting.
			last := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[last] = nil
			c.waiters = c.waiters[:last]
			return false
		}
	}
	return true
}

// Broadcast wakes all waiting processes. The list keeps its backing array:
// nothing runs between here and the wakes, so no waiter can be appended to it
// while it is walked. A nil Cond has no waiters, so broadcasting on it is a
// no-op: a holder may create its Cond when the first waiter arrives.
func (c *Cond) Broadcast() {
	if c == nil {
		return
	}
	for i, w := range c.waiters {
		c.waiters[i] = nil
		c.sim.cancelDeadline(w)
		c.sim.wakeAt(c.sim.now, w)
	}
	c.waiters = c.waiters[:0]
}

// Ticker invokes fn every interval until the returned stop function is
// called. The first tick fires one interval from now.
func (s *Simulation) Ticker(interval Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if stopped {
			return
		}
		s.After(interval, tick)
	}
	s.After(interval, tick)
	return func() { stopped = true }
}

// SortedKeys returns map keys in sorted order; a convenience for
// deterministic iteration inside simulations.
func SortedKeys[M ~map[K]V, K ~string, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
