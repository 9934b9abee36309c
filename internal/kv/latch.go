package kv

import (
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
)

// latchManager serializes request evaluation per key on a leaseholder.
// Writes take an exclusive latch held through Raft application so that a
// concurrent read cannot slip between a write's evaluation and its apply
// (which would let the write commit below the read). Reads only wait for
// conflicting write latches; since evaluation is instantaneous under the
// cooperative scheduler, reads need no latch of their own.
type latchManager struct {
	sim    *sim.Simulation
	held   map[string]bool
	queues map[string][]*sim.Cond
}

func newLatchManager(s *sim.Simulation) *latchManager {
	return &latchManager{sim: s, held: map[string]bool{}, queues: map[string][]*sim.Cond{}}
}

// A write latch is named by the string its caller already keeps for the key
// (the replica's lock-table entry), which the held map and the wait queue
// store as is, so a latch makes no string of its own. Reads' lookups index
// the maps with string(key) in place, which converts without copying; a
// reader queueing converts once.

// acquire takes the exclusive latch on k, parking p while another writer
// holds it. release takes the same string.
func (m *latchManager) acquire(p *sim.Proc, k string) {
	for m.held[k] {
		m.wait(p, k)
	}
	m.held[k] = true
}

// release frees the latch on k and wakes the next waiter.
func (m *latchManager) release(k string) {
	if !m.held[k] {
		panic("kv: releasing unheld latch")
	}
	delete(m.held, k)
	m.wakeNext(k)
}

// waitFree parks p until no writer holds the latch on key (read-side wait).
func (m *latchManager) waitFree(p *sim.Proc, key mvcc.Key) {
	for m.held[string(key)] {
		m.wait(p, string(key))
	}
	// Wake the next queued waiter too: multiple readers may proceed, and
	// a queued writer will re-check and re-queue if a reader got in
	// first (readers don't mark the latch held).
	if len(m.queues[string(key)]) > 0 {
		m.wakeNext(string(key))
	}
}

// wait queues p on k's latch until the next wake.
func (m *latchManager) wait(p *sim.Proc, k string) {
	c := sim.NewCond(m.sim)
	m.queues[k] = append(m.queues[k], c)
	c.Wait(p)
}

// wakeNext wakes the first waiter queued on k's latch, if any.
func (m *latchManager) wakeNext(k string) {
	if q := m.queues[k]; len(q) > 0 {
		if len(q) == 1 {
			delete(m.queues, k)
		} else {
			m.queues[k] = q[1:]
		}
		q[0].Broadcast()
	}
}

// waitSpanFree parks p until no writer holds the latch on a key in
// [start, end) (end nil: unbounded), waiting out the smallest such key first
// so that the wake-up order does not depend on map iteration.
func (m *latchManager) waitSpanFree(p *sim.Proc, start, end mvcc.Key) {
	for {
		var first string
		found := false
		for k := range m.held {
			if k >= string(start) && (end == nil || k < string(end)) && (!found || k < first) {
				first, found = k, true
			}
		}
		if !found {
			return
		}
		m.waitFree(p, mvcc.Key(first))
	}
}
