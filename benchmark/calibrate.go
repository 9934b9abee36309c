package main

import (
	"sort"
	"time"
)

// Host-speed calibration. On a shared two-core box the same binary on the
// same inputs was measured 25-35% faster or slower for tens of minutes at a
// time (neighbours, not the program). A regression bound on raw host time
// would then trip on the weather. So every repetition is bracketed by a
// fixed reference loop, run in a process of its own, and the two wall-clock
// metrics are reported at the reference speed:
//
//	reported = measured x referenceNominal / reference loop's time then
//
// The loop is owned by the benchmark and calls nothing under mrdb/internal,
// so a change to the program cannot move it.

// referenceNominal is the reference loop's duration on the box the
// benchmark was sized on, in its usual state. It only fixes the unit.
const referenceNominal = 50 * time.Millisecond

type refNode struct {
	next *refNode
	key  uint64
	val  []byte
}

// referenceLoop does a fixed amount of what the simulator does on the host,
// in roughly its proportions: mostly one goroutine chasing pointers through
// a structure larger than the caches (map lookups, list walks, sorting),
// with a steady trickle of small allocations for the GC to trace.
func referenceLoop() time.Duration {
	t0 := time.Now()
	const nodes = 1 << 16
	index := make(map[uint64]*refNode, nodes)
	var head *refNode
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 40
	}
	for i := 0; i < nodes; i++ {
		n := &refNode{next: head, key: next(), val: make([]byte, 48)}
		index[n.key%nodes] = n
		head = n
	}
	keys := make([]uint64, 0, 4096)
	sum := uint64(0)
	for i := 0; i < 200000; i++ {
		k := next()
		if n := index[k%nodes]; n != nil {
			// Walk a few links, as a skiplist or version chain would.
			for hop := 0; hop < 4 && n != nil; hop++ {
				sum += n.key + uint64(len(n.val))
				n = n.next
			}
		}
		if i%8 == 0 {
			index[k%nodes] = &refNode{next: head, key: k, val: make([]byte, 48)}
		}
		keys = append(keys, k)
		if len(keys) == cap(keys) {
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			keys = keys[:0]
		}
	}
	if sum == 0 {
		panic("reference loop found nothing")
	}
	return time.Since(t0)
}

// calibrate returns the median of seven reference loops, in nanoseconds.
func calibrate() float64 {
	d := make([]float64, 7)
	for i := range d {
		d[i] = float64(referenceLoop())
	}
	return median(d)
}
