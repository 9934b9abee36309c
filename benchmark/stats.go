package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"mrdb/internal/sim"
)

// percentile is the nearest-rank q-th percentile (0 < q <= 100) of an
// ascending sample: the smallest value with at least q% of the sample at or
// below it.
func percentile(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// supported reports whether the q-th percentile of n samples has at least
// ten samples beyond it — the rule under which a tail percentile is
// reported at all.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q / 100 * float64(n)))
	return n-rank >= 10
}

func ms(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// median of an unsorted float sample (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// virtualDigest folds what must repeat exactly across same-seed repetitions
// — every latency sample of every class (sorted), the number of simulator
// events in the window and the window's virtual length — into one FNV-1a
// value.
func virtualDigest(sorted [numClasses][]sim.Duration, events int64, window sim.Duration) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range sorted {
		put(uint64(len(s)))
		for _, d := range s {
			put(uint64(d))
		}
	}
	put(uint64(events))
	put(uint64(window))
	return h.Sum64()
}
