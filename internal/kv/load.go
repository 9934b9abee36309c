package kv

import (
	"bytes"
	"math"
	"sort"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// loadSampleSize bounds the per-range reservoir of recently accessed keys
// used to pick load-weighted split points.
const loadSampleSize = 64

// ln2 converts between an exponentially-decayed counter value and a rate:
// at a steady request rate r with half-life H, the counter converges to
// C = r*H/ln2, so QPS = C*ln2/H.
var ln2 = math.Ln2

// rangeLoad is the decaying per-range traffic record.
type rangeLoad struct {
	count float64  // decayed request count
	last  sim.Time // time of the last decay

	// regions attributes decayed counts to the gateway region that issued
	// the requests, for lease/replica rebalancing decisions.
	regions map[simnet.Region]float64

	// samples is a bounded ring of recently touched keys; SplitKey picks
	// the median, approximating the key that halves the load. The ring owns
	// its keys' arrays: once it is full, a sample overwrites the oldest
	// slot's array in place, so SplitKey hands out a copy.
	samples   []mvcc.Key
	sampleIdx int
}

// decayTo brings the counter forward to now, halving it once per half-life.
func (rl *rangeLoad) decayTo(now sim.Time, halfLife sim.Duration) {
	if now <= rl.last {
		return
	}
	f := math.Pow(0.5, float64(now-rl.last)/float64(halfLife))
	rl.count *= f
	for r := range rl.regions {
		rl.regions[r] *= f
	}
	rl.last = now
}

// RangeLoadTracker accumulates per-range request rates on the virtual
// clock using exponentially decaying counters, the same scheme CockroachDB
// uses for load-based splitting. All times come from the simulation, so
// identical seeds produce identical load profiles.
type RangeLoadTracker struct {
	Sim      *sim.Simulation
	HalfLife sim.Duration

	ranges map[RangeID]*rangeLoad
}

// NewRangeLoadTracker returns a tracker decaying with the given half-life.
func NewRangeLoadTracker(s *sim.Simulation, halfLife sim.Duration) *RangeLoadTracker {
	if halfLife <= 0 {
		halfLife = 30 * sim.Second
	}
	return &RangeLoadTracker{Sim: s, HalfLife: halfLife, ranges: map[RangeID]*rangeLoad{}}
}

func (t *RangeLoadTracker) load(id RangeID) *rangeLoad {
	rl := t.ranges[id]
	if rl == nil {
		rl = &rangeLoad{last: t.Sim.Now(), regions: map[simnet.Region]float64{}}
		t.ranges[id] = rl
	}
	return rl
}

// Record charges n requests against a range, attributed to the gateway
// region, sampling the first key of the batch for split-point selection.
func (t *RangeLoadTracker) Record(id RangeID, key mvcc.Key, region simnet.Region, n int) {
	if t == nil || n <= 0 {
		return
	}
	rl := t.load(id)
	rl.decayTo(t.Sim.Now(), t.HalfLife)
	rl.count += float64(n)
	rl.regions[region] += float64(n)
	if len(rl.samples) < loadSampleSize {
		rl.samples = append(rl.samples, append(mvcc.Key(nil), key...))
	} else {
		rl.samples[rl.sampleIdx] = append(rl.samples[rl.sampleIdx][:0], key...)
	}
	rl.sampleIdx = (rl.sampleIdx + 1) % loadSampleSize
}

// QPS returns the current decayed request rate of a range in requests per
// second of virtual time.
func (t *RangeLoadTracker) QPS(id RangeID) float64 {
	if t == nil {
		return 0
	}
	rl := t.ranges[id]
	if rl == nil {
		return 0
	}
	rl.decayTo(t.Sim.Now(), t.HalfLife)
	return rl.count * ln2 / (float64(t.HalfLife) / float64(sim.Second))
}

// RegionShare is one region's fraction of a range's recent traffic.
type RegionShare struct {
	Region simnet.Region
	Share  float64
}

// RegionShares returns the per-region traffic distribution of a range,
// sorted by descending share (region name breaks ties, for determinism).
func (t *RangeLoadTracker) RegionShares(id RangeID) []RegionShare {
	if t == nil {
		return nil
	}
	rl := t.ranges[id]
	if rl == nil {
		return nil
	}
	rl.decayTo(t.Sim.Now(), t.HalfLife)
	total := 0.0
	for _, c := range rl.regions {
		total += c
	}
	if total <= 0 {
		return nil
	}
	out := make([]RegionShare, 0, len(rl.regions))
	for r, c := range rl.regions {
		out = append(out, RegionShare{Region: r, Share: c / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// SplitKey returns the load-weighted split point for a range: a copy of the
// median of the sampled keys restricted to (start, end). It returns nil when
// the samples cannot produce a key strictly inside the range — e.g. when all
// traffic hits a single key, which splitting cannot spread.
func (t *RangeLoadTracker) SplitKey(id RangeID, start, end mvcc.Key) mvcc.Key {
	if t == nil {
		return nil
	}
	rl := t.ranges[id]
	if rl == nil {
		return nil
	}
	var in []mvcc.Key
	for _, k := range rl.samples {
		if bytes.Compare(k, start) <= 0 {
			continue
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			continue
		}
		in = append(in, k)
	}
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return bytes.Compare(in[i], in[j]) < 0 })
	return append(mvcc.Key(nil), in[len(in)/2]...)
}

// Forget drops a range's accounting (after a merge removed it).
func (t *RangeLoadTracker) Forget(id RangeID) {
	if t != nil {
		delete(t.ranges, id)
	}
}
