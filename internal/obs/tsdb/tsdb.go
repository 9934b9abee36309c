// Package tsdb is a deterministic, virtual-time, in-memory timeseries
// store: the time dimension of mrdb's observability layer. Point-in-time
// registry snapshots answer "how many WAN RPCs happened?"; the tsdb answers
// "what did p99 look like while the lease moved?" — the trajectory questions
// that distinguish dynamic multi-region behavior (elastic re-convergence,
// chaos RTO curves) from static aggregates.
//
// Samples are keyed (metric, node) and rolled up into fixed-width buckets
// carrying count/sum/min/max, so rates (Δ of a sampled cumulative counter
// across a bucket) and percentile approximations (bucket max ≈ p99 at our
// sampling cadences) are derivable after the fact. Each series is backed by
// a ring that grows to the buckets it has seen: it starts at 8 slots and
// doubles when a retained bucket holds the slot a newer one needs, up to
// the DB's capacity, after which old buckets are overwritten in place and
// the ring never reallocates. Memory per series is what its run has seen,
// and never more than the capacity, however long the run.
//
// Like the rest of internal/obs, the tsdb is strictly passive over virtual
// time: Observe and every read method never sleep, schedule events, or
// consume simulation randomness, so collection on versus off cannot change
// a run's schedule (the metamorphic tests pin this). Iteration orders are
// canonical (sorted metric, sorted node, ascending bucket), so same-seed
// runs render byte-identical series.
package tsdb

import (
	"sort"

	"mrdb/internal/sim"
)

// Default rollup parameters: 10s buckets, 720 of them (2h of retention at
// the default width) per series.
const (
	DefaultBucketWidth = 10 * sim.Second
	DefaultCapacity    = 720
)

// Bucket is one rollup window's aggregate.
type Bucket struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// merge folds one observation into the bucket.
func (b *Bucket) merge(v int64) {
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Count++
	b.Sum += v
}

// BucketAt is a bucket stamped with the virtual start time of its window.
type BucketAt struct {
	Start sim.Time
	Bucket
}

// Series is the ring-buffered bucket history of one (metric, node) pair.
type Series struct {
	Metric string
	Node   int

	width    sim.Duration
	capacity int64 // the buckets retained are those with index > last-capacity
	// slots is the ring: the bucket with absolute index bi lives in slot
	// bi % len(slots). It starts at minSlots and grows (see grow) when a
	// retained bucket holds the slot a newer one needs; at capacity an
	// observation evicts the older bucket in its slot, the ring bound,
	// enforced in place.
	slots []slot
	last  int64 // highest absolute bucket index observed
}

// slot is one ring entry: a bucket and its absolute index (-1 while empty).
type slot struct {
	bi int64
	b  Bucket
}

// minSlots is a new series' ring length (or the capacity, if smaller).
const minSlots = 8

func newSeries(metric string, node int, width sim.Duration, capacity int) *Series {
	return &Series{
		Metric: metric, Node: node, width: width, capacity: int64(capacity),
		slots: emptySlots(min(minSlots, capacity)),
		last:  -1,
	}
}

func emptySlots(n int) []slot {
	slots := make([]slot, n)
	for i := range slots {
		slots[i].bi = -1
	}
	return slots
}

// retained reports whether bucket bi is inside the retention window.
func (s *Series) retained(bi int64) bool {
	return bi >= 0 && bi > s.last-s.capacity
}

// observe folds v into the bucket containing t. Observations older than the
// retention window are dropped.
func (s *Series) observe(t sim.Time, v int64) {
	bi := int64(t) / int64(s.width)
	if !s.retained(bi) {
		return
	}
	s.last = max(s.last, bi)
	sl := &s.slots[bi%int64(len(s.slots))]
	if sl.bi != bi && s.retained(sl.bi) && int64(len(s.slots)) < s.capacity {
		s.grow(bi)
		sl = &s.slots[bi%int64(len(s.slots))]
	}
	if sl.bi != bi {
		*sl = slot{bi: bi}
	}
	sl.b.merge(v)
}

// grow re-places the retained buckets in a ring long enough that they and
// bucket bi each have a slot of their own: the ring doubles until it spans
// their indexes, or stops at the capacity, which spans every retained index.
func (s *Series) grow(bi int64) {
	lo := bi
	for _, sl := range s.slots {
		if s.retained(sl.bi) {
			lo = min(lo, sl.bi)
		}
	}
	n := int64(len(s.slots))
	for n < s.last-lo+1 && n < s.capacity {
		n = min(2*n, s.capacity)
	}
	slots := emptySlots(int(n))
	for _, sl := range s.slots {
		if s.retained(sl.bi) {
			slots[sl.bi%n] = sl
		}
	}
	s.slots = slots
}

// Buckets returns the retained buckets in ascending bucket-start order.
func (s *Series) Buckets() []BucketAt {
	if s == nil {
		return nil
	}
	out := make([]BucketAt, 0, len(s.slots))
	for _, sl := range s.slots {
		if s.retained(sl.bi) {
			out = append(out, BucketAt{Start: sim.Time(sl.bi * int64(s.width)), Bucket: sl.b})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// DB holds every series of one run. Like the metrics registry it is touched
// only from Procs (no locking) and a nil DB degrades every method to a
// no-op, so instrumentation sites need no "is collection on" checks.
type DB struct {
	width    sim.Duration
	capacity int
	series   map[string]map[int]*Series // metric -> node -> series
}

// New returns an empty store; zero arguments take the defaults.
func New(width sim.Duration, capacity int) *DB {
	if width <= 0 {
		width = DefaultBucketWidth
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{width: width, capacity: capacity, series: map[string]map[int]*Series{}}
}

// Observe folds one sample for (metric, node) into the bucket containing t,
// creating the series on first use. Node 0 is the convention for
// cluster-wide metrics.
func (db *DB) Observe(metric string, node int, t sim.Time, v int64) {
	if db == nil {
		return
	}
	nodes := db.series[metric]
	if nodes == nil {
		nodes = map[int]*Series{}
		db.series[metric] = nodes
	}
	s := nodes[node]
	if s == nil {
		s = newSeries(metric, node, db.width, db.capacity)
		nodes[node] = s
	}
	s.observe(t, v)
}

// Metrics returns the recorded metric names in sorted order.
func (db *DB) Metrics() []string {
	if db == nil {
		return nil
	}
	out := make([]string, 0, len(db.series))
	for m := range db.series {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Nodes returns the nodes with data for a metric, in ascending order.
func (db *DB) Nodes(metric string) []int {
	if db == nil {
		return nil
	}
	out := make([]int, 0, len(db.series[metric]))
	for n := range db.series[metric] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Series returns the series for (metric, node), or nil.
func (db *DB) Series(metric string, node int) *Series {
	if db == nil {
		return nil
	}
	return db.series[metric][node]
}

// Buckets returns the retained buckets for (metric, node) in ascending
// bucket-start order.
func (db *DB) Buckets(metric string, node int) []BucketAt {
	return db.Series(metric, node).Buckets()
}

// Merged folds every node's series for a metric into one bucket sequence,
// in ascending bucket-start order — the cluster-wide view of a per-node
// metric (e.g. probe latency across rotating gateways).
func (db *DB) Merged(metric string) []BucketAt {
	if db == nil {
		return nil
	}
	byStart := map[sim.Time]*Bucket{}
	for _, node := range db.Nodes(metric) {
		for _, ba := range db.Buckets(metric, node) {
			b := byStart[ba.Start]
			if b == nil {
				b = &Bucket{}
				byStart[ba.Start] = b
			}
			if b.Count == 0 || ba.Min < b.Min {
				b.Min = ba.Min
			}
			if b.Count == 0 || ba.Max > b.Max {
				b.Max = ba.Max
			}
			b.Count += ba.Count
			b.Sum += ba.Sum
		}
	}
	starts := make([]sim.Time, 0, len(byStart))
	for s := range byStart {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]BucketAt, 0, len(starts))
	for _, s := range starts {
		out = append(out, BucketAt{Start: s, Bucket: *byStart[s]})
	}
	return out
}
