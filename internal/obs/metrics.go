package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"mrdb/internal/sim"
)

// Registry is a named collection of counters and histograms.
// Metric methods get-or-create, so instrumentation sites never register up
// front. Like the tracer it is touched only from Procs and needs no
// locking; a nil Registry degrades every method to a no-op.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Counters returns the recorded counter names in sorted order.
func (r *Registry) Counters() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Histograms returns the recorded histogram names in sorted order.
func (r *Registry) Histograms() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of counters and histograms recorded. Metrics are
// never removed, so a change in Len means the registry gained one.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.counters) + len(r.hists)
}

// String dumps every metric, sorted by name, one per line.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, n := range r.Counters() {
		fmt.Fprintf(&b, "counter %-32s %d\n", n, r.counters[n].Value())
	}
	for _, n := range r.Histograms() {
		fmt.Fprintf(&b, "hist    %-32s %s\n", n, r.hists[n].Summary())
	}
	return b.String()
}

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram approximation parameters: log-linear buckets, HDR style. Each
// power-of-two range is split into 2^histSubBits linear sub-buckets, giving
// a worst-case relative error of 1/2^histSubBits ≈ 3% on percentiles while
// values below 2^histSubBits are exact.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
)

// Histogram records int64 samples (typically virtual-time nanoseconds)
// into log-linear buckets. Count, Sum, Min and Max are exact; percentiles
// are bucket lower bounds (≤3% relative error). Negative samples clamp to
// zero.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets []int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucket maps a non-negative value to its bucket index. Values below
// histSubCount map to themselves; above that, index = (exp-histSubBits+1)
// * histSubCount + sub, which is continuous with the linear region.
func histBucket(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> uint(exp-histSubBits)) & (histSubCount - 1)
	return (exp-histSubBits+1)*histSubCount + int(sub)
}

// histLower is the inverse of histBucket: the smallest value in bucket i.
func histLower(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	block := i/histSubCount - 1
	sub := i % histSubCount
	return int64(histSubCount+sub) << uint(block)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := histBucket(v)
	if i >= len(h.buckets) {
		grown := make([]int64, i+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[i]++
}

// RecordDuration adds one virtual-duration sample in nanoseconds.
func (h *Histogram) RecordDuration(d sim.Duration) { h.Record(int64(d)) }

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the exact total of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the exact smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the exact largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the exact average (0 when empty).
func (h *Histogram) Mean() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Percentile returns the value at quantile q in [0, 1]: the lower bound of
// the bucket holding the q-th sample, clamped to [Min, Max].
func (h *Histogram) Percentile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			v := histLower(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Summary renders the histogram one-line, interpreting samples as
// virtual-time nanoseconds.
func (h *Histogram) Summary() string {
	if h.Count() == 0 {
		return "count=0"
	}
	d := func(v int64) sim.Duration { return sim.Duration(v) }
	return fmt.Sprintf("count=%d min=%s p50=%s p90=%s p99=%s max=%s mean=%s",
		h.Count(), d(h.Min()), d(h.Percentile(0.50)), d(h.Percentile(0.90)),
		d(h.Percentile(0.99)), d(h.Max()), d(h.Mean()))
}
