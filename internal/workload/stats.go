// Package workload implements the benchmark workloads of the paper's
// evaluation: YCSB variants A/B/D with zipfian or uniform key choosers
// (§7.1–§7.3), TPC-C (§7.4), and the movr application schema (§7.5), plus
// the latency recorders the harness uses to regenerate figures.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"mrdb/internal/sim"
)

// LatencyRecorder accumulates latency samples for one operation class, and
// counts its failed operations in Errors.
type LatencyRecorder struct {
	Name    string
	samples []sim.Duration
	Errors  int
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder(name string) *LatencyRecorder {
	return &LatencyRecorder{Name: name}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d sim.Duration) { r.samples = append(r.samples, d) }

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Samples returns the recorded virtual-time samples in recording order.
// The metamorphic tracing tests compare these slices across runs.
func (r *LatencyRecorder) Samples() []sim.Duration {
	return append([]sim.Duration(nil), r.samples...)
}

// Merge folds other's samples and errors into r.
func (r *LatencyRecorder) Merge(other *LatencyRecorder) {
	r.samples = append(r.samples, other.samples...)
	r.Errors += other.Errors
}

// sorted returns samples ascending (cached sorting is unnecessary at our
// sample counts).
func (r *LatencyRecorder) sorted() []sim.Duration {
	out := append([]sim.Duration(nil), r.samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the q-th percentile (0 <= q <= 100).
func (r *LatencyRecorder) Percentile(q float64) sim.Duration {
	s := r.sorted()
	if len(s) == 0 {
		return 0
	}
	idx := int(math.Ceil(q/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// BoxStats summarizes the distribution the way the paper's Fig. 3 box
// plots do: quartiles plus 1.5×IQR whiskers.
type BoxStats struct {
	P25, P50, P75        sim.Duration
	WhiskerLo, WhiskerHi sim.Duration
}

// Box computes box-plot statistics.
func (r *LatencyRecorder) Box() BoxStats {
	b := BoxStats{
		P25: r.Percentile(25),
		P50: r.Percentile(50),
		P75: r.Percentile(75),
	}
	iqr := b.P75 - b.P25
	lo := b.P25 - 3*iqr/2
	hi := b.P75 + 3*iqr/2
	s := r.sorted()
	if len(s) == 0 {
		return b
	}
	b.WhiskerLo, b.WhiskerHi = b.P50, b.P50
	for _, v := range s {
		if v >= lo {
			b.WhiskerLo = v
			break
		}
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] <= hi {
			b.WhiskerHi = s[i]
			break
		}
	}
	return b
}

// --- Key choosers ---

// KeyChooser selects keys for YCSB operations.
type KeyChooser interface {
	// Next returns a key in [0, n).
	Next(rng *rand.Rand) int
}

// UniformChooser picks uniformly from n keys.
type UniformChooser struct{ N int }

// Next implements KeyChooser.
func (u UniformChooser) Next(rng *rand.Rand) int { return rng.Intn(u.N) }

// ZipfChooser picks keys with a zipfian distribution favoring low-numbered
// keys; used by YCSB-A/B (§7.1.1). It draws P(k) ∝ (1+k)^-1.1: Go's
// rand.Zipf needs an exponent s > 1, so YCSB's theta = 0.99 is not
// available.
type ZipfChooser struct {
	zipf *rand.Zipf
}

// NewZipfChooser builds a zipf chooser over keys [0, n). Every draw comes
// from rng; Next ignores its argument.
func NewZipfChooser(n int, rng *rand.Rand) *ZipfChooser {
	return &ZipfChooser{zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

// Next implements KeyChooser.
func (z *ZipfChooser) Next(rng *rand.Rand) int { return int(z.zipf.Uint64()) }
