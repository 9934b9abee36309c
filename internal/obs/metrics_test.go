package obs

import (
	"strings"
	"testing"
)

// TestPercentileEmpty pins the empty-histogram contract: every quantile is
// zero, on both empty and nil receivers.
func TestPercentileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(q); got != 0 {
			t.Errorf("empty Percentile(%v) = %d, want 0", q, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Percentile(0.5); got != 0 {
		t.Errorf("nil Percentile(0.5) = %d, want 0", got)
	}
	if nilH.Count() != 0 || nilH.Max() != 0 {
		t.Error("nil histogram accessors must be zero")
	}
}

// TestPercentileSingleSample: with one sample, every quantile — including
// out-of-range ones, which clamp — is that exact sample, because bucket
// lower bounds clamp to [Min, Max].
func TestPercentileSingleSample(t *testing.T) {
	const v = 1234567 // lands in the log-linear region, lower bound != v
	h := NewHistogram()
	h.Record(v)
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2} {
		if got := h.Percentile(q); got != v {
			t.Errorf("Percentile(%v) = %d, want %d", q, got, v)
		}
	}
	if h.Min() != v || h.Max() != v || h.Mean() != v || h.Sum() != v {
		t.Errorf("single-sample accessors: min=%d max=%d mean=%d sum=%d",
			h.Min(), h.Max(), h.Mean(), h.Sum())
	}
}

// TestPercentileOverflowBucket exercises samples far into the log-linear
// region (top buckets), where the bucket lower bound undershoots the sample
// and must clamp to the exact recorded extremes.
func TestPercentileOverflowBucket(t *testing.T) {
	const huge = int64(1)<<40 + 12345
	h := NewHistogram()
	h.Record(1)
	h.Record(huge)
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	// p99/p100 of two samples rank into the top bucket; the reported value
	// is that bucket's lower bound — within the documented ~3% relative
	// error of the true sample, and never above the exact max.
	for _, q := range []float64{0.99, 1} {
		got := h.Percentile(q)
		if got > huge || got < huge-huge/16 {
			t.Errorf("Percentile(%v) = %d, outside [%d, %d]", q, got, huge-huge/16, huge)
		}
	}
	// Negative samples clamp to zero rather than corrupting buckets.
	h2 := NewHistogram()
	h2.Record(-5)
	if h2.Min() != 0 || h2.Max() != 0 || h2.Percentile(0.5) != 0 {
		t.Errorf("negative sample: min=%d max=%d p50=%d, want zeros",
			h2.Min(), h2.Max(), h2.Percentile(0.5))
	}
}

// TestRegistryStringGolden pins Registry.String()'s canonical rendering:
// sections in counter/histogram order, names sorted within each, and
// byte-identical output from two identically-built registries.
func TestRegistryStringGolden(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta.sent").Add(7)
		r.Counter("alpha.sent").Add(3)
		h := r.Histogram("rpc.latency")
		h.Record(1)
		h.Record(2)
		h.Record(3)
		return r
	}
	got := build().String()
	want := "counter alpha.sent                       3\n" +
		"counter zeta.sent                        7\n" +
		"hist    rpc.latency                      count=3 min=1ns p50=2ns p90=3ns p99=3ns max=3ns mean=2ns\n"
	if got != want {
		t.Errorf("Registry.String() =\n%q\nwant\n%q", got, want)
	}
	if again := build().String(); again != got {
		t.Errorf("identical builds rendered differently:\n%q\nvs\n%q", got, again)
	}
	if !strings.HasPrefix(got, "counter ") {
		t.Error("counters must render first")
	}
}
