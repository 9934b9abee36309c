package obs_test

import (
	"strings"
	"testing"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// TestSpanTree checks span lifecycle against the virtual clock: parentage,
// tags, durations, and the canonical rendering.
func TestSpanTree(t *testing.T) {
	s := sim.New(1)
	tr := obs.NewTracer(s)
	tr.SetEnabled(true)
	var trace *obs.Trace
	s.Spawn("test", func(p *sim.Proc) {
		root := tr.StartRoot("op")
		root.SetTag("k", "v").SetTagInt("n", 7)
		p.Sleep(5 * sim.Millisecond)
		child := tr.StartChild("step", root)
		p.Sleep(3 * sim.Millisecond)
		child.Finish()
		child.Finish() // second finish keeps the first end time
		root.Finish()
		trace = tr.Collect(root.Ctx().Trace)
	})
	s.RunFor(sim.Second)

	if trace == nil || len(trace.Spans) != 2 {
		t.Fatalf("trace = %v", trace)
	}
	root, child := trace.Root(), trace.Find("step")
	if root.Name != "op" || child == nil {
		t.Fatalf("root=%v child=%v", root, child)
	}
	if child.Parent != root.Ctx().Span {
		t.Errorf("child parent = %d, want %d", child.Parent, root.Ctx().Span)
	}
	if d := root.Duration(); d != 8*sim.Millisecond {
		t.Errorf("root duration = %v, want 8ms", d)
	}
	if d := child.Duration(); d != 3*sim.Millisecond {
		t.Errorf("child duration = %v, want 3ms", d)
	}
	if v, ok := root.Tag("k"); !ok || v != "v" {
		t.Errorf("tag k = %q %v", v, ok)
	}
	if v, _ := root.Tag("n"); v != "7" {
		t.Errorf("tag n = %q", v)
	}
	// Re-setting a key updates in place, preserving insertion order.
	root.SetTag("k", "v2")
	if len(root.Tags) != 2 || root.Tags[0].Value != "v2" {
		t.Errorf("tags after reset = %v", root.Tags)
	}
	out := trace.String()
	for _, want := range []string{"op [", "step [", "k=v2", "n=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "op [") > strings.Index(out, "step [") {
		t.Errorf("child rendered before root:\n%s", out)
	}
}

// TestDisabledAndNilSafety: a disabled tracer and nil spans degrade every
// operation to a no-op, so instrumentation sites need no conditionals.
func TestDisabledAndNilSafety(t *testing.T) {
	s := sim.New(1)
	tr := obs.NewTracer(s) // starts disabled
	if tr.Enabled() {
		t.Fatal("tracer should start disabled")
	}
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatalf("disabled StartRoot = %v", sp)
	}
	// All nil-span methods are safe and chainable.
	sp.SetTag("a", "b").SetTagInt("c", 1).SetTagDuration("d", sim.Second)
	sp.Finish()
	if sp.Duration() != 0 {
		t.Error("nil span has a duration")
	}
	if _, ok := sp.Tag("a"); ok {
		t.Error("nil span has a tag")
	}
	if sp.Ctx().Valid() {
		t.Error("nil span context is valid")
	}
	// A child of a nil parent records nothing even when enabled: untraced
	// background work must not create orphan roots.
	tr.SetEnabled(true)
	if c := tr.StartChild("orphan", nil); c != nil {
		t.Errorf("orphan child = %v", c)
	}
	if got := len(tr.Traces()); got != 0 {
		t.Errorf("traces = %d, want 0", got)
	}
	var nilTracer *obs.Tracer
	if nilTracer.Enabled() || nilTracer.StartRoot("x") != nil || nilTracer.Hash() == 0 {
		t.Error("nil tracer misbehaves")
	}
}

// TestProcSpanPropagation: StartIn/StartRootIn install and restore the
// proc-current span so nested instrumentation sites see the right parent.
func TestProcSpanPropagation(t *testing.T) {
	s := sim.New(1)
	tr := obs.NewTracer(s)
	tr.SetEnabled(true)
	s.Spawn("test", func(p *sim.Proc) {
		// No current span: StartIn is a no-op, StartRootIn roots a trace.
		if sp, done := tr.StartIn(p, "dangling"); sp != nil {
			t.Errorf("StartIn without parent = %v", sp)
			done()
		}
		root, rootDone := tr.StartRootIn(p, "root")
		if obs.ProcSpan(p) != root {
			t.Error("root not installed as proc-current")
		}
		inner, innerDone := tr.StartIn(p, "inner")
		if inner.Parent != root.Ctx().Span {
			t.Errorf("inner parent = %d, want root", inner.Parent)
		}
		if obs.ProcSpan(p) != inner {
			t.Error("inner not installed")
		}
		innerDone()
		if obs.ProcSpan(p) != root {
			t.Error("done() did not restore the previous span")
		}
		rootDone()
		if obs.ProcSpan(p) != nil {
			t.Error("root done() did not clear the proc span")
		}
	})
	s.RunFor(sim.Second)
}

// buildScenario drives one deterministic trace shape; used to check hashes.
func buildScenario(seed int64, extraTag string) uint64 {
	s := sim.New(seed)
	tr := obs.NewTracer(s)
	tr.SetEnabled(true)
	s.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			root, done := tr.StartRootIn(p, "op")
			root.SetTagInt("i", int64(i))
			if extraTag != "" {
				root.SetTag("extra", extraTag)
			}
			p.Sleep(sim.Duration(i+1) * sim.Millisecond)
			child, childDone := tr.StartIn(p, "step")
			_ = child
			p.Sleep(2 * sim.Millisecond)
			childDone()
			done()
		}
	})
	s.RunFor(sim.Second)
	return tr.Hash()
}

// TestHashDeterminism: identical runs hash identically; any structural or
// tag difference changes the hash.
func TestHashDeterminism(t *testing.T) {
	h1, h2 := buildScenario(42, ""), buildScenario(42, "")
	if h1 != h2 {
		t.Errorf("same scenario hashed %016x vs %016x", h1, h2)
	}
	if h3 := buildScenario(42, "changed"); h3 == h1 {
		t.Error("tag change did not change the hash")
	}
}

// TestMetricsRegistry covers counters and nil-registry no-ops.
func TestMetricsRegistry(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	if v := r.Counter("a").Value(); v != 3 {
		t.Errorf("counter = %d", v)
	}
	dump := r.String()
	if !strings.Contains(dump, "a") {
		t.Errorf("dump missing metrics:\n%s", dump)
	}
	var nilReg *obs.Registry
	nilReg.Counter("x").Inc()
	nilReg.Histogram("x").Record(1)
	if nilReg.String() != "" || nilReg.Histograms() != nil {
		t.Error("nil registry misbehaves")
	}
}

// TestHistogram checks the log-linear buckets: exact aggregates, and
// percentiles within the documented ~3% relative error.
func TestHistogram(t *testing.T) {
	h := obs.NewHistogram()
	if h.Summary() != "count=0" {
		t.Errorf("empty summary = %q", h.Summary())
	}
	for v := int64(0); v < 100; v++ {
		h.Record(v)
	}
	if h.Count() != 100 || h.Min() != 0 || h.Max() != 99 || h.Sum() != 4950 {
		t.Errorf("aggregates: count=%d min=%d max=%d sum=%d", h.Count(), h.Min(), h.Max(), h.Sum())
	}
	if h.Mean() != 49 {
		t.Errorf("mean = %d", h.Mean())
	}
	// Values below 128 land in buckets of width <= 4, so these are near
	// exact; assert within the documented error.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}} {
		got := h.Percentile(tc.q)
		if diff := got - tc.want; diff < -4 || diff > 4 {
			t.Errorf("p%v = %d, want ~%d", tc.q*100, got, tc.want)
		}
	}
	// Percentiles clamp to [Min, Max].
	if h.Percentile(0) < 0 || h.Percentile(1) > h.Max() {
		t.Errorf("percentile out of range: p0=%d p100=%d", h.Percentile(0), h.Percentile(1))
	}
	// Large values: relative error bounded by 1/32.
	big := obs.NewHistogram()
	big.RecordDuration(1000 * sim.Millisecond)
	p := big.Percentile(0.5)
	if lo := int64(1000*sim.Millisecond) * 31 / 32; p < lo || p > int64(1000*sim.Millisecond) {
		t.Errorf("p50 of single 1s sample = %v", sim.Duration(p))
	}
	if !strings.Contains(big.Summary(), "count=1") {
		t.Errorf("summary = %q", big.Summary())
	}
	// Negative samples clamp to zero.
	neg := obs.NewHistogram()
	neg.Record(-5)
	if neg.Min() != 0 || neg.Max() != 0 || neg.Count() != 1 {
		t.Errorf("negative sample: min=%d max=%d count=%d", neg.Min(), neg.Max(), neg.Count())
	}
}
