// Package obs is mrdb's deterministic observability layer: hierarchical
// spans stamped with virtual time, and a metrics registry (counters and
// HDR-style histograms).
//
// Everything here is driven by the simulation clock, never the wall clock,
// and records strictly passively: no method sleeps, schedules events, or
// consumes simulation randomness. Tracing on versus off therefore cannot
// change the event order or any virtual-time latency — observability is
// zero-cost in virtual time, which the metamorphic tests assert. Because
// the simulator is deterministic per seed, traces are bit-for-bit
// reproducible and serve as a test oracle: tests assert structural protocol
// properties ("this follower read crossed 0 WAN links") directly on
// collected span trees.
//
// The package depends only on sim. Spans travel across layers in two ways:
// within a process via an opaque slot on sim.Proc (ProcSpan/SetProcSpan),
// and across the simulated network via SpanContext embedded in requests.
package obs

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"mrdb/internal/sim"
)

// TraceID identifies one trace: the tree of spans under a single root.
type TraceID uint64

// SpanID identifies a span within a tracer.
type SpanID uint64

// SpanContext is the portable reference to a span, embeddable in requests
// that cross the simulated network.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context refers to a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Tag is one key=value annotation on a span. Tags keep insertion order so
// a trace renders (and hashes) the same way on every run.
type Tag struct {
	Key   string
	Value string
}

// Span is one timed operation in a trace. Start and End are virtual times;
// End is zero while the span is unfinished. All methods are safe on a nil
// receiver, so instrumentation sites need no "is tracing on" checks.
type Span struct {
	tr      *Tracer
	Context SpanContext
	Parent  SpanID // zero for roots
	Name    string
	Start   sim.Time
	End     sim.Time
	Tags    []Tag

	// tagbuf backs Tags for the first few tags so typical spans (the hot
	// path averages 1-3 tags) never allocate a tag slice; Tags spills to the
	// heap only beyond len(tagbuf).
	tagbuf [4]Tag
	// prevIn/procIn restore the process's current span when a span started
	// with StartIn/StartRootIn ends.
	prevIn *Span
	procIn *sim.Proc
}

// Ctx returns the span's context (zero value for a nil span).
func (s *Span) Ctx() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.Context
}

// SetTag annotates the span; it returns s for chaining.
func (s *Span) SetTag(key, value string) *Span {
	if s == nil {
		return nil
	}
	for i := range s.Tags {
		if s.Tags[i].Key == key {
			s.Tags[i].Value = value
			return s
		}
	}
	s.Tags = append(s.Tags, Tag{key, value})
	return s
}

// SetTagInt annotates the span with an integer value. The nil check comes
// first so untraced call sites pay nothing for formatting.
func (s *Span) SetTagInt(key string, value int64) *Span {
	if s == nil {
		return nil
	}
	return s.SetTag(key, strconv.FormatInt(value, 10))
}

// SetTagDuration annotates the span with a virtual duration.
func (s *Span) SetTagDuration(key string, d sim.Duration) *Span {
	if s == nil {
		return nil
	}
	return s.SetTag(key, d.String())
}

// SetError marks the span failed: the message under "err" plus a boolean
// "error" tag, which trace exporters map to Jaeger's error convention so
// failed attempts (RPC retries, rejected commits) render distinctly in real
// tooling. Nil-span- and nil-error-safe; returns s for chaining.
func (s *Span) SetError(err error) *Span {
	if s == nil || err == nil {
		return s
	}
	s.SetTag("error", "true")
	return s.SetTag("err", err.Error())
}

// Tag returns the value of a tag, if set.
func (s *Span) Tag(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, t := range s.Tags {
		if t.Key == key {
			return t.Value, true
		}
	}
	return "", false
}

// Finish stamps the span's end with the current virtual time. Finishing an
// already-finished span keeps the first end time.
func (s *Span) Finish() {
	if s == nil || s.End != 0 {
		return
	}
	s.End = s.tr.sim.Now()
}

// Duration is End-Start, or the zero duration while unfinished.
func (s *Span) Duration() sim.Duration {
	if s == nil || s.End == 0 {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is the collected set of spans sharing one TraceID, in creation
// order (the first span is the root).
type Trace struct {
	ID    TraceID
	Spans []*Span
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil || len(t.Spans) == 0 {
		return nil
	}
	return t.Spans[0]
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	for _, s := range t.Spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FindAll returns every span with the given name, in creation order.
func (t *Trace) FindAll(name string) []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// String renders the trace as an indented tree in canonical form: children
// in creation order, each line carrying name, [start, end) virtual times
// and tags in insertion order. Two runs with the same seed produce
// byte-identical renderings.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	children := map[SpanID][]*Span{}
	byID := map[SpanID]*Span{}
	for _, s := range t.Spans {
		byID[s.Context.Span] = s
	}
	var roots []*Span
	for _, s := range t.Spans {
		if s.Parent != 0 && byID[s.Parent] != nil {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d\n", t.ID)
	var render func(s *Span, depth int)
	render = func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth+1))
		end := "..."
		if s.End != 0 {
			end = fmt.Sprintf("%s (%s)", s.End, s.Duration())
		}
		fmt.Fprintf(&b, "%s [%s .. %s]", s.Name, s.Start, end)
		for _, tag := range s.Tags {
			fmt.Fprintf(&b, " %s=%s", tag.Key, tag.Value)
		}
		b.WriteString("\n")
		for _, c := range children[s.Context.Span] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// Hash returns an FNV-1a hash of the canonical rendering.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.String()))
	return h.Sum64()
}

// Tracer creates and retains spans. It is owned by a single Simulation and
// touched only from Procs, so (like the rest of the simulator) it needs no
// locking. A nil or disabled Tracer is fully usable: every method degrades
// to a no-op returning nil spans.
type Tracer struct {
	sim       *sim.Simulation
	enabled   bool
	nextTrace uint64
	nextSpan  uint64
	traces    map[TraceID]*Trace
	order     []TraceID

	// arena backs span storage in fixed-size slabs: one allocation per
	// spanChunk spans instead of one per span. Spans are retained for the
	// lifetime of the run (they are the determinism oracle), so slabs are
	// never recycled — pointers into them stay valid forever.
	arena    []Span
	arenaPos int
}

// spanChunk is the slab size of the span arena.
const spanChunk = 256

// NewTracer returns a disabled tracer bound to s; call SetEnabled(true) to
// start recording.
func NewTracer(s *sim.Simulation) *Tracer {
	return &Tracer{sim: s, traces: map[TraceID]*Trace{}}
}

// SetEnabled switches span recording on or off.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled = on
	}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

func (t *Tracer) newSpan(name string, trace TraceID, parent SpanID) *Span {
	t.nextSpan++
	if t.arenaPos == len(t.arena) {
		t.arena = make([]Span, spanChunk)
		t.arenaPos = 0
	}
	s := &t.arena[t.arenaPos]
	t.arenaPos++
	s.tr = t
	s.Context = SpanContext{Trace: trace, Span: SpanID(t.nextSpan)}
	s.Parent = parent
	s.Name = name
	s.Start = t.sim.Now()
	s.Tags = s.tagbuf[:0]
	tr := t.traces[trace]
	if tr == nil {
		tr = &Trace{ID: trace}
		t.traces[trace] = tr
		t.order = append(t.order, trace)
	}
	tr.Spans = append(tr.Spans, s)
	return s
}

// StartRoot begins a new trace and returns its root span.
func (t *Tracer) StartRoot(name string) *Span {
	if !t.Enabled() {
		return nil
	}
	t.nextTrace++
	return t.newSpan(name, TraceID(t.nextTrace), 0)
}

// StartSpan begins a child span under a remote parent context, as when a
// request arrives over the network. An invalid parent yields no span:
// untraced background work (heartbeats, liveness) records nothing.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if !t.Enabled() || !parent.Valid() {
		return nil
	}
	return t.newSpan(name, parent.Trace, parent.Span)
}

// StartChild begins a child of an in-process parent span.
func (t *Tracer) StartChild(name string, parent *Span) *Span {
	return t.StartSpan(name, parent.Ctx())
}

// Collect returns the trace with the given ID, or nil.
func (t *Tracer) Collect(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	return t.traces[id]
}

// Traces returns every collected trace in creation order.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	out := make([]*Trace, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.traces[id])
	}
	return out
}

// Hash folds the canonical rendering of every trace into one FNV-1a value:
// the span-tree hash the chaos harness compares across same-seed runs.
func (t *Tracer) Hash() uint64 {
	h := fnv.New64a()
	if t != nil {
		for _, id := range t.order {
			h.Write([]byte(t.traces[id].String()))
		}
	}
	return h.Sum64()
}

// ProcSpan returns the span currently installed on p, if any.
func ProcSpan(p *sim.Proc) *Span {
	if p == nil {
		return nil
	}
	s, _ := p.ObsCtx().(*Span)
	return s
}

// SetProcSpan installs s as p's current span. Passing nil clears it. Use
// this when spawning a sub-process that should inherit the caller's trace.
func SetProcSpan(p *sim.Proc, s *Span) {
	if p == nil {
		return
	}
	if s == nil {
		p.SetObsCtx(nil)
		return
	}
	p.SetObsCtx(s)
}

// StartIn begins a child of p's current span, installs it as current, and
// returns it with a closure that finishes it and restores the previous
// span. If p has no current span (or tracing is off) it returns (nil,
// no-op), so call sites are unconditional:
//
//	sp, done := tracer.StartIn(p, "txn.commitwait")
//	defer done()
func (t *Tracer) StartIn(p *sim.Proc, name string) (*Span, func()) {
	prev := ProcSpan(p)
	s := t.StartChild(name, prev)
	if s == nil {
		return nil, nopDone
	}
	s.prevIn, s.procIn = prev, p
	SetProcSpan(p, s)
	return s, s.endIn
}

// nopDone is the shared no-op finisher returned when no span was started.
var nopDone = func() {}

// endIn finishes the span and restores the process's previous current span.
// Returned as a method value from StartIn/StartRootIn: one small allocation
// instead of a closure capturing three variables.
func (s *Span) endIn() {
	s.Finish()
	SetProcSpan(s.procIn, s.prevIn)
	s.prevIn, s.procIn = nil, nil
}

// StartRootIn is StartIn, except that when p has no current span and the
// tracer is enabled it begins a fresh trace. This is the entry point used
// at the top of the request path (SQL statement execution) and by tests.
func (t *Tracer) StartRootIn(p *sim.Proc, name string) (*Span, func()) {
	if prev := ProcSpan(p); prev != nil {
		return t.StartIn(p, name)
	}
	s := t.StartRoot(name)
	if s == nil {
		return nil, nopDone
	}
	s.prevIn, s.procIn = nil, p
	SetProcSpan(p, s)
	return s, s.endIn
}
