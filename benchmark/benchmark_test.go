package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mrdb/internal/sim"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(7), w.gen(7), w.gen(8)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: same seed gave different op lists", w.Name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: different seeds gave the same op list", w.Name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: digests collide across seeds", w.Name)
		}
		var n [numClasses]int
		for _, cl := range a.Clients {
			for _, o := range cl.Ops {
				n[o.Kind.class()]++
			}
		}
		for k, cnt := range n {
			if !supported(cnt, 99) || cnt < 1000 {
				t.Errorf("%s: %s class has %d ops, p99 needs 1000", w.Name, class(k), cnt)
			}
		}
	}
}

func TestRepCountIsFixedByTheFlags(t *testing.T) {
	for _, w := range workloads {
		if w.nominalWindow <= 0 {
			t.Fatalf("%s has no nominal window", w.Name)
		}
		if n := w.timedReps(defaultSeconds); n < minTimedReps || n > 6 {
			t.Errorf("%s: %d timed repetitions at the default -seconds", w.Name, n)
		}
		if w.timedReps(60) <= w.timedReps(10) {
			t.Errorf("%s: -seconds does not buy more repetitions", w.Name)
		}
	}
	if n := findWorkload("failover_durable").timedReps(1); n != 5 {
		t.Errorf("failover_durable runs %d repetitions at least, want 5", n)
	}
}

func TestRepSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for i := 0; i < 12; i++ {
			s := repSeed(seed, i)
			if s < 0 || seen[s] {
				t.Fatalf("repSeed(%d, %d) = %d: negative or already used", seed, i, s)
			}
			seen[s] = true
		}
	}
	if repSeed(3, 1) != repSeed(3, 1) {
		t.Error("repSeed is not a function of its arguments")
	}
}

func TestTPCCTerminalsShareNoRows(t *testing.T) {
	in := findWorkload("tpcc_mix3").gen(5)
	home := map[int32]bool{}
	for _, cl := range in.Clients {
		home[cl.Ops[0].Key] = true
	}
	if len(home) != len(in.Clients) {
		t.Fatalf("%d terminals on %d warehouses: terminals must not share one", len(in.Clients), len(home))
	}
	for ci, cl := range in.Clients {
		newOrders, remote := 0, 0
		for _, o := range cl.Ops {
			if o.Key != cl.Ops[0].Key {
				t.Fatalf("terminal %d is not bound to one warehouse", ci)
			}
			if o.Kind != kindNewOrder {
				continue
			}
			newOrders++
			for _, l := range o.TPCC.Lines {
				if l.StockWH == o.Key {
					continue
				}
				remote++
				if home[l.StockWH] {
					t.Fatalf("terminal %d takes stock from warehouse %d, another terminal's home", ci, l.StockWH)
				}
				if int(l.StockWH)%len(in.Clients) == cl.Region {
					t.Fatalf("terminal %d: remote warehouse %d is in its own region", ci, l.StockWH)
				}
			}
		}
		if want := (newOrders + 5) / 10; remote != want {
			t.Errorf("terminal %d: %d of %d New-Orders are remote, want exactly %d", ci, remote, newOrders, want)
		}
	}
}

func TestRBRRemoteKeysAreTheNextRegion(t *testing.T) {
	in := findWorkload("ycsb_b_rbr_local").gen(5)
	const regions = 5
	block := int32(rbrRows / regions)
	local, total := 0, 0
	for _, cl := range in.Clients {
		for _, o := range cl.Ops {
			total++
			switch int(o.Key / block) {
			case cl.Region:
				local++
			case (cl.Region + 1) % regions:
			default:
				t.Fatalf("client in region %d touches row %d of region %d", cl.Region, o.Key, o.Key/block)
			}
		}
	}
	if frac := float64(local) / float64(total); math.Abs(frac-0.92) > 0.005 {
		t.Errorf("%.4f of ops are local, want 0.92", frac)
	}
}

func TestOpenLoopScheduleLeavesQuietBeforeCrash(t *testing.T) {
	in := findWorkload("failover_durable").gen(1)
	seen := map[sim.Duration]bool{}
	for _, cl := range in.Clients {
		for _, o := range cl.Ops {
			if seen[o.Due] {
				t.Fatalf("two ops due at %v", o.Due)
			}
			seen[o.Due] = true
			if o.Due >= failoverCrashAt-failoverQuiet && o.Due < failoverCrashAt {
				t.Fatalf("op due at %v, inside the quiet before the crash", o.Due)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]sim.Duration, 100)
	for i := range s {
		s[i] = sim.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want sim.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
	// Ten samples beyond: p99 needs n >= 1000, p50 needs n >= 20.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 99, false}, {1000, 99, true}, {19, 50, false}, {20, 50, true}, {100, 90, true}, {99, 90, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]      two overlapping (parallel) children
	//   b [30,60]
	//     c [35,50]    child of b
	//   d [90,130]     outlives the root: clipped to 100
	spans := []interval{
		{id: 1, parent: 0, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60},
		{id: 4, parent: 3, start: 35, end: 50},
		{id: 5, parent: 1, start: 90, end: 130},
	}
	got := selfTimes(spans, 0, 100)
	want := []int64{
		100 - (50 + 10), // union of a and b is [10,60], d clipped is [90,100]
		30,
		30 - 15,
		15,
		10,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].id, got[i], want[i])
		}
	}
	// A sequential chain sums to the root's duration.
	chain := []interval{{1, 0, 0, 50}, {2, 1, 5, 20}, {3, 1, 20, 45}, {4, 3, 25, 30}}
	sum := int64(0)
	for _, s := range selfTimes(chain, 0, 50) {
		sum += s
	}
	if sum != 50 {
		t.Errorf("sequential self times sum to %d, want the root's 50", sum)
	}
}

func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	// One read due at +1s that the system only finished at +4s, one write
	// due at +2s finished at +2.5s, and a failed op.
	in := &input{Clients: []client{{Ops: []op{
		{Kind: kindRead, Due: 1 * sim.Second},
		{Kind: kindUpdate, Due: 2 * sim.Second},
		{Kind: kindRead, Due: 3 * sim.Second},
	}}}}
	open := sim.Time(10 * sim.Second)
	e := &env{in: in, results: [][]opResult{{
		{Start: open.Add(1 * sim.Second), End: open.Add(4 * sim.Second), OK: true},
		{Start: open.Add(2 * sim.Second), End: open.Add(2500 * sim.Millisecond), OK: true},
		{Start: open.Add(3 * sim.Second), End: open.Add(9 * sim.Second), OK: false},
	}}}
	var res repResult
	summarize(e, &res, open, 9*sim.Second)
	if got := res.Classes[classRead].P50Ms; got != 3000 {
		t.Errorf("read latency %vms, want 3000 (completion minus due time)", got)
	}
	if got := res.Classes[classWrite].P50Ms; got != 500 {
		t.Errorf("write latency %vms, want 500", got)
	}
	if res.Failed != 1 || res.Classes[classRead].N != 1 {
		t.Errorf("failed=%d read n=%d, want 1 and 1: a failed op has no latency", res.Failed, res.Classes[classRead].N)
	}
	// Completions at +2.5s and +4s; the longest gap is open -> +2.5s.
	if res.MaxStallMs != 2500 {
		t.Errorf("max stall %vms, want 2500", res.MaxStallMs)
	}
}

//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileReaderOnLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range hostLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["benchmark"] < 0.5 {
		t.Errorf("the spinning test function got %v of the samples, want most: %v", shares["benchmark"], shares)
	}
}

// protobuf helpers for the hand-built profile below.
func pbVarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func pbField(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}
func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(b, uint64(field)<<3|2)
	b = pbVarint(b, uint64(len(data)))
	return append(b, data...)
}

func TestProfileReaderAttribution(t *testing.T) {
	names := []string{"", "runtime.mallocgc", "mrdb/internal/mvcc.(*Engine).Put",
		"mrdb/internal/kv.(*Replica).evaluate", "main.runOps", "runtime.gcBgMarkWorker",
		"mrdb/internal/obs/tsdb.(*DB).Observe", "mrdb/internal/workload.(*TPCC).Load"}
	var prof []byte
	for _, s := range names {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id := 1; id < len(names); id++ {
		fn := pbField(pbField(nil, 1, uint64(id)), 2, uint64(id)) // id, name index
		prof = pbBytes(prof, 5, fn)
		line := pbField(nil, 1, uint64(id))
		loc := pbBytes(pbField(nil, 1, uint64(id)), 4, line)
		if id == 2 {
			// Location 2 also carries an inlined kv frame *outside* mvcc's.
			loc = pbBytes(loc, 4, pbField(nil, 1, 3))
		}
		prof = pbBytes(prof, 4, loc)
	}
	sample := func(value uint64, locs ...uint64) {
		var packed []byte
		for _, l := range locs {
			packed = pbVarint(packed, l)
		}
		s := pbBytes(nil, 1, packed)
		s = pbBytes(s, 2, pbVarint(pbVarint(nil, 1), value)) // [count, nanoseconds]
		prof = pbBytes(prof, 2, s)
	}
	sample(40, 1, 2, 4) // malloc <- mvcc.Put (kv inlined around it) <- main: mvcc
	sample(30, 3, 4)    // kv <- main: kv
	sample(10, 4)       // main only: benchmark
	sample(10, 5)       // GC worker: runtime
	sample(5, 6)        // obs/tsdb: obs
	sample(5, 7)        // workload package: the driver

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := hostShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mvcc": 0.40, "kv": 0.30, "benchmark": 0.15, "runtime": 0.10, "obs": 0.05}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v (all: %v)", l, shares[l], w, shares)
		}
	}
	if _, err := hostShares([]byte("not gzip")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCompareVerdicts(t *testing.T) {
	mv := func(v, spread float64) metricValue { return metricValue{Value: v, Spread: spread} }
	for _, c := range []struct {
		name   string
		a, b   metricValue
		better string
		bound  float64
		want   string
	}{
		{"lower is better, +20% beyond 10%", mv(100, 0), mv(120, 0), "lower", 0.10, regressed},
		{"lower is better, -20%", mv(100, 0), mv(80, 0), "lower", 0.10, improved},
		{"inside the bound", mv(100, 0.01), mv(105, 0.02), "lower", 0.10, unchanged},
		{"higher is better, -20%", mv(100, 0), mv(80, 0), "higher", 0.10, regressed},
		{"higher is better, +20%", mv(100, 0), mv(120, 0), "higher", 0.10, improved},
		{"a's repetitions spread wider than the bound", mv(100, 0.15), mv(130, 0.01), "lower", 0.10, unresolved},
		{"b's repetitions spread wider than the bound", mv(100, 0.01), mv(100, 0.12), "lower", 0.10, unresolved},
	} {
		if _, got := verdict(c.a, c.b, 1, 1, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Three repetitions spreading 15% leave their median uncertain by ~9%.
	if _, got := verdict(mv(100, 0.15), mv(100, 0.15), 3, 3, "lower", 0.10); got != unchanged {
		t.Errorf("15%% spread over 3 repetitions against a 10%% bound: %s, want unchanged", got)
	}

	spec := loadTestSpec(t)
	mk := func(wall float64, failed int) *report {
		r := &report{}
		for _, w := range spec.Workloads {
			res := &workloadResult{Workload: w.Name, Attempted: 10000, Failed: failed, EndToEnd: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				res.EndToEnd[m.Name] = exact(m.Unit, 100)
			}
			res.EndToEnd["wall_us_per_op"] = exact("us/op", wall)
			r.Workloads = append(r.Workloads, res)
		}
		return r
	}
	var out bytes.Buffer
	if compareReports(&out, spec, mk(100, 0), mk(100, 0)) {
		t.Errorf("identical reports regressed:\n%s", out.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Contains(out.String(), unresolved) {
		t.Errorf("identical reports must be unchanged throughout:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "\n") - 1; rows != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("%d rows, want one per (workload, end-to-end metric) = %d", rows, len(spec.Workloads)*len(spec.EndToEnd))
	}
	if !compareReports(io.Discard, spec, mk(100, 0), mk(200, 0)) {
		t.Error("doubling wall_us_per_op did not regress")
	}
	// ok_frac is compared as failed-of-attempted counts: 10 of 10000 is
	// 0.001, beyond the bound.
	if !compareReports(io.Discard, spec, mk(100, 0), mk(100, 10)) {
		t.Error("10 failures in 10000 did not regress ok_frac")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(endToEnd) != 11 || len(perLayer) != 81 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 11 and 81", len(endToEnd), len(perLayer))
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, the benchmark %s/%s/%s", i, s, m.Name, m.Unit, m.Better)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		seen[m.Name] = true
	}
	for i, m := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != m.Name || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the benchmark %s/%s/%s", i, s, m.Name, m.Unit, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	// What a run reports is exactly the catalogue.
	rep := func(mode string) *repResult {
		return &repResult{Mode: mode, Attempted: 2000, WindowWallS: 1, WindowVirtS: 10, HostSpeed: 1, Counters: map[string]int64{},
			Classes:   [numClasses]classStats{{N: 1000, P99OK: true}, {N: 1000, P99OK: true}},
			Trace:     &traceReport{SelfMsPerOp: map[string]float64{}},
			HostShare: map[string]float64{}}
	}
	probes := map[string]float64{}
	for _, n := range probeNames() {
		probes[n] = 1
	}
	res := aggregate(1, []*repResult{rep(modeTimed), rep(modeTimed), rep(modeTimed)}, rep(modeProfiled), rep(modeTraced), probes)
	if !res.Correct {
		t.Errorf("consistent repetitions failed the gates: %v", res.Problems)
	}
	check := func(kind string, got map[string]metricValue, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics reported, want %d", len(got), kind, len(want))
		}
		for _, m := range want {
			v, ok := got[m.Name]
			if !ok {
				t.Errorf("%s metric %s not reported", kind, m.Name)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s reported in %q, want %q", m.Name, v.Unit, m.Unit)
			}
		}
	}
	check("end-to-end", res.EndToEnd, endToEnd)
	check("per-layer", res.PerLayer, perLayer)
}

func TestWallClockMetricsAreStatedAtReferenceSpeed(t *testing.T) {
	rep := func(wall, setup, speed float64) *repResult {
		return &repResult{Mode: modeTimed, Attempted: 1000, WindowWallS: wall, SetupS: setup, HostSpeed: speed,
			Mallocs: 5000, Counters: map[string]int64{},
			Classes: [numClasses]classStats{{N: 1000, P99OK: true}, {N: 1000, P99OK: true}}}
	}
	// The same work on a box running at half speed takes twice as long.
	fast := aggregate(1, []*repResult{rep(1, 0.1, 1), rep(1, 0.1, 1), rep(1, 0.1, 1)}, nil, nil, nil)
	slow := aggregate(1, []*repResult{rep(2, 0.2, 0.5), rep(2, 0.2, 0.5), rep(2, 0.2, 0.5)}, nil, nil, nil)
	for _, name := range []string{"wall_us_per_op", "setup_s"} {
		if f, s := fast.EndToEnd[name].Value, slow.EndToEnd[name].Value; f != s || f == 0 {
			t.Errorf("%s: %v at reference speed, %v at half speed: the calibration should cancel the box", name, f, s)
		}
	}
	if got := fast.EndToEnd["wall_us_per_op"].Value; got != 1000 {
		t.Errorf("wall_us_per_op = %v, want 1s / 1000 ops = 1000us", got)
	}
	// Counted metrics are not scaled.
	if f, s := fast.EndToEnd["allocs_per_op"].Value, slow.EndToEnd["allocs_per_op"].Value; f != 5 || s != 5 {
		t.Errorf("allocs_per_op %v and %v, want 5: only host time is scaled", f, s)
	}
}

func TestGatesCatchDivergingRepetitions(t *testing.T) {
	ok := func() *repResult {
		return &repResult{Mode: modeTimed, InputDigest: 1, VirtualHash: 2, Counters: map[string]int64{"sim.events": 5},
			Classes: [numClasses]classStats{{N: 1000, P99OK: true}, {N: 1000, P99OK: true}}}
	}
	if p := gates([]*repResult{ok(), ok(), ok()}); len(p) != 0 {
		t.Errorf("identical repetitions: %v", p)
	}
	for name, breakIt := range map[string]func(r *repResult){
		"input digest":   func(r *repResult) { r.InputDigest = 9 },
		"virtual digest": func(r *repResult) { r.VirtualHash = 9 },
		"counter":        func(r *repResult) { r.Counters["sim.events"] = 6 },
		"apply errors":   func(r *repResult) { r.ApplyErrors = 1 },
		"data invariant": func(r *repResult) { r.VerifyError = "row 3 holds the wrong value" },
		"commit wait cross-check": func(r *repResult) {
			r.Mode = modeTraced
			r.Counters["txn.commit_wait_ns"] = 100e6
			r.Trace = &traceReport{CommitWaitMs: 90}
		},
	} {
		bad := ok()
		breakIt(bad)
		reps := []*repResult{ok(), ok(), bad}
		if name == "commit wait cross-check" {
			for _, r := range reps {
				r.Counters["txn.commit_wait_ns"] = 100e6
			}
		}
		if p := gates(reps); len(p) == 0 {
			t.Errorf("%s mismatch passed the gates", name)
		}
	}
	// Repetitions on different inputs may differ in everything virtual.
	other := ok()
	other.Seed, other.InputDigest, other.VirtualHash = 7, 70, 71
	other.Counters["sim.events"] = 99
	if p := gates([]*repResult{ok(), other}); len(p) != 0 {
		t.Errorf("repetitions with different seeds were compared: %v", p)
	}
	few := ok()
	few.Classes[classRead] = classStats{N: 999}
	if p := gates([]*repResult{few}); len(p) == 0 {
		t.Error("999 read samples passed the p99 rule")
	}
}
