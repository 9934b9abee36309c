package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// Repetition modes. Timed repetitions trace nothing and carry the
// host-clock metrics; the profiled one adds a CPU profile; the traced one
// runs with cluster tracing on and carries the [trace] metrics.
const (
	modeTimed    = "timed"
	modeProfiled = "profiled"
	modeTraced   = "traced"
)

// settle is the virtual pause between load and the window: closed
// timestamps, liveness and (durable) checkpoints reach steady state.
const settle = 6 * sim.Second

// virtualBudget bounds one repetition in virtual time.
const virtualBudget = 2 * 3600 * sim.Second

// classStats summarizes one latency class of one repetition.
type classStats struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// P99OK reports the ten-samples-beyond rule for p99.
	P99OK bool `json:"p99_ok"`
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Workload    string `json:"workload"`
	Mode        string `json:"mode"`
	Seed        int64  `json:"seed"`
	InputDigest uint64 `json:"input_digest"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	FirstError  string `json:"first_error,omitempty"`

	// Host clock. HostSpeed is filled in by the parent from the calibration
	// loops around this repetition.
	HostSpeed   float64 `json:"host_speed"`
	SetupS      float64 `json:"setup_s"`
	WindowWallS float64 `json:"window_wall_s"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint32  `json:"gc_cycles"`
	LiveHeapMB  float64 `json:"live_heap_mb"`

	// Virtual clock.
	Events       int64                  `json:"events"`
	WindowVirtS  float64                `json:"window_virt_s"`
	Classes      [numClasses]classStats `json:"classes"`
	MaxStallMs   float64                `json:"max_stall_ms"`
	VirtOpsPerS  float64                `json:"virt_ops_per_s"`
	VirtualHash  uint64                 `json:"virtual_hash"`
	Counters     map[string]int64       `json:"counters"`
	ApplyErrors  int                    `json:"apply_errors"`
	VerifyError  string                 `json:"verify_error,omitempty"`
	LateStartsMs float64                `json:"late_start_max_ms"`

	// Traced repetition only.
	TraceHash uint64       `json:"trace_hash,omitempty"`
	Trace     *traceReport `json:"trace,omitempty"`
	// Profiled repetition only: CPU share by layer.
	HostShare map[string]float64 `json:"host_share,omitempty"`
}

// runRep executes one repetition of a workload in this process.
func runRep(spec *workloadSpec, seed int64, mode string) (*repResult, error) {
	in := spec.gen(seed)
	res := &repResult{
		Workload: spec.Name, Mode: mode, Seed: seed,
		InputDigest: in.digest(), Attempted: in.ops(),
	}

	setupStart := time.Now()
	cfg := spec.config()
	cfg.Seed = seed
	cfg.Tracing = mode == modeTraced
	c := cluster.New(cfg)
	e := &env{spec: spec, c: c, cat: sql.NewCatalog(), in: in}
	e.results = make([][]opResult, len(in.Clients))
	for i, cl := range in.Clients {
		e.results[i] = make([]opResult, len(cl.Ops))
	}

	var runErr error
	finished := false
	var profile bytes.Buffer
	var windowOpen sim.Time
	c.Sim.Spawn("benchmark", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if runErr = spec.setup(p, e); runErr != nil {
			return
		}
		p.Sleep(settle)

		// The measured window opens here.
		res.SetupS = time.Since(setupStart).Seconds()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if mode == modeProfiled {
			if runErr = pprof.StartCPUProfile(&profile); runErr != nil {
				return
			}
		}
		before := snapshotCounters(e)
		windowOpen = p.Now()
		wall0 := time.Now()

		lateMax := runOps(p, e, windowOpen)

		wall := time.Since(wall0)
		window := p.Now().Sub(windowOpen)
		if mode == modeProfiled {
			pprof.StopCPUProfile()
		}
		runtime.ReadMemStats(&m1)
		after := snapshotCounters(e)
		res.WindowWallS = wall.Seconds()
		res.Mallocs = m1.Mallocs - m0.Mallocs
		res.GCCycles = m1.NumGC - m0.NumGC
		res.WindowVirtS = float64(window) / float64(sim.Second)
		res.LateStartsMs = ms(lateMax)
		res.Counters = map[string]int64{}
		for k, v := range after {
			res.Counters[k] = v - before[k]
		}
		res.Events = res.Counters["sim.events"]
		if e.recovery.Ranges > 0 {
			res.Counters["kv.recovery_ns"] = int64(e.recovery.Duration)
			res.Counters["kv.replayed_entries"] = int64(e.recovery.ReplayedEntries)
		}
		// Live heap with the whole cluster still reachable.
		runtime.GC()
		runtime.ReadMemStats(&m1)
		res.LiveHeapMB = float64(m1.HeapAlloc) / (1 << 20)

		summarize(e, res, windowOpen, window)
		if err := spec.verify(p, e); err != nil {
			res.VerifyError = err.Error()
		}
		finished = true
	})
	c.Sim.RunFor(virtualBudget)
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, runErr)
	}
	if !finished {
		return nil, fmt.Errorf("%s: did not finish within %v of virtual time", spec.Name, virtualBudget)
	}
	res.ApplyErrors = c.ApplyErrors()
	if e.firstErr != nil {
		res.FirstError = e.firstErr.Error()
	}
	if mode == modeTraced {
		res.TraceHash = c.Tracer.Hash()
		res.Trace = analyzeTraces(c.Tracer.Traces(), windowOpen, res.Attempted)
	}
	if mode == modeProfiled {
		shares, err := hostShares(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", spec.Name, err)
		}
		res.HostShare = shares
	}
	return res, nil
}

// runOps executes every pre-generated op and returns when all have
// completed. Closed-loop clients run their list back to back; the open loop
// starts each op on its own proc at its due time, however far behind the
// system is. It returns the latest any open-loop op started after its due
// time (how late the generator ran).
func runOps(p *sim.Proc, e *env, open sim.Time) (lateMax sim.Duration) {
	s := e.c.Sim
	wg := sim.NewWaitGroup(s)
	do := func(cp *sim.Proc, sess *session, ci, i int, start sim.Time) {
		o := &e.in.Clients[ci].Ops[i]
		sp, done := e.c.Tracer.StartRootIn(cp, "bench.op")
		sp.SetTag("class", o.Kind.class().String())
		err := e.spec.exec(cp, e, sess, o)
		done()
		if err != nil && e.firstErr == nil {
			e.firstErr = fmt.Errorf("client %d op %d: %w", ci, i, err)
		}
		e.results[ci][i] = opResult{Start: start, End: cp.Now(), OK: err == nil}
	}
	for ci := range e.in.Clients {
		ci := ci
		if !e.spec.openLoop {
			wg.Add(1)
			s.Spawn("bench/client", func(cp *sim.Proc) {
				defer wg.Done()
				for i := range e.in.Clients[ci].Ops {
					do(cp, e.sessions[ci], ci, i, cp.Now())
				}
			})
			continue
		}
		for i := range e.in.Clients[ci].Ops {
			i := i
			due := open.Add(e.in.Clients[ci].Ops[i].Due)
			wg.Add(1)
			s.SpawnAt(due, "bench/op", func(cp *sim.Proc) {
				defer wg.Done()
				lateMax = max(lateMax, cp.Now().Sub(due))
				// A session runs one statement at a time: take an idle one
				// from the region's pool, or open another.
				var sess *session
				if n := len(e.pools[ci]); n > 0 {
					sess, e.pools[ci] = e.pools[ci][n-1], e.pools[ci][:n-1]
				} else {
					sess = e.openYCSBSession(e.c.Regions()[e.in.Clients[ci].Region])
				}
				do(cp, sess, ci, i, due)
				e.pools[ci] = append(e.pools[ci], sess)
			})
		}
	}
	if e.spec.crashAt > 0 {
		wg.Add(1)
		s.Spawn("bench/fault", func(fp *sim.Proc) {
			defer wg.Done()
			fp.SleepUntil(open.Add(e.spec.crashAt))
			e.c.CrashNode(e.victim)
			fp.SleepUntil(open.Add(e.spec.restartAt))
			stats, err := e.c.RestartNode(fp, e.victim)
			if err != nil && e.firstErr == nil {
				e.firstErr = fmt.Errorf("restart n%d: %w", e.victim, err)
			}
			e.recovery = stats
		})
	}
	wg.Wait(p)
	return lateMax
}

// summarize folds the op results into the repetition's virtual-clock
// metrics.
func summarize(e *env, res *repResult, open sim.Time, window sim.Duration) {
	var samples [numClasses][]sim.Duration
	failed := 0
	var stalls []float64
	rate := 0.0
	for ci, cl := range e.in.Clients {
		var ends []sim.Time
		for i, o := range cl.Ops {
			r := e.results[ci][i]
			if !r.OK {
				failed++
				continue
			}
			k := o.Kind.class()
			samples[k] = append(samples[k], r.End.Sub(r.Start))
			ends = append(ends, r.End)
		}
		// The longest this client went without a successful completion,
		// counting the window's opening as the first, and the client's own
		// rate over its own busy time. The reported stall is the one every
		// client suffered (the minimum over clients): a cluster-wide stall
		// shows in full, one client's unlucky op does not.
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		prev, stall := open, sim.Duration(0)
		for _, t := range ends {
			stall = max(stall, t.Sub(prev))
			prev = t
		}
		stalls = append(stalls, ms(stall))
		if busy := prev.Sub(open); busy > 0 {
			rate += float64(len(ends)) / (float64(busy) / float64(sim.Second))
		}
	}
	res.Failed = failed
	res.MaxStallMs = slices.Min(stalls)
	res.VirtOpsPerS = rate
	for k := range samples {
		s := samples[k]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		res.Classes[k] = classStats{N: len(s), P50Ms: ms(percentile(s, 50)), P99Ms: ms(percentile(s, 99)), P99OK: supported(len(s), 99)}
	}
	res.VirtualHash = virtualDigest(samples, res.Events, window)
}

// snapshotCounters reads every exported counter the [run] metrics use, and
// a few more (merges, replica moves) that only the same-seed identity gate
// compares.
func snapshotCounters(e *env) map[string]int64 {
	c := e.c
	m := map[string]int64{
		"sim.events":       c.Sim.Events(),
		"simnet.msgs":      c.Net.MessagesSent,
		"simnet.bytes":     c.Net.BytesEstimate,
		"simnet.rpcs":      c.Metrics.Counter("net.rpc").Value(),
		"simnet.wan_rpcs":  c.Metrics.Counter("net.rpc.wan").Value(),
		"storage.appends":  c.Metrics.Counter("storage.wal.appends").Value(),
		"storage.fsyncs":   c.Metrics.Counter("storage.wal.fsyncs").Value(),
		"storage.bytes":    c.Metrics.Counter("storage.wal.bytes").Value(),
		"kv.splits":        c.Admin.Splits + c.Admin.LoadSplits,
		"kv.merges":        c.Admin.Merges,
		"kv.lease_moves":   c.Admin.LeaseMoves,
		"kv.replica_moves": c.Admin.ReplicaMoves,
		"kv.epoch_bumps":   c.Liveness.EpochBumps,
		"sql.stmts":        e.stmts,
	}
	for _, ds := range c.Senders {
		m["kv.sent"] += ds.Sent
		m["kv.retries"] += ds.Retries
		m["kv.follower_misses"] += ds.FollowerMisses
		m["kv.batches"] += ds.Batches
		m["kv.batched_reqs"] += ds.BatchedReqs
		m["kv.backoff_ns"] += int64(ds.BackoffTotal)
	}
	for _, d := range c.Catalog.All() {
		for _, n := range d.Replicas() {
			if r, ok := c.Stores[n].Replica(d.RangeID); ok {
				m["kv.follower_reads"] += r.FollowerReads
				m["kv.redirects"] += r.RedirectsToLH
				m["kv.lease_acquisitions"] += r.LeaseAcquisitions
			}
		}
	}
	for _, s := range e.all {
		co := s.s.Coord
		m["txn.begun"] += co.Begun
		m["txn.aborted"] += co.Aborted
		m["txn.restarts"] += co.Restarts
		m["txn.commit_wait_ns"] += int64(co.CommitWaitTotal)
	}
	hits, misses := e.cat.PlanCacheStats()
	m["sql.plan_hits"], m["sql.plan_misses"] = int64(hits), int64(misses)
	return m
}
