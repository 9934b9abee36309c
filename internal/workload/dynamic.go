package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// This file holds the dynamic-scenario workloads that exercise elastic
// scale: traffic whose shape changes over virtual time, so the load-based
// split/merge queue and the lease/replica rebalancer have something to
// chase. Two variants mirror the paper's motivating patterns:
//
//   - FollowTheSun rotates the dominant MovR region phase by phase, the way
//     a global application's diurnal peak walks westward (§1.1).
//   - MigratingHotspot concentrates most YCSB operations in a key window
//     that jumps between phases, forcing load-based splits to track it.
//
// Both record every operation into WindowedRecorders keyed by virtual-time
// window, so benchmarks can plot p50/p99 trajectories and assert that the
// latency shape re-converges after each dynamic event.

// WindowedRecorder buckets latency samples into fixed-width virtual-time
// windows. Windows are indexed by now/Width; empty windows simply have no
// entry.
type WindowedRecorder struct {
	// Width is the window width; zero defaults to 30s.
	Width   sim.Duration
	windows map[int64]*LatencyRecorder
}

// NewWindowedRecorder returns an empty recorder with the given window width.
func NewWindowedRecorder(width sim.Duration) *WindowedRecorder {
	if width <= 0 {
		width = 30 * sim.Second
	}
	return &WindowedRecorder{Width: width, windows: map[int64]*LatencyRecorder{}}
}

// Record adds one sample (or error) to the window containing now.
func (w *WindowedRecorder) Record(now sim.Time, lat sim.Duration, err error) {
	idx := int64(now) / int64(w.Width)
	rec, ok := w.windows[idx]
	if !ok {
		rec = NewLatencyRecorder(fmt.Sprintf("window/%d", idx))
		w.windows[idx] = rec
	}
	if err != nil {
		rec.Errors++
	} else {
		rec.Record(lat)
	}
}

// Window returns the recorder for window idx, or nil when it saw no traffic.
func (w *WindowedRecorder) Window(idx int64) *LatencyRecorder { return w.windows[idx] }

// Indices returns the populated window indices in ascending order.
func (w *WindowedRecorder) Indices() []int64 {
	out := make([]int64, 0, len(w.windows))
	for idx := range w.windows {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Between merges all samples recorded in [from, to) into one recorder.
func (w *WindowedRecorder) Between(from, to sim.Time) *LatencyRecorder {
	out := NewLatencyRecorder(fmt.Sprintf("window/%v-%v", from, to))
	for idx, rec := range w.windows {
		start := sim.Time(idx * int64(w.Width))
		if start >= from && start < to {
			out.Merge(rec)
		}
	}
	return out
}

// SetRegions restricts the MovR database to the given regions, even when
// the cluster topology has more. Benchmarks use this to create the database
// over a subset of regions and then ADD REGION mid-run while the extra
// nodes already exist in the topology. Must be called before Setup.
func (m *Movr) SetRegions(regions []simnet.Region) {
	m.regions = append([]simnet.Region(nil), regions...)
}

// SunPhase is one phase of a follow-the-sun run: Hot carries the bulk of
// the traffic for Duration of virtual time.
type SunPhase struct {
	Hot      simnet.Region
	Duration sim.Duration
}

// Closed-loop client counts of a FollowTheSun phase, the hot region's and
// each other region's, and the pause each client takes between operations.
const (
	sunHotClients  = 4
	sunColdClients = 1
	sunThink       = 1 * sim.Second
)

// FollowTheSun drives MovR traffic whose dominant region rotates phase by
// phase. Within a phase the hot region runs sunHotClients closed-loop clients
// while every other database region runs sunColdClients, so the per-range QPS
// mix the load queue observes genuinely shifts.
type FollowTheSun struct {
	M *Movr

	// Windows collects every operation; HotWindows only those issued from
	// the phase's hot region (the convergence signal benchmarks gate on).
	Windows    *WindowedRecorder
	HotWindows *WindowedRecorder

	// PhaseStarts records the virtual time each phase began, in order.
	PhaseStarts []sim.Time
}

// NewFollowTheSun wraps an already set-up MovR harness.
func NewFollowTheSun(m *Movr, windowWidth sim.Duration) *FollowTheSun {
	return &FollowTheSun{
		M:          m,
		Windows:    NewWindowedRecorder(windowWidth),
		HotWindows: NewWindowedRecorder(windowWidth),
	}
}

// Run executes the phases sequentially. Each phase spawns its clients in
// region order (deterministic) and waits for all of them at the phase
// boundary, so phases never overlap.
func (f *FollowTheSun) Run(p *sim.Proc, phases []SunPhase) error {
	var firstErr error
	for pi, ph := range phases {
		f.PhaseStarts = append(f.PhaseStarts, p.Now())
		deadline := p.Now().Add(ph.Duration)
		wg := sim.NewWaitGroup(f.M.Cluster.Sim)
		for ri, region := range f.M.regions {
			n := sunColdClients
			if region == ph.Hot {
				n = sunHotClients
			}
			for cl := 0; cl < n; cl++ {
				ri, region := ri, region
				hot := region == ph.Hot
				wg.Add(1)
				rng := clientStream(f.M.Cluster, "sun", region, cl)
				f.M.Cluster.Sim.Spawn(fmt.Sprintf("sun/%d/%s/%d", pi, region, cl), func(wp *sim.Proc) {
					defer wg.Done()
					if err := f.client(wp, rng, ri, region, hot, deadline); err != nil && firstErr == nil {
						firstErr = err
					}
				})
			}
		}
		wg.Wait(p)
	}
	return firstErr
}

// client runs the MovR op mix in a closed loop until the phase deadline.
func (f *FollowTheSun) client(wp *sim.Proc, rng *rand.Rand, ri int, region simnet.Region, hot bool, deadline sim.Time) error {
	m := f.M
	s := m.session(region)
	ps := m.prepare(s)
	var firstErr error
	for wp.Now() < deadline {
		start, err := m.op(wp, s, ps, rng, ri)
		lat := wp.Now().Sub(start)
		f.Windows.Record(start, lat, err)
		if hot {
			f.HotWindows.Record(start, lat, err)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		wp.Sleep(sunThink)
	}
	return firstErr
}

// HotspotPhase is one phase of a migrating-hotspot run: the hot key window
// starts at key Start for Duration of virtual time.
type HotspotPhase struct {
	Start    int
	Duration sim.Duration
}

// The MigratingHotspot mix: hotspotHotFrac of the operations land in the hot
// window, a tenth of the keys wide, and hotspotWriteFrac of them update
// (YCSB-B's mix). hotspotClients closed-loop clients run at the gateway of
// the cluster's first region, each pausing hotspotThink between operations.
const (
	hotspotHotFrac   = 0.9
	hotspotWriteFrac = 0.05
	hotspotClients   = 3
	hotspotThink     = 300 * sim.Millisecond
)

// MigratingHotspot drives YCSB-style reads/updates where most operations
// land in a key window that jumps between phases. Load-based splitting must
// carve the hot window out of its range (and merging should eventually
// reclaim the cold remnants).
type MigratingHotspot struct {
	Y *YCSB

	// Windows collects every operation.
	Windows *WindowedRecorder

	// PhaseStarts records the virtual time each phase began, in order.
	PhaseStarts []sim.Time
}

// NewMigratingHotspot wraps an already set-up YCSB harness.
func NewMigratingHotspot(y *YCSB, windowWidth sim.Duration) *MigratingHotspot {
	return &MigratingHotspot{
		Y:       y,
		Windows: NewWindowedRecorder(windowWidth),
	}
}

// Run executes the phases sequentially, spawning the clients each phase and
// joining them at the phase boundary.
func (h *MigratingHotspot) Run(p *sim.Proc, phases []HotspotPhase) error {
	region := h.Y.Cluster.Regions()[0]
	var firstErr error
	for pi, ph := range phases {
		h.PhaseStarts = append(h.PhaseStarts, p.Now())
		deadline := p.Now().Add(ph.Duration)
		wg := sim.NewWaitGroup(h.Y.Cluster.Sim)
		for cl := 0; cl < hotspotClients; cl++ {
			hotStart := ph.Start
			wg.Add(1)
			rng := clientStream(h.Y.Cluster, "hotspot", region, cl)
			h.Y.Cluster.Sim.Spawn(fmt.Sprintf("hotspot/%d/%s/%d", pi, region, cl), func(wp *sim.Proc) {
				defer wg.Done()
				if err := h.client(wp, rng, region, hotStart, deadline); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		}
		wg.Wait(p)
	}
	return firstErr
}

// client runs the read/update mix in a closed loop until the phase deadline,
// on a session of its own: a session runs one statement at a time.
func (h *MigratingHotspot) client(wp *sim.Proc, rng *rand.Rand, region simnet.Region, hotStart int, deadline sim.Time) error {
	y := h.Y
	ops := y.prepare(y.newSession(region))
	windowKeys := max(y.Cfg.RecordCount/10, 1)
	op := 0
	var firstErr error
	for wp.Now() < deadline {
		op++
		var key int
		if rng.Float64() < hotspotHotFrac {
			key = hotStart + rng.Intn(windowKeys)
			if key >= y.Cfg.RecordCount {
				key = y.Cfg.RecordCount - 1
			}
		} else {
			key = rng.Intn(y.Cfg.RecordCount)
		}
		start := wp.Now()
		var err error
		if rng.Float64() < hotspotWriteFrac {
			err = y.doUpdate(wp, ops, key, op)
		} else {
			err = y.doRead(wp, ops, key)
		}
		h.Windows.Record(start, wp.Now().Sub(start), err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		wp.Sleep(hotspotThink)
	}
	return firstErr
}
