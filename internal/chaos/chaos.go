// Package chaos implements a deterministic nemesis harness in the spirit of
// Jepsen: randomized faults (node crashes, region failures, symmetric and
// one-way partitions, slow links) are injected into a running cluster from
// the seeded "chaos/nemesis" stream, while the load-based allocator splits
// ranges and moves leases, a migrator relocates the bank range's replicas,
// and concurrent workloads check invariants — bank-sum conservation in KV
// and in SQL on a REGIONAL BY ROW table, single-key linearizability,
// closed-timestamp monotonicity, placement, locality changes that leave
// their table intact — and a prober measures virtual-time recovery (RTO).
// Every run has all of it; only the seed and the number of faults vary.
//
// Because every source of randomness is a stream of the seed and all state
// iteration is order-stable, a fixed seed reproduces the exact same fault
// schedule and invariant results on every run. The nemesis's stream is its
// own, so a seed injects the same faults on every commit.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs/export"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// Options parameterizes a chaos run.
type Options struct {
	Seed   int64
	Faults int // fault/heal pairs to inject (2*Faults events total; 0 = none)

	// ExportDir, when non-empty, writes the run's observability state after
	// the run finishes: chaos_metrics.prom (OpenMetrics timeseries),
	// chaos_registry.prom (point-in-time dump) and chaos_traces.json
	// (Jaeger UI upload format). Same seed, same bytes.
	ExportDir string
	// Verbose prints events as they are injected.
	Verbose bool
}

const (
	// meanHold and meanPause shape the schedule: each fault holds for a
	// uniform duration in [mean/2, 3*mean/2], with a similar pause between
	// faults. One fault is active at a time, so quorum is never lost on a
	// REGION-survivable range.
	meanHold  = 4 * sim.Second
	meanPause = 6 * sim.Second
	// movers is the number of KV bank-transfer workers.
	movers = 3
	// The bank has accounts rows of initialBalance each; transfers
	// conserve the total. The SQL bank has the same accounts.
	accounts       = 8
	initialBalance = 100
	// settle is quiet time after the last heal before final audits.
	settle = 15 * sim.Second
	// rtoThreshold classifies a probe as an outage: any successful probe
	// whose end-to-end latency exceeds it records a recovery interval.
	rtoThreshold = 1500 * sim.Millisecond
	// elasticRun is how long the workloads, with the allocator and the
	// migrator, run on after the nemesis finishes.
	elasticRun = 90 * sim.Second
)

// EventKind enumerates nemesis actions.
type EventKind int8

// Nemesis event kinds: each fault kind has a matching heal.
const (
	EvCrashNode EventKind = iota
	EvRestartNode
	EvFailRegion
	EvRecoverRegion
	EvPartitionPair
	EvHealPair
	EvPartitionOneWay
	EvHealOneWay
	EvSlowLink
	EvHealLink
)

func (k EventKind) String() string {
	switch k {
	case EvCrashNode:
		return "crash"
	case EvRestartNode:
		return "restart"
	case EvFailRegion:
		return "fail-region"
	case EvRecoverRegion:
		return "recover-region"
	case EvPartitionPair:
		return "partition"
	case EvHealPair:
		return "heal-partition"
	case EvPartitionOneWay:
		return "partition-oneway"
	case EvHealOneWay:
		return "heal-oneway"
	case EvSlowLink:
		return "slow-link"
	case EvHealLink:
		return "heal-link"
	}
	return "unknown"
}

// Event is one nemesis action at a virtual time.
type Event struct {
	At     sim.Time
	Kind   EventKind
	A, B   simnet.NodeID
	Region simnet.Region
	Extra  sim.Duration // slow-link latency
}

func (e Event) String() string {
	switch e.Kind {
	case EvFailRegion, EvRecoverRegion:
		return fmt.Sprintf("t=%v %s %s", e.At, e.Kind, e.Region)
	case EvCrashNode, EvRestartNode:
		return fmt.Sprintf("t=%v %s n%d", e.At, e.Kind, e.A)
	case EvSlowLink:
		return fmt.Sprintf("t=%v %s n%d→n%d +%v", e.At, e.Kind, e.A, e.B, e.Extra)
	case EvPartitionOneWay, EvHealOneWay:
		return fmt.Sprintf("t=%v %s n%d→n%d", e.At, e.Kind, e.A, e.B)
	default:
		return fmt.Sprintf("t=%v %s n%d↔n%d", e.At, e.Kind, e.A, e.B)
	}
}

// linOp is one successful operation on a register: its virtual start and
// end, and the value it wrote or read.
type linOp struct {
	start, end sim.Time
	val        int
	write      bool
}

// register is a single-writer register under the linearizability check. Its
// writer writes strictly increasing integers, so "sees that write or a later
// one" is "reads a value at least as large".
type register struct {
	key mvcc.Key
	ops []linOp
}

// harness carries the run's shared state.
type harness struct {
	opts    Options
	c       *cluster.Cluster
	rep     *Report
	stopped bool

	// activeFault tracks the currently held fault so the prober and other
	// helpers can pick gateways outside the blast radius.
	activeKind   EventKind
	activeRegion simnet.Region
	activeNode   simnet.NodeID

	// lin, global and raw are the registers checkLinearizability covers:
	// the LAG register every region reads, the GLOBAL register (§6.2), and
	// the GLOBAL register read from a second node of its writer's region
	// right after each write returns. globalWriter is the node whose clock
	// leads rawReader's by the most of any two nodes in one region.
	lin, global, raw        register
	globalWriter, rawReader simnet.NodeID

	// bankRange is the bank range's ID; the elastic migrator relocates it
	// back and forth so the placement checker sees live migrations.
	bankRange kv.RangeID

	// closedLast holds the closed-timestamp monitor's high-water baseline
	// per (node, range), together with the replica it was read from.
	closedLast map[string]closedSample

	// catalog is the SQL catalog of the database bank (see setupSQL), and
	// sqlLoaded the instant its rows were all in.
	catalog   *sql.Catalog
	sqlLoaded sim.Time
}

// closedSample is one closed-timestamp reading. Monotonicity is per replica
// incarnation: a replica reborn from its checkpoint after a crash, or
// removed and re-created on the same node by a relocation (closed = 0 until
// its initial snapshot lands), is a new *kv.Replica and starts a new
// baseline.
type closedSample struct {
	rep *kv.Replica
	ts  hlc.Timestamp
}

// Run executes a chaos schedule and returns the report. The error is only
// non-nil for setup failures; invariant violations are reported in Report.
func Run(opts Options) (*Report, error) {
	return runOn(newCluster(opts), opts)
}

// newCluster builds the cluster a chaos run drives.
func newCluster(opts Options) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Seed:      opts.Seed,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
		// Tracing is passive over virtual time, so it cannot perturb the
		// fault schedule; the span-tree hash doubles as a determinism check.
		Tracing: true,
		// Crashes are honest: a crashed node loses its volatile state and
		// restarts from its simulated disk (WAL + checkpoints).
		Durability: true,
		// Sampling feeds the virtual-time timeseries store; like tracing it is
		// read-only over the schedule, so the fault timeline is unchanged.
		// 2s rollup buckets resolve individual fault windows (mean hold 4s).
		Sampling:     true,
		SampleBucket: 2 * sim.Second,
		// The load-based split/merge/lease queue, tuned hot enough that the
		// chaos-scale traffic triggers it while the nemesis runs.
		LoadBased: true,
		Load: kv.LoadConfig{
			Interval: 5 * sim.Second, HalfLife: 10 * sim.Second,
			SplitQPS: 30, MergeQPS: 2, MergeTicks: 2,
		},
	})
}

// runOn executes a chaos schedule on c, which newCluster built from opts.
func runOn(c *cluster.Cluster, opts Options) (*Report, error) {
	h := &harness{
		opts:       opts,
		c:          c,
		activeKind: -1,
		closedLast: map[string]closedSample{},
		lin:        register{key: mvcc.Key("lin/x")},
		global:     register{key: mvcc.Key("glob/g")},
		raw:        register{key: mvcc.Key("glob/r")},
		rep: &Report{
			Seed:         opts.Seed,
			BankExpected: accounts * initialBalance,
		},
	}

	// Bank range: REGION-survivable, 5 voters spread 2/2/1 so any single
	// region failure keeps quorum.
	bankCfg := zones.Config{
		NumReplicas: 5, NumVoters: 5,
		VoterConstraints: map[simnet.Region]int{
			simnet.USEast1: 2, simnet.EuropeW2: 2, simnet.AsiaNE1: 1,
		},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	bankDesc, err := c.CreateRangeWithZoneConfig([]byte("acct/"), []byte("acct0"), bankCfg, kv.ClosedTSLag)
	if err != nil {
		return nil, err
	}
	h.bankRange = bankDesc.RangeID
	// The bank's second half: ZONE-survivable and homed in Europe, so a
	// transfer from a low account to a high one writes a remote account
	// after its local record, a write that replicates before it replies
	// (internal/txn replicateFirst). Its quorum is lost while Europe is
	// down, and so are the transfers and audits that touch it.
	euBankCfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.EuropeW2: 3},
		Constraints:      map[simnet.Region]int{simnet.USEast1: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.EuropeW2},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("acct-eu/"), []byte("acct-eu0"), euBankCfg, kv.ClosedTSLag); err != nil {
		return nil, err
	}
	// Linearizability register: same survivability, home in Europe so the
	// two ranges fail over in different fault scenarios.
	linCfg := zones.Config{
		NumReplicas: 5, NumVoters: 5,
		VoterConstraints: map[simnet.Region]int{
			simnet.EuropeW2: 2, simnet.AsiaNE1: 2, simnet.USEast1: 1,
		},
		LeasePreferences: []simnet.Region{simnet.EuropeW2},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("lin/"), []byte("lin0"), linCfg, kv.ClosedTSLag); err != nil {
		return nil, err
	}
	// GLOBAL registers: the leading closed-timestamp policy, so every
	// replica serves present-time reads and every write commits in the
	// future and waits out its timestamp before it returns (paper §6.2). The
	// lease stays in the writer's region, which holds two voters.
	h.globalWriter, h.rawReader = h.widestSkewPair()
	wloc, _ := c.Topo.LocalityOf(h.globalWriter)
	globCfg := zones.Config{NumReplicas: 5, NumVoters: 5, VoterConstraints: map[simnet.Region]int{},
		LeasePreferences: []simnet.Region{wloc.Region}}
	others := []int{2, 1}
	for _, r := range c.Regions() {
		if r == wloc.Region {
			globCfg.VoterConstraints[r] = 2
		} else {
			globCfg.VoterConstraints[r], others = others[0], others[1:]
		}
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("glob/"), []byte("glob0"), globCfg, kv.ClosedTSLead); err != nil {
		return nil, err
	}
	// Elastic range: one voter per region, NO lease preferences, so the
	// load queue is free to chase its traffic with the lease.
	elasCfg := zones.Config{
		NumReplicas: 3, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{
			simnet.USEast1: 1, simnet.EuropeW2: 1, simnet.AsiaNE1: 1,
		},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("elas/"), []byte("elas0"), elasCfg, kv.ClosedTSLag); err != nil {
		return nil, err
	}

	var setupErr error
	c.Sim.Spawn("chaos", func(p *sim.Proc) {
		defer c.Sim.Stop()
		setupErr = h.run(p)
	})
	// Generous virtual budget; the orchestrator stops the sim when done.
	budget := sim.Duration(opts.Faults+2)*(meanHold+meanPause)*2 + 5*sim.Minute
	c.Sim.RunFor(budget)
	h.rep.Elapsed = sim.Duration(c.Sim.Now())
	h.rep.LeaseAcquisitions = h.leaseAcquisitions()
	h.rep.EpochBumps = c.Liveness.EpochBumps
	h.rep.SpanHash = c.Tracer.Hash()
	h.rep.LoadSplits = c.Admin.LoadSplits
	h.rep.LoadMerges = c.Admin.Merges
	h.rep.LeaseMoves = c.Admin.LeaseMoves
	h.rep.ApplyErrors = c.ApplyErrors()
	if h.rep.Restarts > 0 {
		h.rep.RestartRecovery = c.Metrics.Histogram("recovery.duration").Summary()
	}
	for _, name := range c.Metrics.Histograms() {
		if strings.HasPrefix(name, "chaos.rto.") {
			h.rep.RTOByFault = append(h.rep.RTOByFault,
				fmt.Sprintf("%s %s", strings.TrimPrefix(name, "chaos.rto."), c.Metrics.Histogram(name).Summary()))
		}
	}
	h.rep.FaultWindows = h.faultWindows()
	h.checkLinearizability()
	if setupErr == nil && opts.ExportDir != "" {
		setupErr = export.WriteDir(opts.ExportDir, "chaos_", c.TSDB, c.Metrics, c.Tracer.Traces())
	}
	return h.rep, setupErr
}

// faultWindows derives one per-fault latency trajectory from the merged
// chaos.probe.latency timeseries: the tail (per-bucket max ≈ p99 at probe
// cadence) before the fault, its peak while the fault held (plus a short
// grace for the heal to take), and after recovery. A window "spikes" when
// its peak crosses the RTO threshold and "re-converges" when the
// post-recovery tail drops back under it — the trajectory-shaped claim the
// paper makes for fault tolerance, asserted on the curve itself.
func (h *harness) faultWindows() []FaultWindow {
	buckets := h.c.TSDB.Merged("chaos.probe.latency")
	if len(buckets) == 0 {
		return nil
	}
	const (
		grace    = 3 * sim.Second  // heal propagation before "after" starts
		preSpan  = 10 * sim.Second // baseline lookback
		postSpan = 12 * sim.Second // re-convergence observation span
	)
	tailIn := func(from, to sim.Time) (sim.Duration, int64) {
		var peak, n int64
		for _, ba := range buckets {
			if ba.Start >= from && ba.Start < to {
				n += ba.Count
				if ba.Max > peak {
					peak = ba.Max
				}
			}
		}
		return sim.Duration(peak), n
	}
	evs := h.rep.Events
	var out []FaultWindow
	for i := 0; i+1 < len(evs); i += 2 {
		fault, heal := evs[i], evs[i+1]
		afterStart := heal.At.Add(grace)
		afterEnd := afterStart.Add(postSpan)
		if i+2 < len(evs) && evs[i+2].At < afterEnd {
			afterEnd = evs[i+2].At
		}
		fw := FaultWindow{Fault: fault, Healed: heal.At}
		fw.PreP99, _ = tailIn(fault.At.Add(-preSpan), fault.At)
		fw.PeakP99, fw.Samples = tailIn(fault.At, afterStart)
		var afterN int64
		fw.AfterP99, afterN = tailIn(afterStart, afterEnd)
		fw.Spiked = fw.PeakP99 >= rtoThreshold
		fw.Reconverged = !fw.Spiked || (afterN > 0 && fw.AfterP99 < rtoThreshold)
		out = append(out, fw)
	}
	return out
}

// acctKey returns the i-th bank account key: the first half of the accounts
// live on the bank range, the rest on its Europe-homed second range.
func (h *harness) acctKey(i int) mvcc.Key {
	if i < accounts/2 {
		return mvcc.Key(fmt.Sprintf("acct/%03d", i))
	}
	return mvcc.Key(fmt.Sprintf("acct-eu/%03d", i))
}

// widestSkewPair returns the two nodes of one region whose clocks differ the
// most, the leading one first. A read from the trailing node that starts one
// hop after a commit-waited write returned on the leading one reads below
// the write's timestamp: only the uncertainty interval makes it see the
// write.
func (h *harness) widestSkewPair() (lead, trail simnet.NodeID) {
	var best sim.Duration = -1
	for _, r := range h.c.Regions() {
		nodes := h.c.Topo.NodesInRegion(r)
		for _, a := range nodes {
			for _, b := range nodes {
				if d := h.c.ClockSkew(a) - h.c.ClockSkew(b); d > best {
					best, lead, trail = d, a, b
				}
			}
		}
	}
	return lead, trail
}

// healthyGateway picks the lowest-ID live node outside the active fault's
// blast radius; iteration over sorted node IDs keeps it deterministic.
func (h *harness) healthyGateway(now sim.Time) simnet.NodeID {
	for _, id := range h.c.Topo.Nodes() {
		if h.c.Net.NodeDown(id) {
			continue
		}
		if h.activeKind == EvFailRegion {
			if loc, ok := h.c.Topo.LocalityOf(id); ok && loc.Region == h.activeRegion {
				continue
			}
		}
		if !h.c.Liveness.Live(id, now) {
			continue
		}
		return id
	}
	return h.c.Topo.Nodes()[0]
}

func (h *harness) coordAt(gw simnet.NodeID) *txn.Coordinator {
	return txn.NewCoordinator(h.c.Stores[gw], h.c.Senders[gw])
}

func (h *harness) run(p *sim.Proc) error {
	c, rep := h.c, h.rep
	if err := c.Admin.WaitAllReady(p); err != nil {
		return err
	}
	p.Sleep(1 * sim.Second)

	// Seed the bank.
	seedCo := h.coordAt(c.GatewayFor(simnet.USEast1))
	if err := seedCo.Run(p, func(tx *txn.Txn) error {
		var kvs []mvcc.KeyValue
		for i := 0; i < accounts; i++ {
			kvs = append(kvs, mvcc.KeyValue{Key: h.acctKey(i), Value: mvcc.Value(fmt.Sprintf("%d", initialBalance))})
		}
		return tx.PutParallel(p, kvs, nil)
	}); err != nil {
		return fmt.Errorf("chaos: bank seed: %w", err)
	}
	for _, g := range []*register{&h.lin, &h.global, &h.raw} {
		if err := seedCo.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, g.key, mvcc.Value("0"))
		}); err != nil {
			return fmt.Errorf("chaos: %s seed: %w", g.key, err)
		}
	}
	if err := h.setupSQL(p); err != nil {
		return err
	}

	wg := sim.NewWaitGroup(c.Sim)
	h.spawnMovers(wg)
	h.spawnSQLMovers(wg)
	h.spawnSQLAuditor(wg)
	h.spawnCycler(wg)
	h.spawnLinWriter(wg)
	h.spawnLinReaders(wg)
	h.spawnGlobalWorkloads(wg)
	h.spawnProber(wg)
	h.spawnAuditor(wg)
	stopMon := h.startClosedTSMonitor()
	stopPlacement := h.startPlacementMonitor()
	h.spawnElasticWriters(wg)
	h.spawnMigrator(wg)

	h.nemesis(p)
	// Keep the workloads (and the placement checker watching the migrator's
	// relocations) running past the nemesis window.
	p.Sleep(elasticRun)
	p.Sleep(settle)
	h.stopped = true
	wg.Wait(p)
	stopMon()
	stopPlacement()

	// Final audit from a fresh coordinator; everything is healed, so this
	// must succeed (with a little patience for stragglers).
	var finalErr error
	for i := 0; i < 5; i++ {
		total := 0
		finalErr = h.coordAt(h.healthyGateway(p.Now())).Run(p, func(tx *txn.Txn) error {
			total = 0
			for a := 0; a < accounts; a++ {
				v, err := tx.Get(p, h.acctKey(a))
				if err != nil {
					return err
				}
				n := 0
				fmt.Sscanf(string(v), "%d", &n)
				total += n
			}
			return nil
		})
		if finalErr == nil {
			rep.BankFinal = total
			rep.FinalAuditOK = total == rep.BankExpected
			break
		}
		p.Sleep(2 * sim.Second)
	}
	if finalErr != nil {
		return fmt.Errorf("chaos: final audit: %w", finalErr)
	}
	return h.finalSQLAudit(p)
}

// --- Nemesis ---

// uniformAround returns a uniform duration in [mean/2, 3*mean/2].
func uniformAround(rng interface{ Int63n(int64) int64 }, mean sim.Duration) sim.Duration {
	half := int64(mean) / 2
	return sim.Duration(half + rng.Int63n(2*half+1))
}

// nemesis injects opts.Faults sequential fault/heal pairs.
func (h *harness) nemesis(p *sim.Proc) {
	c, opts := h.c, h.opts
	rng := c.Sim.Stream("chaos/nemesis")
	nodes := c.Topo.Nodes()
	regions := c.Regions()
	for i := 0; i < opts.Faults; i++ {
		p.Sleep(uniformAround(rng, meanPause))
		var fault, heal Event
		switch rng.Intn(5) {
		case 0:
			n := nodes[rng.Intn(len(nodes))]
			fault = Event{Kind: EvCrashNode, A: n}
			heal = Event{Kind: EvRestartNode, A: n}
		case 1:
			r := regions[rng.Intn(len(regions))]
			fault = Event{Kind: EvFailRegion, Region: r}
			heal = Event{Kind: EvRecoverRegion, Region: r}
		case 2:
			a, b := h.pickPair(rng, nodes)
			fault = Event{Kind: EvPartitionPair, A: a, B: b}
			heal = Event{Kind: EvHealPair, A: a, B: b}
		case 3:
			a, b := h.pickPair(rng, nodes)
			fault = Event{Kind: EvPartitionOneWay, A: a, B: b}
			heal = Event{Kind: EvHealOneWay, A: a, B: b}
		case 4:
			a, b := h.pickPair(rng, nodes)
			extra := 50*sim.Millisecond + sim.Duration(rng.Int63n(int64(450*sim.Millisecond)))
			fault = Event{Kind: EvSlowLink, A: a, B: b, Extra: extra}
			heal = Event{Kind: EvHealLink, A: a, B: b}
		}
		h.apply(p, fault)
		p.Sleep(uniformAround(rng, meanHold))
		h.apply(p, heal)
	}
}

func (h *harness) pickPair(rng interface{ Intn(int) int }, nodes []simnet.NodeID) (simnet.NodeID, simnet.NodeID) {
	a := nodes[rng.Intn(len(nodes))]
	b := nodes[rng.Intn(len(nodes))]
	for b == a {
		b = nodes[rng.Intn(len(nodes))]
	}
	return a, b
}

// apply executes an event against the network and records it.
func (h *harness) apply(p *sim.Proc, e Event) {
	e.At = p.Now()
	switch e.Kind {
	case EvCrashNode:
		h.c.CrashNode(e.A)
		h.activeKind, h.activeNode = e.Kind, e.A
	case EvRestartNode:
		stats, err := h.c.RestartNode(p, e.A)
		if err != nil {
			// Unrecoverable disk state is a harness invariant violation,
			// not a tolerated fault; report it loudly.
			h.rep.RecoveryFailures++
		} else {
			h.rep.Restarts++
			h.rep.RecoveryTimes = append(h.rep.RecoveryTimes, stats.Duration)
		}
		h.activeKind = -1
	case EvFailRegion:
		h.c.Net.FailRegion(e.Region)
		h.activeKind, h.activeRegion = e.Kind, e.Region
		h.rep.RegionFailures++
	case EvRecoverRegion:
		h.c.Net.RecoverRegion(e.Region)
		h.activeKind = -1
	case EvPartitionPair:
		h.c.Net.Partition(e.A, e.B)
		h.activeKind = e.Kind
	case EvHealPair:
		h.c.Net.Heal(e.A, e.B)
		h.activeKind = -1
	case EvPartitionOneWay:
		h.c.Net.PartitionOneWay(e.A, e.B)
		h.activeKind = e.Kind
	case EvHealOneWay:
		h.c.Net.HealOneWay(e.A, e.B)
		h.activeKind = -1
	case EvSlowLink:
		h.c.Net.SlowLink(e.A, e.B, e.Extra)
		h.activeKind = e.Kind
	case EvHealLink:
		h.c.Net.HealLink(e.A, e.B)
		h.activeKind = -1
	}
	h.rep.Events = append(h.rep.Events, e)
	if h.opts.Verbose {
		fmt.Println("  " + e.String())
	}
}

// --- Workloads ---

// spawnMovers starts bank-transfer workers, one per region round-robin.
// Transfer errors are tolerated (the nemesis guarantees unavailability
// windows); the invariant is that the money supply never changes.
func (h *harness) spawnMovers(wg *sim.WaitGroup) {
	regions := h.c.Regions()
	for m := 0; m < movers; m++ {
		m := m
		region := regions[m%len(regions)]
		wg.Add(1)
		h.c.Sim.Spawn(fmt.Sprintf("chaos/mover%d", m), func(p *sim.Proc) {
			defer wg.Done()
			gw := h.c.GatewayFor(region)
			co := h.coordAt(gw)
			rng := h.c.Sim.Stream(p.Name())
			for !h.stopped {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					p.Sleep(50 * sim.Millisecond)
					continue
				}
				if from > to {
					// Ordered locking avoids deadlock aborts by
					// construction; the deadlock detector is exercised
					// plenty by the rest of the suite.
					from, to = to, from
				}
				amount := 1 + rng.Intn(5)
				err := co.Run(p, func(tx *txn.Txn) error {
					av, err := tx.GetForUpdate(p, h.acctKey(from))
					if err != nil {
						return err
					}
					bv, err := tx.GetForUpdate(p, h.acctKey(to))
					if err != nil {
						return err
					}
					a, b := 0, 0
					fmt.Sscanf(string(av), "%d", &a)
					fmt.Sscanf(string(bv), "%d", &b)
					if a < amount {
						return nil
					}
					if err := tx.Put(p, h.acctKey(from), mvcc.Value(fmt.Sprintf("%d", a-amount))); err != nil {
						return err
					}
					return tx.Put(p, h.acctKey(to), mvcc.Value(fmt.Sprintf("%d", b+amount)))
				})
				if err != nil {
					h.rep.TransfersFailed++
					p.Sleep(500 * sim.Millisecond)
				} else {
					h.rep.TransfersOK++
					p.Sleep(200 * sim.Millisecond)
				}
			}
		})
	}
}

// spawnLinWriter starts the single writer of the linearizability register:
// it writes strictly increasing values, only advancing after a confirmed
// commit. An ambiguous failure (commit may or may not have applied) retries
// the same value, which is idempotent for monotonicity.
func (h *harness) spawnLinWriter(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/lin-writer", func(p *sim.Proc) {
		defer wg.Done()
		next := 1
		for !h.stopped {
			co := h.coordAt(h.healthyGateway(p.Now()))
			if h.write(p, co, &h.lin, next) {
				next++
				p.Sleep(300 * sim.Millisecond)
			} else {
				p.Sleep(500 * sim.Millisecond)
			}
		}
	})
}

// write writes val to g through co and records it if it committed.
func (h *harness) write(p *sim.Proc, co *txn.Coordinator, g *register, val int) bool {
	start := p.Now()
	err := co.Run(p, func(tx *txn.Txn) error {
		return tx.Put(p, g.key, mvcc.Value(strconv.Itoa(val)))
	})
	if err != nil {
		return false
	}
	g.ops = append(g.ops, linOp{start: start, end: p.Now(), val: val, write: true})
	return true
}

// read reads g through co and records what it saw if the read succeeded.
// A non-nil beside is a key of g's range the read's transaction writes
// first: the write rides the read's batch, which the DistSender splits.
func (h *harness) read(p *sim.Proc, co *txn.Coordinator, g *register, beside mvcc.Key) {
	start := p.Now()
	var raw mvcc.Value
	err := co.Run(p, func(tx *txn.Txn) error {
		if beside != nil {
			if err := tx.Put(p, beside, mvcc.Value("1")); err != nil {
				return err
			}
		}
		v, err := tx.Get(p, g.key)
		raw = v
		return err
	})
	if err == nil {
		val, _ := strconv.Atoi(string(raw))
		g.ops = append(g.ops, linOp{start: start, end: p.Now(), val: val})
	}
}

// spawnLinReaders starts one consistent reader per region recording
// (start, end, value) windows for the linearizability check.
func (h *harness) spawnLinReaders(wg *sim.WaitGroup) {
	for i, region := range h.c.Regions() {
		region := region
		wg.Add(1)
		h.c.Sim.Spawn(fmt.Sprintf("chaos/lin-reader%d", i), func(p *sim.Proc) {
			defer wg.Done()
			co := h.coordAt(h.c.GatewayFor(region))
			for !h.stopped {
				h.read(p, co, &h.lin, nil)
				p.Sleep(400 * sim.Millisecond)
			}
		})
	}
}

// spawnGlobalWorkloads starts the two GLOBAL registers' clients, which fail
// the check if either of the paper's two timing mechanisms (§6.2) is
// missing:
//   - global: one writer on globalWriter and a reader on a node in every
//     region. A write returns only once its future timestamp has passed on
//     the writer's clock (commit wait); without that wait, a read that
//     starts after the write returned reads below the write's timestamp by
//     more than the uncertainty interval, and misses it. Every other read
//     runs in a transaction that first writes the reader's own scratch key
//     of the range: the write rides the read's batch, so the follower read
//     goes to the nearest replica and the write to the leaseholder.
//   - raw: one client that writes on globalWriter and, one network hop after
//     the write returned, reads through rawReader in the same region. The
//     hop (~1 ms) is shorter than the gap between the two clocks (up to the
//     2 ms skew spread), so the read starts below the write's timestamp and
//     sees the write only through its uncertainty interval.
//
// A write to a LAG range would not do for raw: its timestamp trails real
// time by its commit latency, at least the 2 ms in-region round trip, which
// already covers any skew. Neither client runs while its nodes are down.
func (h *harness) spawnGlobalWorkloads(wg *sim.WaitGroup) {
	writer := h.coordAt(h.globalWriter)
	down := func(ids ...simnet.NodeID) bool {
		for _, id := range ids {
			if h.c.Net.NodeDown(id) {
				return true
			}
		}
		return false
	}
	wg.Add(2)
	h.c.Sim.Spawn("chaos/global-writer", func(p *sim.Proc) {
		defer wg.Done()
		next := 1
		for !h.stopped {
			if !down(h.globalWriter) && h.write(p, writer, &h.global, next) {
				next++
				p.Sleep(200 * sim.Millisecond)
			} else {
				p.Sleep(500 * sim.Millisecond)
			}
		}
	})
	hop := h.c.Topo.OneWay(h.globalWriter, h.rawReader)
	reader := h.coordAt(h.rawReader)
	h.c.Sim.Spawn("chaos/raw-client", func(p *sim.Proc) {
		defer wg.Done()
		next := 1
		for !h.stopped {
			if !down(h.globalWriter, h.rawReader) && h.write(p, writer, &h.raw, next) {
				next++
				p.Sleep(hop)
				h.read(p, reader, &h.raw, nil)
				p.Sleep(300 * sim.Millisecond)
			} else {
				p.Sleep(500 * sim.Millisecond)
			}
		}
	})
	for i, region := range h.c.Regions() {
		region := region
		wg.Add(1)
		scratch := mvcc.Key(fmt.Sprintf("glob/s%d", i))
		h.c.Sim.Spawn(fmt.Sprintf("chaos/global-reader%d", i), func(p *sim.Proc) {
			defer wg.Done()
			gw := h.c.GatewayFor(region)
			co := h.coordAt(gw)
			for n := 0; !h.stopped; n++ {
				if !down(gw) {
					var beside mvcc.Key
					if n%2 == 1 {
						beside = scratch
					}
					h.read(p, co, &h.global, beside)
				}
				p.Sleep(100 * sim.Millisecond)
			}
		})
	}
}

// spawnProber measures availability and recovery time: a periodic write
// through a gateway outside the fault's blast radius. Probe latency above
// rtoThreshold records a recovery interval (the DistSender rides out the
// outage internally, so the first slow probe's latency IS the RTO).
func (h *harness) spawnProber(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/prober", func(p *sim.Proc) {
		defer wg.Done()
		seq := 0
		for !h.stopped {
			gw := h.healthyGateway(p.Now())
			co := h.coordAt(gw)
			start := p.Now()
			seq++
			// The fault blamed for a slow probe is the one active when the
			// probe started; by completion it may already have healed.
			kind := "none"
			if h.activeKind >= 0 {
				kind = h.activeKind.String()
			}
			sp, probeDone := h.c.Tracer.StartRootIn(p, "chaos.probe")
			sp.SetTagInt("gateway", int64(gw)).SetTagInt("seq", int64(seq)).SetTag("fault", kind)
			err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, mvcc.Key("acct/probe"), mvcc.Value(fmt.Sprintf("%d", seq)))
			})
			lat := p.Now().Sub(start)
			if err != nil {
				sp.SetError(err)
			}
			probeDone()
			// Bucket by completion time: a probe that rode out an outage
			// lands its latency in the fault window, not before it.
			h.c.TSDB.Observe("chaos.probe.latency", int(gw), p.Now(), int64(lat))
			if err != nil {
				h.rep.ProbesFailed++
				h.rep.Recoveries = append(h.rep.Recoveries, lat)
				h.recordRTO(kind, lat)
				if h.opts.Verbose {
					fmt.Printf("  t=%v probe via n%d FAILED after %v: %v\n", p.Now(), gw, lat, err)
				}
			} else {
				h.rep.ProbesOK++
				if lat > rtoThreshold {
					h.rep.Recoveries = append(h.rep.Recoveries, lat)
					h.recordRTO(kind, lat)
					if h.opts.Verbose {
						fmt.Printf("  t=%v probe via n%d recovered after %v\n", p.Now(), gw, lat)
					}
				}
			}
			p.Sleep(500 * sim.Millisecond)
		}
	})
}

// recordRTO files one recovery interval under the blamed fault kind and the
// all-faults aggregate.
func (h *harness) recordRTO(kind string, lat sim.Duration) {
	h.c.Metrics.Histogram("chaos.rto." + kind).RecordDuration(lat)
	h.c.Metrics.Histogram("chaos.rto.all").RecordDuration(lat)
}

// spawnAuditor runs periodic bank-sum audits during the chaos; failed reads
// are tolerated, wrong sums are invariant violations.
func (h *harness) spawnAuditor(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/auditor", func(p *sim.Proc) {
		defer wg.Done()
		for !h.stopped {
			co := h.coordAt(h.healthyGateway(p.Now()))
			total := 0
			err := co.Run(p, func(tx *txn.Txn) error {
				total = 0
				for a := 0; a < accounts; a++ {
					v, err := tx.Get(p, h.acctKey(a))
					if err != nil {
						return err
					}
					n := 0
					fmt.Sscanf(string(v), "%d", &n)
					total += n
				}
				return nil
			})
			if err == nil {
				h.rep.BankAudits++
				if total != h.rep.BankExpected {
					h.rep.BankAuditBad++
				}
			}
			p.Sleep(2 * sim.Second)
		}
	})
}

// startClosedTSMonitor samples every replica's closed timestamp and counts
// regressions (closed timestamps must be monotonic per replica incarnation,
// see closedSample).
func (h *harness) startClosedTSMonitor() (stop func()) {
	return h.c.Sim.Ticker(1*sim.Second, func() {
		for _, id := range h.c.Topo.Nodes() {
			st := h.c.Stores[id]
			for _, d := range h.c.Catalog.All() {
				r, ok := st.Replica(d.RangeID)
				if !ok {
					continue
				}
				h.observeClosed(fmt.Sprintf("n%d/r%d", id, d.RangeID), r, r.ClosedTimestamp())
			}
		}
	})
}

// observeClosed folds one reading into the monitor: strictly monotonic
// while the same replica answers for key, a new baseline when it changed.
func (h *harness) observeClosed(key string, r *kv.Replica, ts hlc.Timestamp) {
	h.rep.ClosedTSSamples++
	if prev := h.closedLast[key]; prev.rep == r && ts.Less(prev.ts) {
		h.rep.ClosedTSRegressions++
	}
	h.closedLast[key] = closedSample{rep: r, ts: ts}
}

// startPlacementMonitor samples every range with a registered zone config
// and validates its placement with the mid-migration relaxation: replica
// counts and region constraints must hold at every instant, including while
// a relocation is adding and removing replicas.
func (h *harness) startPlacementMonitor() (stop func()) {
	checker := &zones.Allocator{Topo: h.c.Topo}
	return h.c.Sim.Ticker(1*sim.Second, func() {
		for _, d := range h.c.Catalog.All() {
			cfg, ok := h.c.Catalog.ZoneConfig(d.RangeID)
			if !ok {
				continue
			}
			pl := zones.Placement{
				Voters:      d.Voters,
				NonVoters:   d.NonVoters,
				Leaseholder: d.Leaseholder,
			}
			h.rep.PlacementChecks++
			if err := checker.CheckPlacementDuring(cfg, pl); err != nil {
				h.rep.PlacementViolations++
				if h.rep.PlacementFirstBad == "" {
					h.rep.PlacementFirstBad = fmt.Sprintf("t=%v r%d: %v", h.c.Sim.Now(), d.RangeID, err)
				}
			}
		}
	})
}

// spawnElasticWriters drives hot single-region traffic at the elastic
// range: every operation comes from Europe, so the load queue must split
// the range under load and move its lease toward the traffic.
func (h *harness) spawnElasticWriters(wg *sim.WaitGroup) {
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		h.c.Sim.Spawn(fmt.Sprintf("chaos/elastic%d", w), func(p *sim.Proc) {
			defer wg.Done()
			gw := h.c.GatewayFor(simnet.EuropeW2)
			co := h.coordAt(gw)
			rng := h.c.Sim.Stream(p.Name())
			for !h.stopped {
				key := mvcc.Key(fmt.Sprintf("elas/%03d", rng.Intn(60)))
				err := co.Run(p, func(tx *txn.Txn) error {
					return tx.Put(p, key, mvcc.Value(fmt.Sprintf("%d", rng.Intn(1000))))
				})
				if err != nil {
					p.Sleep(200 * sim.Millisecond)
				} else {
					p.Sleep(20 * sim.Millisecond)
				}
			}
		})
	}
}

// spawnMigrator relocates the bank range back and forth between two
// placements that both satisfy its zone config (swapping which Europe nodes
// hold its two Europe voters), so replicas migrate while the movers keep
// transferring money and the placement monitor watches every intermediate
// state.
func (h *harness) spawnMigrator(wg *sim.WaitGroup) {
	wg.Add(1)
	h.c.Sim.Spawn("chaos/migrator", func(p *sim.Proc) {
		defer wg.Done()
		us := h.c.Topo.NodesInRegion(simnet.USEast1)
		eu := h.c.Topo.NodesInRegion(simnet.EuropeW2)
		asia := h.c.Topo.NodesInRegion(simnet.AsiaNE1)
		if len(us) < 2 || len(eu) < 3 || len(asia) < 1 {
			return
		}
		placements := []zones.Placement{
			{Voters: []simnet.NodeID{us[0], us[1], eu[0], eu[1], asia[0]}, Leaseholder: us[0]},
			{Voters: []simnet.NodeID{us[0], us[1], eu[1], eu[2], asia[0]}, Leaseholder: us[0]},
		}
		for i := 0; !h.stopped; i++ {
			p.Sleep(8 * sim.Second)
			if h.stopped {
				return
			}
			pl := placements[(i+1)%2]
			// Skip while any involved node is down; relocation under faults
			// is not what this workload measures.
			down := false
			for _, id := range pl.Replicas() {
				if h.c.Net.NodeDown(id) || !h.c.Liveness.Live(id, p.Now()) {
					down = true
					break
				}
			}
			if down {
				continue
			}
			desc, ok := h.c.Catalog.LookupByID(h.bankRange)
			if !ok {
				return
			}
			if err := h.c.Admin.Relocate(p, h.bankRange, pl, desc.Policy, nil); err == nil {
				h.rep.Relocations++
			}
		}
	})
}

// leaseAcquisitions sums failover lease acquisitions across replicas.
func (h *harness) leaseAcquisitions() int64 {
	var n int64
	for _, id := range h.c.Topo.Nodes() {
		for _, d := range h.c.Catalog.All() {
			if r, ok := h.c.Stores[id].Replica(d.RangeID); ok {
				n += r.LeaseAcquisitions
			}
		}
	}
	return n
}

// checkLinearizability verifies each single-writer register: a read that
// starts after an operation returned — a write, or another read — sees that
// operation's value or a later one. With increasing values that is: for any
// two successful operations a, b where b is a read and a.end < b.start,
// a.val <= b.val. Sweep in O(n log n): process reads by start time, tracking
// the max value among operations that ended before the current start.
func (h *harness) checkLinearizability() {
	for _, g := range []*register{&h.lin, &h.global, &h.raw} {
		st := RegisterStats{Key: string(g.key)}
		var byStart []linOp
		for _, op := range g.ops {
			if op.write {
				st.Writes++
			} else {
				byStart = append(byStart, op)
			}
		}
		st.Reads = len(byStart)
		byEnd := append([]linOp(nil), g.ops...)
		sort.SliceStable(byStart, func(i, j int) bool { return byStart[i].start < byStart[j].start })
		sort.SliceStable(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
		maxEnded := 0
		j := 0
		for _, r := range byStart {
			for j < len(byEnd) && byEnd[j].end < r.start {
				maxEnded = max(maxEnded, byEnd[j].val)
				j++
			}
			if r.val < maxEnded {
				st.Violations++
			}
		}
		h.rep.Registers = append(h.rep.Registers, st)
		h.rep.LinWrites += st.Writes
		h.rep.LinReads += st.Reads
		h.rep.LinViolations += st.Violations
	}
}
