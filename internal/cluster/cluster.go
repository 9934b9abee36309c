// Package cluster assembles a complete simulated mrdb cluster: a topology
// of regions/zones/nodes, one Store per node with its own skewed HLC clock,
// the shared range catalog and transaction registry, an Admin for range
// operations, and a DistSender per gateway node.
package cluster

import (
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/obs"
	"mrdb/internal/obs/tsdb"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
	"mrdb/internal/zones"
)

// RegionSpec describes one region of the cluster.
type RegionSpec struct {
	Name         simnet.Region
	Zones        int
	NodesPerZone int
}

// Config parameterizes a cluster.
type Config struct {
	Seed    int64
	Regions []RegionSpec
	// MaxOffset is the configured maximum tolerated clock skew
	// (max_clock_offset); it sizes uncertainty intervals and the
	// closed-timestamp lead of GLOBAL ranges. Default 250ms (the paper's
	// CRDB Dedicated default).
	MaxOffset sim.Duration
	// RTT, if non-nil, overrides the default Table 1 inter-region RTT
	// matrix.
	RTT map[[2]simnet.Region]sim.Duration
	// Jitter is the network latency jitter fraction; default 0.03.
	Jitter float64
	// GCTTL, when non-zero, starts the MVCC garbage-collection loop on
	// every store with this version time-to-live.
	GCTTL sim.Duration
	// LoadBased enables the allocator loop: per-range QPS tracking fed by
	// every DistSender, plus the split/merge/rebalance queue that splits
	// hot ranges at a load-weighted key, merges cold neighbors, and moves
	// leases toward traffic.
	LoadBased bool
	// Load tunes the allocator loop (zero fields take defaults).
	Load kv.LoadConfig
	// Tracing enables span recording from the start. Tracing is purely
	// passive over virtual time — it never changes the simulation schedule
	// or any latency — so it can also be switched on later with
	// Tracer.SetEnabled.
	Tracing bool
	// Sampling starts the virtual-time timeseries store (internal/obs/tsdb)
	// and its samplers: one lightweight proc per node snapshots that node's
	// state (replicas, leases held, liveness) every sampleInterval, and the
	// lowest-numbered node's sampler additionally snapshots every
	// cluster-wide registry metric under node 0. Sampling only reads state —
	// it is zero-cost in virtual time, pinned by the metamorphic tests.
	Sampling bool
	// SampleBucket overrides the tsdb rollup bucket width (default 10s);
	// each series retains the last tsdb.DefaultCapacity buckets, and holds
	// memory for the buckets it has seen, up to that many.
	SampleBucket sim.Duration
	// Durability gives every node a simulated disk: Raft state persists
	// through checksummed WALs (with fsync latency on the virtual clock),
	// the store loop checkpoints each replica before it truncates the log,
	// and Cluster.CrashNode/RestartNode model honest power loss plus
	// recovery from disk. Log truncation does not depend on it: every
	// store runs the same loop with or without a disk. Off by default so
	// the in-memory fast path (and its golden outputs) stays untouched.
	Durability bool
}

// skewSpread bounds the actual per-node clock skew: each node's clock is
// offset by a deterministic value in [-skewSpread/2, +skewSpread/2]. Real
// deployments keep actual skew far below the configured maximum.
const skewSpread = 2 * sim.Millisecond

// Cluster is a running simulated deployment.
type Cluster struct {
	Sim      *sim.Simulation
	Topo     *simnet.Topology
	Net      *simnet.Network
	Catalog  *kv.RangeCatalog
	Registry *kv.TxnRegistry
	Admin    *kv.Admin
	Liveness *kv.NodeLiveness
	Stores   map[simnet.NodeID]*kv.Store
	Senders  map[simnet.NodeID]*kv.DistSender

	// Tracer and Metrics are the cluster-wide observability sinks, shared
	// by the network, every DistSender, and every Store. The tracer starts
	// disabled unless Config.Tracing is set.
	Tracer  *obs.Tracer
	Metrics *obs.Registry

	// TSDB is the virtual-time timeseries store fed by the per-node
	// samplers when Config.Sampling is on (nil otherwise; all methods are
	// nil-safe). Harnesses may also Observe raw samples into it directly —
	// observation is passive over virtual time.
	TSDB *tsdb.DB
	// sampled is the registry's metrics as the sampler last listed them.
	sampled registrySample

	// StmtStats and Contention are the SQL-facing introspection registries:
	// per-fingerprint statement statistics recorded by sessions, and
	// contention events recorded by replicas when a request blocks on
	// another transaction's intent. Both are always on — recording is
	// passive over virtual time — and surface through the mrdb_internal
	// virtual tables.
	StmtStats  *obs.StmtStats
	Contention *obs.ContentionLog

	MaxOffset sim.Duration
	regions   []simnet.Region
	skews     map[simnet.NodeID]sim.Duration
}

// PaperRegions returns the paper's five-region topology spec (§7.1.1:
// 3 nodes per region; we spread them one per zone).
func PaperRegions() []RegionSpec {
	var out []RegionSpec
	for _, r := range simnet.Table1Regions() {
		out = append(out, RegionSpec{Name: r, Zones: 3, NodesPerZone: 1})
	}
	return out
}

// ThreeRegions returns the 3-region topology used in §7.2 (us-east1,
// europe-west2, asia-northeast1; nine nodes total).
func ThreeRegions() []RegionSpec {
	return []RegionSpec{
		{Name: simnet.USEast1, Zones: 3, NodesPerZone: 1},
		{Name: simnet.EuropeW2, Zones: 3, NodesPerZone: 1},
		{Name: simnet.AsiaNE1, Zones: 3, NodesPerZone: 1},
	}
}

// New builds and wires a cluster. Ranges are created afterwards via
// c.Admin (usually through the SQL layer).
func New(cfg Config) *Cluster {
	if cfg.MaxOffset == 0 {
		cfg.MaxOffset = 250 * sim.Millisecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.03
	}
	s := sim.New(cfg.Seed)
	topo := simnet.NewTable1Topology()
	if cfg.RTT != nil {
		topo.RTT = cfg.RTT
	}
	topo.Jitter = cfg.Jitter

	c := &Cluster{
		Sim:       s,
		Topo:      topo,
		Catalog:   kv.NewRangeCatalog(),
		Stores:    map[simnet.NodeID]*kv.Store{},
		Senders:   map[simnet.NodeID]*kv.DistSender{},
		MaxOffset: cfg.MaxOffset,
		skews:     map[simnet.NodeID]sim.Duration{},
	}
	c.Tracer = obs.NewTracer(s)
	c.Tracer.SetEnabled(cfg.Tracing)
	c.Metrics = obs.NewRegistry()
	c.StmtStats = obs.NewStmtStats()
	c.Contention = obs.NewContentionLog()
	c.Net = simnet.NewNetwork(s, topo)
	c.Net.Tracer = c.Tracer
	c.Net.Metrics = c.Metrics
	c.Registry = kv.NewTxnRegistry(s, topo)
	c.Liveness = kv.NewNodeLiveness(s)
	var loadTracker *kv.RangeLoadTracker
	if cfg.LoadBased {
		loadTracker = kv.NewRangeLoadTracker(s, cfg.Load.HalfLife)
	}

	skews := s.Stream("cluster/skew")
	id := simnet.NodeID(1)
	for _, rs := range cfg.Regions {
		c.regions = append(c.regions, rs.Name)
		for z := 0; z < rs.Zones; z++ {
			zone := simnet.Zone(fmt.Sprintf("%s-%c", rs.Name, 'a'+z))
			for n := 0; n < rs.NodesPerZone; n++ {
				topo.AddNode(id, simnet.Locality{Region: rs.Name, Zone: zone})
				// Deterministic skew in [-spread/2, +spread/2].
				skew := sim.Duration(skews.Int63n(int64(skewSpread))) - skewSpread/2
				clock := hlc.NewClock(hlc.SimWallSource{Sim: s, Skew: skew}, cfg.MaxOffset)
				c.skews[id] = skew
				st := kv.NewStore(id, s, c.Net, topo, clock, c.Registry)
				st.Catalog = c.Catalog
				st.Obs = c.Tracer
				st.Contention = c.Contention
				if cfg.Durability {
					st.Disk = storage.NewDisk(s, s.Stream("storage/disk").Int63(), c.Metrics)
				}
				st.StartLiveness(c.Liveness)
				st.StartCheckpoints(kv.DefaultCheckpointInterval)
				c.Stores[id] = st
				c.Senders[id] = &kv.DistSender{
					NodeID: id, Net: c.Net, Topo: topo, Catalog: c.Catalog,
					Liveness: c.Liveness, Tracer: c.Tracer, Metrics: c.Metrics,
					Load: loadTracker,
				}
				id++
			}
		}
	}
	c.Admin = &kv.Admin{
		Sim: s, Topo: topo, Catalog: c.Catalog, Stores: c.Stores, Load: loadTracker,
	}
	if cfg.GCTTL > 0 {
		for _, id := range topo.Nodes() {
			c.Stores[id].StartGCLoop(cfg.GCTTL)
		}
	}
	if cfg.LoadBased {
		c.Admin.StartLoadQueue(cfg.Load)
	}
	if cfg.Sampling {
		c.TSDB = tsdb.New(cfg.SampleBucket, tsdb.DefaultCapacity)
		c.startSamplers()
	}
	return c
}

// CrashNode fails a node honestly: it becomes unreachable AND loses all
// volatile state (replicas, their latches, locks and reads, un-fsynced WAL tails). With
// Durability off this degrades to the historical network-only crash, since
// there is no disk to recover from.
func (c *Cluster) CrashNode(id simnet.NodeID) {
	c.Net.CrashNode(id)
	if st := c.Stores[id]; st != nil && st.Disk != nil {
		st.Crash()
	}
}

// RestartNode boots a crashed node. Durable nodes recover from their disk
// first — blocking p for the recovery's virtual duration — and only then
// rejoin the network, so no traffic ever observes a half-recovered store.
func (c *Cluster) RestartNode(p *sim.Proc, id simnet.NodeID) (kv.RecoveryStats, error) {
	st := c.Stores[id]
	var stats kv.RecoveryStats
	if st != nil && st.Disk != nil {
		var err error
		if stats, err = st.Recover(p); err != nil {
			return stats, err
		}
	}
	c.Net.RestartNode(id)
	return stats, nil
}

// Regions returns the cluster's regions in creation order.
func (c *Cluster) Regions() []simnet.Region { return c.regions }

// ClockSkew returns how far node id's wall clock runs ahead of true
// (virtual) time; negative when it trails.
func (c *Cluster) ClockSkew(id simnet.NodeID) sim.Duration { return c.skews[id] }

// GatewayFor returns the lowest-numbered node in a region, the conventional
// gateway for clients located there.
func (c *Cluster) GatewayFor(r simnet.Region) simnet.NodeID {
	nodes := c.Topo.NodesInRegion(r)
	if len(nodes) == 0 {
		return 0
	}
	return nodes[0]
}

// Allocator returns a zone-config allocator over the current topology with
// store replica counts as load.
func (c *Cluster) Allocator() *zones.Allocator {
	load := map[simnet.NodeID]int{}
	for id, st := range c.Stores {
		load[id] = st.Replicas()
	}
	return &zones.Allocator{Topo: c.Topo, Load: load}
}

// ApplyErrors sums command application failures across all stores; tests
// assert this is zero at the end of every run.
func (c *Cluster) ApplyErrors() int {
	n := 0
	for _, st := range c.Stores {
		n += st.ApplyErrors()
	}
	return n
}

// CreateRangeWithZoneConfig allocates a placement for zcfg and creates a
// range covering [start, end) with it, whose descriptor carries zcfg so the
// load queue and placement checkers can honor it.
func (c *Cluster) CreateRangeWithZoneConfig(start, end []byte, zcfg zones.Config, policy kv.ClosedTSPolicy) (*kv.RangeDescriptor, error) {
	placement, err := c.Allocator().Allocate(zcfg)
	if err != nil {
		return nil, err
	}
	return c.Admin.CreateRange(start, end, placement, policy, &zcfg)
}
