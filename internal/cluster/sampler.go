package cluster

import (
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// This file wires the virtual-time timeseries store (internal/obs/tsdb)
// into the cluster: one sampler per node, driven by the sim clock,
// snapshots state into ring-buffered rollup series every sampleInterval.
//
// Samplers only read — they never sleep inside a callback, schedule extra
// work, or touch the simulation RNG — so sampling on versus off cannot
// change a run's schedule or any virtual-time latency (the metamorphic
// tests assert this the same way they do for tracing).
//
// Series layout: per-node state (replica counts, leases held, liveness) is
// recorded under that node's ID; the shared metrics registry — counters
// and histogram rollups — is cluster-wide, so the lowest-numbered
// node's sampler snapshots it exactly once per tick under the reserved
// node 0.

// sampleInterval is the sampling cadence: one snapshot per virtual second.
const sampleInterval = 1 * sim.Second

// startSamplers starts one ticker per node. Tickers are registered in
// ascending node order, so same-instant ticks fire deterministically.
func (c *Cluster) startSamplers() {
	nodes := c.Topo.Nodes()
	if len(nodes) == 0 {
		return
	}
	first := nodes[0]
	for _, id := range nodes {
		id := id
		c.Sim.Ticker(sampleInterval, func() { c.sampleNode(id, id == first) })
	}
}

// sampleNode snapshots one node's per-node series; the designated node also
// snapshots the cluster-wide registry.
func (c *Cluster) sampleNode(id simnet.NodeID, registry bool) {
	now := c.Sim.Now()
	node := int(id)
	if st := c.Stores[id]; st != nil {
		c.TSDB.Observe("store.replicas", node, now, int64(st.Replicas()))
	}
	c.TSDB.Observe("store.leases", node, now, int64(c.Catalog.LeasesHeldBy(id)))
	live := int64(0)
	if c.Liveness.Live(id, now) {
		live = 1
	}
	c.TSDB.Observe("node.live", node, now, live)
	c.TSDB.Observe("node.epoch", node, now, c.Liveness.Epoch(id))
	if registry {
		c.sampleRegistry(now)
	}
}

// registrySample is the registry as the sampler last listed it: its
// counters and histograms in name order, each histogram with the names of
// its five series, built when it first appears. The lists are rebuilt only
// when the registry has gained a metric, so a tick allocates nothing.
type registrySample struct {
	size     int
	counters []string
	hists    []*sampledHist
	byName   map[string]*sampledHist
}

type sampledHist struct {
	h                         *obs.Histogram
	count, sum, p50, p99, max string
}

// list re-lists the registry's metrics if it has gained one since the last
// listing.
func (rs *registrySample) list(r *obs.Registry) {
	if r.Len() == rs.size {
		return
	}
	rs.size = r.Len()
	rs.counters = r.Counters()
	if rs.byName == nil {
		rs.byName = map[string]*sampledHist{}
	}
	rs.hists = rs.hists[:0]
	for _, n := range r.Histograms() {
		sh := rs.byName[n]
		if sh == nil {
			sh = &sampledHist{h: r.Histogram(n), count: n + ".count", sum: n + ".sum", p50: n + ".p50", p99: n + ".p99", max: n + ".max"}
			rs.byName[n] = sh
		}
		rs.hists = append(rs.hists, sh)
	}
}

// sampleRegistry snapshots every registry metric under node 0. Counters
// sample their cumulative value (rates are derivable from a bucket's
// max-min over its width); each histogram samples its
// cumulative count and sum plus running p50/p99/max, so latency trajectories
// survive even though the histogram itself never resets.
func (c *Cluster) sampleRegistry(now sim.Time) {
	c.sampled.list(c.Metrics)
	for _, n := range c.sampled.counters {
		c.TSDB.Observe(n, 0, now, c.Metrics.Counter(n).Value())
	}
	for _, sh := range c.sampled.hists {
		c.TSDB.Observe(sh.count, 0, now, sh.h.Count())
		c.TSDB.Observe(sh.sum, 0, now, sh.h.Sum())
		c.TSDB.Observe(sh.p50, 0, now, sh.h.Percentile(0.50))
		c.TSDB.Observe(sh.p99, 0, now, sh.h.Percentile(0.99))
		c.TSDB.Observe(sh.max, 0, now, sh.h.Max())
	}
}
