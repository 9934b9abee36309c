package cluster

import (
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
	leases := 0
	for _, d := range c.Catalog.All() {
		if d.Leaseholder == id {
			leases++
		}
	}
	c.TSDB.Observe("store.leases", node, now, int64(leases))
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

// sampleRegistry snapshots every registry metric under node 0. Counters
// sample their cumulative value (rates are derivable from a bucket's
// max-min over its width); each histogram samples its
// cumulative count and sum plus running p50/p99/max, so latency trajectories
// survive even though the histogram itself never resets.
func (c *Cluster) sampleRegistry(now sim.Time) {
	for _, n := range c.Metrics.Counters() {
		c.TSDB.Observe(n, 0, now, c.Metrics.Counter(n).Value())
	}
	for _, n := range c.Metrics.Histograms() {
		h := c.Metrics.Histogram(n)
		c.TSDB.Observe(n+".count", 0, now, h.Count())
		c.TSDB.Observe(n+".sum", 0, now, h.Sum())
		c.TSDB.Observe(n+".p50", 0, now, h.Percentile(0.50))
		c.TSDB.Observe(n+".p99", 0, now, h.Percentile(0.99))
		c.TSDB.Observe(n+".max", 0, now, h.Max())
	}
}
