// Package simnet provides the simulated wide-area network that mrdb
// clusters run on: a region/zone topology, a configurable inter-region
// round-trip-time matrix (defaulting to the paper's Table 1), message
// delivery with latency and jitter, and failure injection (node crashes and
// region partitions) for survivability experiments.
package simnet

import (
	"fmt"
	"sort"

	"mrdb/internal/sim"
)

// Region names a geographic region, e.g. "us-east1".
type Region string

// Zone names an availability zone within a region, e.g. "us-east1-b".
type Zone string

// NodeID identifies a node in the cluster; IDs are dense and start at 1.
type NodeID int

// Locality is a node's position in the failure-domain hierarchy.
type Locality struct {
	Region Region
	Zone   Zone
}

// String renders the locality in the CLI flag format used by the paper
// (--locality=region=...,zone=...).
func (l Locality) String() string {
	return fmt.Sprintf("region=%s,zone=%s", l.Region, l.Zone)
}

// Topology describes the cluster's physical layout and link latencies.
type Topology struct {
	// RTT holds round-trip times between pairs of regions. Lookups are
	// symmetric; only one direction needs to be present.
	RTT map[[2]Region]sim.Duration
	// IntraRegionRTT is the round trip between two zones of one region.
	IntraRegionRTT sim.Duration
	// IntraZoneRTT is the round trip within a single zone.
	IntraZoneRTT sim.Duration
	// Jitter is the maximum fractional latency perturbation (e.g. 0.05
	// adds up to ±5%); deterministic per simulation seed.
	Jitter float64

	nodes map[NodeID]Locality
}

// Paper Table 1: inter-region round-trip times in milliseconds, measured on
// GCP between the five regions used in §7.1–§7.3.
const (
	USEast1    Region = "us-east1"
	USWest1    Region = "us-west1"
	EuropeW2   Region = "europe-west2"
	AsiaNE1    Region = "asia-northeast1"
	AustralSE1 Region = "australia-southeast1"
)

// Table1RTT returns the paper's Table 1 matrix.
func Table1RTT() map[[2]Region]sim.Duration {
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }
	return map[[2]Region]sim.Duration{
		{USEast1, USWest1}:     ms(63),
		{USEast1, EuropeW2}:    ms(87),
		{USEast1, AsiaNE1}:     ms(155),
		{USEast1, AustralSE1}:  ms(198),
		{USWest1, EuropeW2}:    ms(132),
		{USWest1, AsiaNE1}:     ms(90),
		{USWest1, AustralSE1}:  ms(156),
		{EuropeW2, AsiaNE1}:    ms(222),
		{EuropeW2, AustralSE1}: ms(274),
		{AsiaNE1, AustralSE1}:  ms(113),
	}
}

// Table1Regions lists the paper's five regions in the order of Table 1.
func Table1Regions() []Region {
	return []Region{USEast1, USWest1, EuropeW2, AsiaNE1, AustralSE1}
}

// NewTopology returns an empty topology with paper-realistic local
// latencies: 0.5ms within a zone and 2ms between zones of a region (§6.2.1
// quotes 2–5ms for a zone-survivable quorum RTT).
func NewTopology() *Topology {
	return &Topology{
		RTT:            map[[2]Region]sim.Duration{},
		IntraRegionRTT: 2 * sim.Millisecond,
		IntraZoneRTT:   500 * sim.Microsecond,
		Jitter:         0.05,
		nodes:          map[NodeID]Locality{},
	}
}

// NewTable1Topology returns a topology preloaded with the paper's Table 1
// RTT matrix.
func NewTable1Topology() *Topology {
	t := NewTopology()
	t.RTT = Table1RTT()
	return t
}

// AddNode registers a node at the given locality.
func (t *Topology) AddNode(id NodeID, loc Locality) {
	t.nodes[id] = loc
}

// LocalityOf returns a node's locality.
func (t *Topology) LocalityOf(id NodeID) (Locality, bool) {
	l, ok := t.nodes[id]
	return l, ok
}

// Nodes returns all node IDs in ascending order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Regions returns the distinct regions with at least one node, sorted.
func (t *Topology) Regions() []Region {
	seen := map[Region]bool{}
	for _, l := range t.nodes {
		seen[l.Region] = true
	}
	out := make([]Region, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesInRegion returns the node IDs located in region r, sorted.
func (t *Topology) NodesInRegion(r Region) []NodeID {
	var ids []NodeID
	for id, l := range t.nodes {
		if l.Region == r {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RegionRTT returns the round-trip time between two regions.
func (t *Topology) RegionRTT(a, b Region) sim.Duration {
	if a == b {
		return t.IntraRegionRTT
	}
	if d, ok := t.RTT[[2]Region{a, b}]; ok {
		return d
	}
	if d, ok := t.RTT[[2]Region{b, a}]; ok {
		return d
	}
	// Unknown pairs get a conservative default so misconfigurations are
	// visible as high latency rather than zero latency.
	return 150 * sim.Millisecond
}

// NodeRTT returns the round-trip time between two nodes.
func (t *Topology) NodeRTT(a, b NodeID) sim.Duration {
	la, oka := t.nodes[a]
	lb, okb := t.nodes[b]
	if !oka || !okb {
		return 150 * sim.Millisecond
	}
	if a == b {
		return 50 * sim.Microsecond
	}
	if la.Region != lb.Region {
		return t.RegionRTT(la.Region, lb.Region)
	}
	if la.Zone != lb.Zone {
		return t.IntraRegionRTT
	}
	return t.IntraZoneRTT
}

// OneWay returns the one-way delay between two nodes (RTT/2).
func (t *Topology) OneWay(a, b NodeID) sim.Duration { return t.NodeRTT(a, b) / 2 }
