package kv

import (
	"bytes"
	"fmt"
	"sort"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// RangeCatalog is the authoritative map from keyspace to range
// descriptors. In CockroachDB this state lives in the meta ranges and is
// cached by each node; here it is a single shared structure — routing
// lookups are free, but leaseholder information may still be stale relative
// to a replica's own view, so NotLeaseholderError handling remains
// necessary. The simplification is recorded in DESIGN.md.
type RangeCatalog struct {
	// descs is sorted by StartKey; ranges must not overlap.
	descs  []*RangeDescriptor
	nextID RangeID
	// published wakes the senders backing off on a range (WaitNewer) when a
	// newer descriptor of it is published or the range is removed; one per
	// range that has had a waiter.
	published map[RangeID]*sim.Cond
}

// NewRangeCatalog returns an empty catalog.
func NewRangeCatalog() *RangeCatalog {
	return &RangeCatalog{published: map[RangeID]*sim.Cond{}}
}

// ZoneConfig returns the zone config of a range's published descriptor, if
// it has one. The load queue and the placement invariant checker consult
// it; ranges without one are exempt from constraint checking (and from
// constraint-aware rebalancing). A config rides its descriptor, so it is
// never paired with another descriptor's placement.
func (c *RangeCatalog) ZoneConfig(id RangeID) (zones.Config, bool) {
	if d, ok := c.LookupByID(id); ok && d.Config != nil {
		return *d.Config, true
	}
	return zones.Config{}, false
}

// NextRangeID allocates a fresh range ID.
func (c *RangeCatalog) NextRangeID() RangeID {
	c.nextID++
	return c.nextID
}

// Insert adds a descriptor, keeping the catalog sorted. It rejects overlap.
func (c *RangeCatalog) Insert(d *RangeDescriptor) error {
	i := sort.Search(len(c.descs), func(i int) bool {
		return bytes.Compare(c.descs[i].StartKey, d.StartKey) > 0
	})
	// Check neighbors for overlap.
	if i > 0 {
		prev := c.descs[i-1]
		if prev.EndKey == nil || bytes.Compare(prev.EndKey, d.StartKey) > 0 {
			return fmt.Errorf("kv: range %d overlaps new range at %q", prev.RangeID, d.StartKey)
		}
	}
	if i < len(c.descs) {
		next := c.descs[i]
		if d.EndKey == nil || bytes.Compare(d.EndKey, next.StartKey) > 0 {
			return fmt.Errorf("kv: new range overlaps range %d", next.RangeID)
		}
	}
	c.descs = append(c.descs, nil)
	copy(c.descs[i+1:], c.descs[i:])
	c.descs[i] = d
	return nil
}

// Remove deletes the descriptor for a range ID.
func (c *RangeCatalog) Remove(id RangeID) {
	if w, ok := c.published[id]; ok {
		w.Broadcast()
		delete(c.published, id)
	}
	for i, d := range c.descs {
		if d.RangeID == id {
			c.descs = append(c.descs[:i], c.descs[i+1:]...)
			return
		}
	}
}

// Lookup returns the descriptor containing key.
func (c *RangeCatalog) Lookup(key mvcc.Key) (*RangeDescriptor, error) {
	i := sort.Search(len(c.descs), func(i int) bool {
		return bytes.Compare(c.descs[i].StartKey, key) > 0
	})
	if i == 0 {
		return nil, fmt.Errorf("kv: no range contains key %q", key)
	}
	d := c.descs[i-1]
	if !d.ContainsKey(key) {
		return nil, fmt.Errorf("kv: no range contains key %q", key)
	}
	return d, nil
}

// LookupByID returns the descriptor with the given range ID.
func (c *RangeCatalog) LookupByID(id RangeID) (*RangeDescriptor, bool) {
	for _, d := range c.descs {
		if d.RangeID == id {
			return d, true
		}
	}
	return nil, false
}

// LookupSpan returns the descriptors overlapping [start, end), in order.
func (c *RangeCatalog) LookupSpan(start, end mvcc.Key) []*RangeDescriptor {
	var out []*RangeDescriptor
	for _, d := range c.descs {
		if end != nil && bytes.Compare(d.StartKey, end) >= 0 {
			break
		}
		if d.EndKey != nil && bytes.Compare(d.EndKey, start) <= 0 {
			continue
		}
		out = append(out, d)
	}
	return out
}

// All returns every descriptor in key order.
func (c *RangeCatalog) All() []*RangeDescriptor {
	return append([]*RangeDescriptor(nil), c.descs...)
}

// LeasesHeldBy returns the number of ranges whose descriptor names node id
// as leaseholder.
func (c *RangeCatalog) LeasesHeldBy(id simnet.NodeID) int {
	n := 0
	for _, d := range c.descs {
		if d.Leaseholder == id {
			n++
		}
	}
	return n
}

// Update replaces the stored descriptor for d.RangeID with d if d's
// generation is not older, and wakes the range's WaitNewer callers if it is
// newer.
func (c *RangeCatalog) Update(d *RangeDescriptor) {
	for i, cur := range c.descs {
		if cur.RangeID == d.RangeID {
			if d.Generation >= cur.Generation {
				c.descs[i] = d
			}
			if w, ok := c.published[d.RangeID]; ok && d.Generation > cur.Generation {
				w.Broadcast()
			}
			return
		}
	}
}

// WaitNewer parks p for d, or until the catalog holds a descriptor of range
// id newer than generation gen or no longer holds the range, whichever comes
// first.
func (c *RangeCatalog) WaitNewer(p *sim.Proc, id RangeID, gen int64, d sim.Duration) {
	deadline := p.Now().Add(d)
	for {
		if cur, ok := c.LookupByID(id); !ok || cur.Generation > gen {
			return
		}
		w, ok := c.published[id]
		if !ok {
			w = sim.NewCond(p.Sim())
			c.published[id] = w
		}
		if !w.WaitTimeout(p, deadline.Sub(p.Now())) {
			return
		}
	}
}

// Len returns the number of ranges.
func (c *RangeCatalog) Len() int { return len(c.descs) }
