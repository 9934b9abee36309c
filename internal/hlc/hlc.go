// Package hlc implements hybrid logical clocks (HLC) over the simulated
// wall clocks of mrdb nodes.
//
// Every node owns a Clock fed by a WallSource. In the simulator the wall
// source is the virtual clock plus a per-node skew, which lets tests and
// benchmarks explore behaviour under clock skew up to a configured
// max_clock_offset — the quantity that sizes transaction uncertainty
// intervals and bounds commit-wait time for global transactions (paper §6).
package hlc

import (
	"fmt"

	"mrdb/internal/sim"
)

// Timestamp is a hybrid logical timestamp: a wall time in nanoseconds and a
// logical counter that breaks ties between events at the same wall time.
//
// The zero Timestamp sorts before every other timestamp and means "no
// timestamp".
type Timestamp struct {
	WallTime int64
	Logical  int32
}

// MinTimestamp is the zero timestamp.
var MinTimestamp = Timestamp{}

// MaxTimestamp is greater than every real timestamp.
var MaxTimestamp = Timestamp{WallTime: 1<<63 - 1, Logical: 1<<31 - 1}

// IsEmpty reports whether t is the zero timestamp.
func (t Timestamp) IsEmpty() bool { return t.WallTime == 0 && t.Logical == 0 }

// Less reports t < u.
func (t Timestamp) Less(u Timestamp) bool {
	if t.WallTime != u.WallTime {
		return t.WallTime < u.WallTime
	}
	return t.Logical < u.Logical
}

// LessEq reports t <= u.
func (t Timestamp) LessEq(u Timestamp) bool { return !u.Less(t) }

// Equal reports t == u.
func (t Timestamp) Equal(u Timestamp) bool { return t == u }

// Compare returns -1, 0 or +1 as t is before, equal to, or after u.
func (t Timestamp) Compare(u Timestamp) int {
	switch {
	case t.Less(u):
		return -1
	case u.Less(t):
		return 1
	default:
		return 0
	}
}

// Max returns the later of t and u.
func (t Timestamp) Max(u Timestamp) Timestamp {
	if t.Less(u) {
		return u
	}
	return t
}

// Min returns the earlier of t and u.
func (t Timestamp) Min(u Timestamp) Timestamp {
	if u.Less(t) {
		return u
	}
	return t
}

// Add returns a timestamp d later in wall time, with the logical counter
// preserved only when d is zero.
func (t Timestamp) Add(d sim.Duration) Timestamp {
	if d == 0 {
		return t
	}
	return Timestamp{WallTime: t.WallTime + int64(d)}
}

// Next returns the immediately following timestamp (logical+1).
func (t Timestamp) Next() Timestamp {
	if t.Logical == 1<<31-1 {
		return Timestamp{WallTime: t.WallTime + 1}
	}
	return Timestamp{WallTime: t.WallTime, Logical: t.Logical + 1}
}

// Prev returns the immediately preceding timestamp.
func (t Timestamp) Prev() Timestamp {
	if t.Logical > 0 {
		return Timestamp{WallTime: t.WallTime, Logical: t.Logical - 1}
	}
	if t.WallTime > 0 {
		return Timestamp{WallTime: t.WallTime - 1, Logical: 1<<31 - 1}
	}
	return Timestamp{}
}

// String renders the timestamp as wall.logical in seconds.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%09d,%d", t.WallTime/1e9, t.WallTime%1e9, t.Logical)
}

// WallSource supplies the physical component of an HLC. Implementations must
// be monotonically non-decreasing.
type WallSource interface {
	WallNow() int64
}

// SimWallSource derives a node's wall clock from the simulation's virtual
// clock plus a fixed skew. A positive skew means the node's clock runs ahead
// of true (virtual) time.
type SimWallSource struct {
	Sim  *sim.Simulation
	Skew sim.Duration
}

// WallNow implements WallSource.
func (s SimWallSource) WallNow() int64 {
	w := int64(s.Sim.Now()) + int64(s.Skew)
	if w < 0 {
		return 0
	}
	return w
}

// ManualWallSource is a hand-advanced wall clock for unit tests.
type ManualWallSource struct{ Wall int64 }

// WallNow implements WallSource.
func (m *ManualWallSource) WallNow() int64 { return m.Wall }

// Advance moves the manual clock forward by d.
func (m *ManualWallSource) Advance(d sim.Duration) { m.Wall += int64(d) }

// Clock is a hybrid logical clock. It is not internally synchronized: in the
// simulator all callers run under the cooperative scheduler, and real
// concurrent use is out of scope.
type Clock struct {
	source    WallSource
	maxOffset sim.Duration
	last      Timestamp
}

// NewClock returns an HLC fed by source, with the given maximum tolerated
// clock offset between any two nodes in the cluster.
func NewClock(source WallSource, maxOffset sim.Duration) *Clock {
	return &Clock{source: source, maxOffset: maxOffset}
}

// MaxOffset returns the configured maximum clock offset; it sizes
// transaction uncertainty intervals.
func (c *Clock) MaxOffset() sim.Duration { return c.maxOffset }

// Now returns the next HLC timestamp: at least wall time, and strictly after
// every timestamp it previously returned.
func (c *Clock) Now() Timestamp {
	wall := c.source.WallNow()
	if wall > c.last.WallTime {
		c.last = Timestamp{WallTime: wall}
	} else {
		c.last = c.last.Next()
	}
	return c.last
}

// PhysicalNow returns the raw wall time without advancing the HLC.
func (c *Clock) PhysicalNow() int64 { return c.source.WallNow() }

// NowAfter blocks conceptually until the clock exceeds t; in practice it
// returns the duration a caller must sleep so that, afterwards, Now() > t.
// It is the primitive behind commit wait (paper §6.2): the coordinator
// delays acknowledging a future-time commit until its local HLC passes the
// commit timestamp.
func (c *Clock) NowAfter(t Timestamp) sim.Duration {
	wall := c.source.WallNow()
	if wall > t.WallTime {
		return 0
	}
	// Sleep until wall time strictly exceeds t.WallTime.
	return sim.Duration(t.WallTime-wall) + sim.Nanosecond
}
