package raft

import (
	"encoding/binary"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// The compaction tests run a leader (node 1) with a LAN follower (node 2,
// 1ms one way) and a WAN one (node 3, 50ms one way: a 100ms round trip)
// under a proposal every 16ms, with every node compacting to its applied
// index every 5s — the cadence and the call kv's checkpoint loop makes.
const (
	wanDelay        = 50 * sim.Millisecond
	proposeEvery    = 16 * sim.Millisecond
	compactEvery    = 5 * sim.Second
	perInterval     = int(compactEvery / proposeEvery)
	inFlightEntries = int(2*wanDelay/proposeEvery) + 2
)

// compactRun is a harness whose node 3 sits behind the WAN link; cut drops
// that link's traffic. It counts what crosses it towards node 3.
type compactRun struct {
	*harness
	l         *Node
	cut       bool
	snapsTo3  int // MsgSnap delivered to node 3
	installs  int // snapshots node 3 installed
	proposals int
	// afterCompact is the leader's log length right after each Compact.
	afterCompact []int
}

func newCompactRun(t *testing.T, voters, learners []simnet.NodeID) *compactRun {
	t.Helper()
	r := &compactRun{harness: newLinkHarness(t, 11, voters, learners, sim.Millisecond, beat)}
	for id, n := range r.nodes {
		n.cfg.Snapshot = func(uint64, uint64) []byte { return []byte("state") }
		n.cfg.ApplySnapshot = func([]byte, uint64, uint64) {}
		if id == 3 {
			n.cfg.ApplySnapshot = func([]byte, uint64, uint64) { r.installs++ }
		}
	}
	r.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if from != 3 && to != 3 {
			return false
		}
		if !r.cut {
			if msg.Kind == MsgSnap {
				r.snapsTo3++
			}
			r.s.After(wanDelay, func() { r.nodes[to].Step(msg) })
		}
		return true
	}
	r.l = r.elect(t)
	r.s.Ticker(proposeEvery, func() {
		if _, err := r.l.Propose(r.proposals); err != nil {
			t.Errorf("propose %d: %v", r.proposals, err)
		}
		r.proposals++
	})
	r.s.Ticker(compactEvery, func() {
		for _, id := range []simnet.NodeID{1, 2, 3} {
			r.nodes[id].Compact(r.nodes[id].Applied())
		}
		r.afterCompact = append(r.afterCompact, len(r.l.log))
	})
	return r
}

// TestCompactLeavesEntriesForFollowerOneRTTBehind: next moves only on acks,
// so the WAN follower's next always trails the leader's applied index by the
// round trip's proposals. A Compact that trims through it turns that
// follower's next append into a snapshot of the whole range, once per
// compaction; clamped to what responsive peers still need, it costs none
// and the log stays as short as the round trip.
func TestCompactLeavesEntriesForFollowerOneRTTBehind(t *testing.T) {
	r := newCompactRun(t, []simnet.NodeID{1, 2, 3}, nil)
	r.s.RunFor(30*sim.Second + sim.Millisecond)
	if len(r.afterCompact) != 6 {
		t.Fatalf("compacted %d times in 30s", len(r.afterCompact))
	}
	for class, n := range r.sent {
		if class.kind == MsgSnap {
			t.Errorf("%d snapshots sent %d→%d; every peer was responsive throughout", n, class.from, class.to)
		}
	}
	for i, n := range r.afterCompact {
		if n > 1+inFlightEntries {
			t.Errorf("compaction %d left %d log slots, want at most the %d entries in flight", i, n, inFlightEntries)
		}
	}
	if r.l.FirstIndex() == 0 {
		t.Error("the leader's log was never trimmed")
	}
	r.s.RunFor(sim.Second)
	for id := range r.nodes {
		if got := len(r.applied[id]); got < r.proposals-inFlightEntries {
			t.Errorf("node %d applied %d of %d proposals", id, got, r.proposals)
		}
	}
}

// TestCompactStopsWaitingForSilentPeer: a peer that has not acked for a whole
// compaction interval no longer holds the log. The first Compact after its
// link is cut still keeps its entries (it acked earlier in that interval),
// the second trims past it, and when the link returns it is caught up by
// one snapshot, not by a log the leader kept for it.
func TestCompactStopsWaitingForSilentPeer(t *testing.T) {
	r := newCompactRun(t, []simnet.NodeID{1, 2}, []simnet.NodeID{3})
	r.s.After(6*sim.Second, func() { r.cut = true })
	r.s.After(18*sim.Second, func() { r.cut = false })

	r.s.RunFor(10*sim.Second + sim.Millisecond) // first Compact after the cut
	next := r.l.progress[3].next
	if first := r.l.FirstIndex(); first >= next {
		t.Fatalf("first compaction after the cut trimmed to %d, past the peer's next %d", first, next)
	}
	r.s.RunFor(5 * sim.Second) // second
	if first := r.l.FirstIndex(); first < next {
		t.Fatalf("second compaction after the cut kept the log at %d for a peer silent since next %d", first, next)
	}
	for i, n := range r.afterCompact {
		if n > 1+perInterval+inFlightEntries {
			t.Errorf("compaction %d left %d log slots, want at most one interval's %d + %d in flight",
				i, n, perInterval, inFlightEntries)
		}
	}
	if r.snapsTo3 != 0 || r.installs != 0 {
		t.Fatalf("%d snapshots reached the peer while its link was cut", r.snapsTo3)
	}

	r.s.RunFor(15 * sim.Second)
	// Each append in flight when the link returned draws its own reject; only
	// the first may rewind next into a snapshot, the rest are stale.
	if r.installs != 1 || r.snapsTo3 != 1 {
		t.Errorf("returning peer installed %d snapshots of %d delivered, want one", r.installs, r.snapsTo3)
	}
	if lag := r.l.LastIndex() - r.nodes[3].LastIndex(); lag > uint64(inFlightEntries) {
		t.Errorf("returned peer is %d entries behind", lag)
	}
}

// delayedStorage is a Storage whose fsyncs complete a millisecond after they
// start; it counts the snapshot resets it is asked for.
type delayedStorage struct {
	s      *sim.Simulation
	resets int
}

func (d *delayedStorage) Append(hs HardState, entries []Entry, c Completion) {
	d.s.After(sim.Millisecond, c.Run)
}
func (d *delayedStorage) Compact(index, term uint64, tail []Entry, hs HardState) {}
func (d *delayedStorage) Reset(index, term uint64, hs HardState)                 { d.resets++ }

// TestPromotedFollowerSnapshotsLaggingPeerOnce is the promotion window: node
// 2, a LAN follower, compacts to its applied index (a follower's Compact is
// unclamped), and in the same instant the leader fails — its in-flight
// appends die with it — and node 2 campaigns. Node 3, a WAN round trip
// behind, then needs entries node 2 trimmed. It is caught up by exactly one
// snapshot, and it ends holding what the new leader holds.
func TestPromotedFollowerSnapshotsLaggingPeerOnce(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { promotionWindow(t, durable) })
	}
}

func promotionWindow(t *testing.T, durable bool) {
	disks := map[simnet.NodeID]*delayedStorage{}
	var storageFor func(simnet.NodeID) Storage
	if durable {
		storageFor = func(id simnet.NodeID) Storage {
			disks[id] = &delayedStorage{}
			return disks[id]
		}
	}
	h := newStorageHarness(t, 11, []simnet.NodeID{1, 2, 3}, nil, sim.Millisecond, beat, storageFor)
	for _, d := range disks {
		d.s = h.s
	}
	installs := 0
	for id, n := range h.nodes {
		id := id
		// The state is the applied values themselves, so a snapshot install
		// replaces them wholesale.
		n.cfg.Snapshot = func(uint64, uint64) []byte { return encodeApplied(h.applied[id]) }
		n.cfg.ApplySnapshot = func(data []byte, _, _ uint64) {
			h.applied[id] = decodeApplied(data)
			if id == 3 {
				installs++
			}
		}
	}
	down := false // node 1 has failed: nothing it sends or is sent arrives
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		delay := sim.Millisecond
		if from == 3 || to == 3 {
			delay = wanDelay
		}
		h.s.After(delay, func() {
			if !down || (from != 1 && to != 1) {
				h.nodes[to].Step(msg)
			}
		})
		return true
	}
	h.elect(t)

	proposals, stopped := 0, false
	h.s.Ticker(proposeEvery, func() {
		for _, id := range []simnet.NodeID{1, 2, 3} {
			if n := h.nodes[id]; !stopped && !(down && id == 1) && n.IsLeader() {
				if _, err := n.Propose(proposals); err != nil {
					t.Errorf("propose %d on node %d: %v", proposals, id, err)
				}
				proposals++
				return
			}
		}
	})
	h.s.RunFor(3 * sim.Second)

	f, lagging := h.nodes[2], h.nodes[3]
	for _, id := range []simnet.NodeID{1, 2, 3} {
		h.nodes[id].Compact(h.nodes[id].Applied())
	}
	down = true
	f.Campaign()
	if f.FirstIndex() <= lagging.LastIndex() {
		t.Fatalf("setup: node 2 compacted to %d, node 3 holds through %d: no entry it needs was trimmed",
			f.FirstIndex(), lagging.LastIndex())
	}

	h.s.RunFor(3 * sim.Second)
	if !f.IsLeader() {
		t.Fatalf("node 2 is %v after its campaign", f.Role())
	}
	stopped = true
	h.s.RunFor(2 * sim.Second)

	if sent := h.sent[msgClass{2, 3, MsgSnap, false}]; sent != 1 || installs != 1 {
		t.Errorf("node 3 was sent %d snapshots and installed %d, want one of each", sent, installs)
	}
	if durable && disks[3].resets != 1 {
		t.Errorf("node 3 reset its durable log %d times, want once for the snapshot", disks[3].resets)
	}
	if lagging.Applied() != f.Applied() {
		t.Fatalf("node 3 applied through %d, the leader through %d", lagging.Applied(), f.Applied())
	}
	want, got := h.applied[2], h.applied[3]
	if len(got) != len(want) {
		t.Fatalf("node 3 holds %d values, the leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node 3 holds %v at position %d, the leader %v", got[i], i, want[i])
		}
	}
}

// encodeApplied writes a node's applied values, the ints its proposals
// carried, as a snapshot; decodeApplied reads them back.
func encodeApplied(vals []interface{}) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendVarint(b, int64(v.(int)))
	}
	return b
}

func decodeApplied(b []byte) []interface{} {
	var vals []interface{}
	for len(b) > 0 {
		v, n := binary.Varint(b)
		vals = append(vals, int(v))
		b = b[n:]
	}
	return vals
}

// TestCompactAllocatesOneArray: Compact builds the trimmed log in one new
// array and copies the tail into it once.
func TestCompactAllocatesOneArray(t *testing.T) {
	n := NewNode(Config{ID: 1, Voters: []simnet.NodeID{1, 2, 3}, Sim: sim.New(1)})
	for i := uint64(1); i <= 2000; i++ {
		n.log = append(n.log, Entry{Index: i, Term: 1, Data: i})
	}
	n.applied = 2000
	upTo := uint64(0)
	if a := testing.AllocsPerRun(100, func() {
		upTo += 10
		n.Compact(upTo)
	}); a != 1 {
		t.Errorf("Compact allocates %.1f objects, want the one new log array", a)
	}
	if n.FirstIndex() != upTo || n.LastIndex() != 2000 || n.at(upTo+1).Data != upTo+1 {
		t.Fatalf("after Compact(%d): log holds %d..%d", upTo, n.FirstIndex(), n.LastIndex())
	}
}

// TestFollowerCompactIsUnclamped: only a leader ships its log, so only a
// leader keeps entries for its peers; a follower trims to what it was asked.
func TestFollowerCompactIsUnclamped(t *testing.T) {
	r := newCompactRun(t, []simnet.NodeID{1, 2, 3}, nil)
	r.s.RunFor(5*sim.Second + sim.Millisecond)
	f := r.nodes[2]
	if f.FirstIndex() != f.Applied() {
		t.Errorf("follower compacted to %d, applied %d", f.FirstIndex(), f.Applied())
	}
	if r.l.FirstIndex() >= r.l.Applied() {
		t.Errorf("leader compacted to %d with applied %d while a follower was a round trip behind", r.l.FirstIndex(), r.l.Applied())
	}
}
