package raft

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// harness wires a Raft group over a simulated network.
type harness struct {
	s     *sim.Simulation
	net   *simnet.Network
	nodes map[simnet.NodeID]*Node
	// applied records Data values applied per node, in order.
	applied map[simnet.NodeID][]interface{}

	// linkDelay, if non-zero, replaces the topology: every message takes
	// exactly this long, so message schedules are exact.
	linkDelay sim.Duration
	// sent counts every message handed to the transport, by sender,
	// receiver, kind and whether it carried entries.
	sent map[msgClass]int
	// intercept, if set, sees each message after it is counted; returning
	// true takes it off the wire, and the test drops it or hands it to
	// deliver later (in any order).
	intercept func(from, to simnet.NodeID, msg Message) bool
}

type msgClass struct {
	from, to simnet.NodeID
	kind     MsgKind
	entries  bool
}

type harnessTransport struct {
	h    *harness
	from simnet.NodeID
}

func (t *harnessTransport) Send(to simnet.NodeID, msg Message) {
	h := t.h
	h.sent[msgClass{t.from, to, msg.Kind, len(msg.Entries) > 0}]++
	if h.intercept != nil && h.intercept(t.from, to, msg) {
		return
	}
	h.deliver(t.from, to, msg)
}

func (h *harness) deliver(from, to simnet.NodeID, msg Message) {
	if h.linkDelay > 0 {
		h.s.After(h.linkDelay, func() { h.nodes[to].Step(msg) })
		return
	}
	h.net.Send(from, to, msg)
}

// appends returns how many MsgApp carrying entries from → to were sent.
func (h *harness) appends(from, to simnet.NodeID) int {
	return h.sent[msgClass{from, to, MsgApp, true}]
}

// acks returns how many MsgAppResp from → to were sent.
func (h *harness) acks(from, to simnet.NodeID) int {
	return h.sent[msgClass{from, to, MsgAppResp, false}]
}

// heartbeats returns how many MsgApp without entries from → to were sent.
func (h *harness) heartbeats(from, to simnet.NodeID) int {
	return h.sent[msgClass{from, to, MsgApp, false}]
}

// newHarness builds a group with the given voters and learners, one node
// per zone across up to three regions.
func newHarness(t *testing.T, seed int64, voters, learners []simnet.NodeID) *harness {
	return newLinkHarness(t, seed, voters, learners, 0, 0)
}

// newLinkHarness is newHarness with, if non-zero, a fixed one-way link
// delay in place of the topology's latencies and a heartbeat interval in
// place of the default.
func newLinkHarness(t *testing.T, seed int64, voters, learners []simnet.NodeID, linkDelay, heartbeat sim.Duration) *harness {
	return newStorageHarness(t, seed, voters, learners, linkDelay, heartbeat, nil)
}

// newStorageHarness is newLinkHarness with, if non-nil, a Storage per node.
func newStorageHarness(t *testing.T, seed int64, voters, learners []simnet.NodeID, linkDelay, heartbeat sim.Duration, storageFor func(simnet.NodeID) Storage) *harness {
	t.Helper()
	s := sim.New(seed)
	topo := simnet.NewTable1Topology()
	topo.Jitter = 0.02
	regions := []simnet.Region{simnet.USEast1, simnet.EuropeW2, simnet.AsiaNE1}
	all := append(append([]simnet.NodeID{}, voters...), learners...)
	for i, id := range all {
		r := regions[i%len(regions)]
		topo.AddNode(id, simnet.Locality{Region: r, Zone: simnet.Zone(fmt.Sprintf("%s-%d", r, i))})
	}
	h := &harness{
		s:         s,
		net:       simnet.NewNetwork(s, topo),
		nodes:     map[simnet.NodeID]*Node{},
		applied:   map[simnet.NodeID][]interface{}{},
		linkDelay: linkDelay,
		sent:      map[msgClass]int{},
	}
	for _, id := range all {
		id := id
		cfg := Config{
			ID:        id,
			Voters:    voters,
			Learners:  learners,
			Sim:       s,
			Transport: &harnessTransport{h: h, from: id},
			Apply: func(e Entry) {
				if e.Data != nil {
					h.applied[id] = append(h.applied[id], e.Data)
				}
			},
		}
		if storageFor != nil {
			cfg.Storage = storageFor(id)
		}
		n := NewNode(cfg)
		n.SetHeartbeatInterval(heartbeat)
		h.nodes[id] = n
		h.net.Register(id, func(m simnet.Message) {
			n.Step(m.Payload.(Message))
		})
		n.Start()
	}
	return h
}

func (h *harness) leader() *Node {
	for _, n := range h.nodes {
		if n.IsLeader() && !h.net.NodeDown(n.ID()) {
			return n
		}
	}
	return nil
}

func (h *harness) waitForLeader(t *testing.T, within sim.Duration) *Node {
	t.Helper()
	deadline := h.s.Now().Add(within)
	for h.s.Now() < deadline {
		h.s.RunFor(100 * sim.Millisecond)
		if l := h.leader(); l != nil {
			return l
		}
	}
	t.Fatalf("no leader within %v", within)
	return nil
}

func TestElectLeader(t *testing.T) {
	h := newHarness(t, 1, []simnet.NodeID{1, 2, 3}, nil)
	l := h.waitForLeader(t, 10*sim.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	// All voters agree on the leader after propagation.
	h.s.RunFor(2 * sim.Second)
	for id, n := range h.nodes {
		if n.leader != l.ID() {
			t.Errorf("node %d thinks leader is %d, want %d", id, n.leader, l.ID())
		}
	}
}

func TestExplicitCampaign(t *testing.T) {
	h := newHarness(t, 2, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[2].Campaign()
	h.s.RunFor(2 * sim.Second)
	if !h.nodes[2].IsLeader() {
		t.Fatal("explicit campaign did not win")
	}
}

func TestProposeCommitApply(t *testing.T) {
	h := newHarness(t, 3, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	l := h.nodes[1]
	var idx uint64
	h.s.Spawn("proposer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			f, err := l.Propose(fmt.Sprintf("cmd-%d", i))
			if err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			res := f.Wait(p)
			if res.Err != nil {
				t.Errorf("commit: %v", res.Err)
			}
			idx = res.Index
		}
	})
	h.s.RunFor(10 * sim.Second)
	if idx == 0 {
		t.Fatal("nothing committed")
	}
	for id, n := range h.nodes {
		got := h.applied[id]
		if len(got) != 5 {
			t.Fatalf("node %d applied %d entries: %v", id, len(got), got)
		}
		for i, v := range got {
			if v.(string) != fmt.Sprintf("cmd-%d", i) {
				t.Fatalf("node %d applied out of order: %v", id, got)
			}
		}
		_ = n
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	h := newHarness(t, 4, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	_, err := h.nodes[2].Propose("x")
	if _, ok := err.(*ErrNotLeader); !ok {
		t.Fatalf("expected ErrNotLeader, got %v", err)
	}
}

func TestLearnerReplicatesButNeverVotes(t *testing.T) {
	h := newHarness(t, 5, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	h.s.Spawn("proposer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			f, err := h.nodes[1].Propose(i)
			if err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			f.Wait(p)
		}
	})
	h.s.RunFor(5 * sim.Second)
	// Learners applied everything.
	for _, id := range []simnet.NodeID{4, 5} {
		if len(h.applied[id]) != 3 {
			t.Fatalf("learner %d applied %d entries", id, len(h.applied[id]))
		}
		if h.nodes[id].role != Learner {
			t.Fatalf("learner %d has role %v", id, h.nodes[id].role)
		}
	}
}

func TestLearnersDoNotAffectQuorum(t *testing.T) {
	// 3 voters + 2 learners; crash both learners: commits proceed.
	h := newHarness(t, 6, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	h.net.CrashNode(4)
	h.net.CrashNode(5)
	committed := false
	h.s.Spawn("proposer", func(p *sim.Proc) {
		f, err := h.nodes[1].Propose("survives")
		if err != nil {
			t.Errorf("propose: %v", err)
			return
		}
		if res := f.Wait(p); res.Err == nil {
			committed = true
		}
	})
	h.s.RunFor(5 * sim.Second)
	if !committed {
		t.Fatal("commit blocked on crashed learners")
	}
}

func TestLeaderFailover(t *testing.T) {
	h := newHarness(t, 7, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	if !h.nodes[1].IsLeader() {
		t.Fatal("setup: node 1 not leader")
	}
	h.net.CrashNode(1)
	l := h.waitForLeader(t, 30*sim.Second)
	if l.ID() == 1 {
		t.Fatal("crashed node still leader")
	}
	// The new leader can commit.
	ok := false
	h.s.Spawn("proposer", func(p *sim.Proc) {
		f, err := l.Propose("after-failover")
		if err != nil {
			t.Errorf("propose: %v", err)
			return
		}
		if res := f.Wait(p); res.Err == nil {
			ok = true
		}
	})
	h.s.RunFor(5 * sim.Second)
	if !ok {
		t.Fatal("new leader cannot commit")
	}
}

func TestNoQuorumNoCommit(t *testing.T) {
	h := newHarness(t, 8, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	h.net.CrashNode(2)
	h.net.CrashNode(3)
	committed := false
	h.s.Spawn("proposer", func(p *sim.Proc) {
		f, err := h.nodes[1].Propose("doomed")
		if err != nil {
			return
		}
		if res, ok := f.WaitTimeout(p, 20*sim.Second); ok && res.Err == nil {
			committed = true
		}
	})
	h.s.RunFor(30 * sim.Second)
	if committed {
		t.Fatal("committed without quorum")
	}
}

func TestLeadershipTransfer(t *testing.T) {
	h := newHarness(t, 9, []simnet.NodeID{1, 2, 3}, nil)
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	h.nodes[1].TransferLeadership(3)
	h.s.RunFor(3 * sim.Second)
	if !h.nodes[3].IsLeader() {
		t.Fatalf("transfer failed; roles: %v %v %v",
			h.nodes[1].role, h.nodes[2].role, h.nodes[3].role)
	}
}

func TestConfChangeAddLearnerThenPromote(t *testing.T) {
	h := newHarness(t, 10, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4})
	h.nodes[1].Campaign()
	h.s.RunFor(2 * sim.Second)
	// Promote learner 4 to voter.
	h.s.Spawn("reconfig", func(p *sim.Proc) {
		f, err := h.nodes[1].ProposeConfChange(ConfChange{Type: AddVoter, Node: 4})
		if err != nil {
			t.Errorf("conf change: %v", err)
			return
		}
		f.Wait(p)
	})
	h.s.RunFor(5 * sim.Second)
	if !h.nodes[1].IsVoter(4) {
		t.Fatal("leader does not see node 4 as voter")
	}
	if h.nodes[4].role == Learner {
		t.Fatal("node 4 still a learner after promotion")
	}
	// Quorum is now 3 of 4; crash two voters, leaving 1 and 4: no commit.
	h.net.CrashNode(2)
	h.net.CrashNode(3)
	committed := false
	h.s.Spawn("proposer", func(p *sim.Proc) {
		f, err := h.nodes[1].Propose("needs-3-of-4")
		if err != nil {
			return
		}
		if res, ok := f.WaitTimeout(p, 10*sim.Second); ok && res.Err == nil {
			committed = true
		}
	})
	h.s.RunFor(15 * sim.Second)
	if committed {
		t.Fatal("committed with only 2 of 4 voters reachable")
	}
}

func TestHeartbeatPayloadDelivery(t *testing.T) {
	s := sim.New(11)
	topo := simnet.NewTable1Topology()
	topo.Jitter = 0
	topo.AddNode(1, simnet.Locality{Region: simnet.USEast1, Zone: "a"})
	topo.AddNode(2, simnet.Locality{Region: simnet.EuropeW2, Zone: "b"})
	topo.AddNode(3, simnet.Locality{Region: simnet.AsiaNE1, Zone: "c"})
	net := simnet.NewNetwork(s, topo)
	h := &harness{s: s, net: net, nodes: map[simnet.NodeID]*Node{}, applied: map[simnet.NodeID][]interface{}{}, sent: map[msgClass]int{}}
	seq := int64(0)
	received := map[simnet.NodeID]int64{}
	for _, id := range []simnet.NodeID{1, 2, 3} {
		id := id
		cfg := Config{
			ID: id, Voters: []simnet.NodeID{1, 2, 3}, Sim: s,
			Transport: &harnessTransport{h: h, from: id},
			OnHeartbeat: func(closed hlc.Timestamp) {
				if closed.IsEmpty() {
					t.Errorf("node %d was handed the zero timestamp, which carries none", id)
				}
				if closed.WallTime > received[id] {
					received[id] = closed.WallTime
				}
			},
		}
		if id == 1 {
			// Every third append carries no promise.
			cfg.HeartbeatPayload = func() hlc.Timestamp {
				if seq++; seq%3 == 0 {
					return hlc.Timestamp{}
				}
				return hlc.Timestamp{WallTime: seq}
			}
		}
		n := NewNode(cfg)
		h.nodes[id] = n
		net.Register(id, func(m simnet.Message) { n.Step(m.Payload.(Message)) })
		n.Start()
	}
	h.nodes[1].Campaign()
	s.RunFor(5 * sim.Second)
	if received[2] == 0 || received[3] == 0 {
		t.Fatalf("followers missed heartbeat payloads: %v", received)
	}
}

func TestDeterministicReplication(t *testing.T) {
	run := func() []interface{} {
		h := newHarness(t, 42, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4})
		h.nodes[1].Campaign()
		h.s.RunFor(2 * sim.Second)
		rng := rand.New(rand.NewSource(42))
		h.s.Spawn("proposer", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(sim.Duration(rng.Intn(100)) * sim.Millisecond)
				if f, err := h.nodes[1].Propose(i); err == nil {
					f.Wait(p)
				}
			}
		})
		h.s.RunFor(20 * sim.Second)
		return h.applied[4]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// linkDelay is the one-way delay of the exact-schedule tests below.
const linkDelay = 50 * sim.Millisecond

// burst proposes k values 1ms apart on l, far faster than the link
// round trip, so every proposal overlaps the ones before it.
func (h *harness) burst(t *testing.T, l *Node, k int) {
	t.Helper()
	h.s.Spawn("burst", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			if _, err := l.Propose(i); err != nil {
				t.Errorf("propose %d: %v", i, err)
				return
			}
			p.Sleep(sim.Millisecond)
		}
	})
	h.s.RunFor(sim.Duration(k) * sim.Millisecond)
}

// requireApplied fails unless every node applied 0..k-1 in order.
func (h *harness) requireApplied(t *testing.T, k int) {
	t.Helper()
	for id := range h.nodes {
		got := h.applied[id]
		if len(got) != k {
			t.Fatalf("node %d applied %d of %d entries", id, len(got), k)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("node %d applied %v at position %d", id, v, i)
			}
		}
	}
}

// TestReplicationTrafficIsLinear pins the message budget: k overlapping
// proposals cost exactly k appends and k acks per peer. An ack that answers
// with another append whenever the peer is merely behind (rather than only
// when entries were never shipped) makes this quadratic in k.
func TestReplicationTrafficIsLinear(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			// The heartbeat is out of the way: only proposals send.
			h := newLinkHarness(t, 1, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5}, linkDelay, 30*sim.Second)
			l := h.nodes[1]
			l.Campaign()
			h.s.RunFor(sim.Second)
			if !l.IsLeader() {
				t.Fatal("setup: node 1 not leader")
			}
			h.sent = map[msgClass]int{}
			h.burst(t, l, k)
			h.s.RunFor(sim.Second) // quiescence: nothing left in flight
			for _, peer := range []simnet.NodeID{2, 3, 4, 5} {
				if got := h.appends(1, peer); got != k {
					t.Errorf("peer %d received %d appends for %d proposals", peer, got, k)
				}
				if got := h.acks(peer, 1); got != k {
					t.Errorf("peer %d sent %d acks for %d proposals", peer, got, k)
				}
			}
			if total := len(h.sent); total != 8 {
				t.Errorf("message classes on the wire: %v, want only appends and acks", h.sent)
			}
			// Followers learn the last commit index from the next append;
			// a heartbeat stands in for it.
			l.broadcastAppend()
			h.s.RunFor(sim.Second)
			h.requireApplied(t, k)
		})
	}
}

// TestAppendsToleratesReordering delivers a burst's appends to every peer
// in reverse order. Appends are cumulative from the peer's match index, so
// any arrival order is acceptable: nothing is rejected, everything commits.
func TestAppendsToleratesReordering(t *testing.T) {
	const k = 8
	h := newLinkHarness(t, 2, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5}, linkDelay, 30*sim.Second)
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(sim.Second)
	type held struct {
		to  simnet.NodeID
		msg Message
	}
	var stack []held
	rejects := 0
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if msg.Kind == MsgAppResp && !msg.Success {
			rejects++
		}
		if msg.Kind == MsgApp && len(msg.Entries) > 0 && stack != nil {
			stack = append(stack, held{to, msg})
			return true
		}
		return false
	}
	stack = []held{}
	h.burst(t, l, k)
	release := stack
	stack = nil
	for i := len(release) - 1; i >= 0; i-- {
		h.deliver(1, release[i].to, release[i].msg)
		h.s.RunFor(sim.Millisecond)
	}
	h.s.RunFor(sim.Second)
	if l.CommitIndex() != l.LastIndex() {
		t.Fatalf("commit index %d, log ends at %d", l.CommitIndex(), l.LastIndex())
	}
	if rejects != 0 {
		t.Fatalf("reordered appends drew %d rejects", rejects)
	}
	l.broadcastAppend()
	h.s.RunFor(sim.Second)
	h.requireApplied(t, k)
}

// TestLostAppendsRecoverOnHeartbeat drops every append to one peer for a
// whole burst: no ack ever comes back to trigger a re-send, so the next
// heartbeat must carry everything the peer lacks in one cumulative append.
func TestLostAppendsRecoverOnHeartbeat(t *testing.T) {
	const k = 8
	h := newLinkHarness(t, 3, []simnet.NodeID{1, 2, 3}, nil, linkDelay, 0)
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(sim.Second)
	dropping := true
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		return dropping && to == 3 && msg.Kind == MsgApp
	}
	h.burst(t, l, k)
	h.s.RunFor(4 * linkDelay)
	if got := len(h.applied[3]); got != 0 {
		t.Fatalf("setup: node 3 applied %d entries through a dead link", got)
	}
	dropping = false
	h.sent = map[msgClass]int{}
	h.s.RunFor(l.heartbeatInterval + 2*linkDelay)
	if got := h.nodes[3].LastIndex(); got != l.LastIndex() {
		t.Fatalf("node 3 log ends at %d, leader at %d", got, l.LastIndex())
	}
	if got := h.appends(1, 3); got != 1 {
		t.Fatalf("catch-up took %d appends, want one cumulative append", got)
	}
	h.s.RunFor(sim.Second)
	h.requireApplied(t, k)
}

// TestDeposedLeaderCannotMutateInFlightEntries holds an append whose
// Entries alias the leader's log, deposes that leader and lets its
// successor overwrite the uncommitted suffix. The overwrite must go to a
// fresh array: the message still in flight keeps the entries it was sent
// with.
func TestDeposedLeaderCannotMutateInFlightEntries(t *testing.T) {
	h := newLinkHarness(t, 4, []simnet.NodeID{1, 2, 3}, nil, linkDelay, 30*sim.Second)
	old := h.nodes[1]
	old.Campaign()
	h.s.RunFor(sim.Second)
	// Cut node 1 off: its appends go nowhere, the last one is kept.
	var inFlight *Message
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if from != 1 || msg.Kind != MsgApp || !old.IsLeader() {
			return false
		}
		if len(msg.Entries) > 0 {
			m := msg
			inFlight = &m
		}
		return true
	}
	for _, v := range []string{"x1", "x2", "x3"} {
		if _, err := old.Propose(v); err != nil {
			t.Fatal(err)
		}
	}
	if inFlight == nil || len(inFlight.Entries) != 3 {
		t.Fatalf("setup: held %+v", inFlight)
	}
	want := append([]Entry(nil), inFlight.Entries...)

	// Node 2 takes over (node 3's vote is enough) and overwrites the
	// uncommitted suffix on node 1.
	h.nodes[2].Campaign()
	h.s.RunFor(sim.Second)
	if !h.nodes[2].IsLeader() || old.IsLeader() {
		t.Fatalf("setup: roles %v %v", old.role, h.nodes[2].role)
	}
	h.s.Spawn("proposer", func(p *sim.Proc) {
		for _, v := range []string{"y1", "y2", "y3", "y4"} {
			f, err := h.nodes[2].Propose(v)
			if err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			f.Wait(p)
		}
	})
	h.s.RunFor(2 * sim.Second)
	if got := old.at(want[0].Index); got.Term == want[0].Term {
		t.Fatalf("setup: node 1 still holds the deposed suffix at %d: %+v", got.Index, got)
	}
	for i, e := range inFlight.Entries {
		if e != want[i] {
			t.Fatalf("in-flight entry %d changed under the message: %+v, sent as %+v", i, e, want[i])
		}
	}
}

// TestStaleAckDoesNotRewindNext replays an old ack: it must not move the
// peer's progress backwards nor provoke a send.
func TestStaleAckDoesNotRewindNext(t *testing.T) {
	h := newLinkHarness(t, 5, []simnet.NodeID{1, 2, 3}, nil, linkDelay, 30*sim.Second)
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(sim.Second)
	h.burst(t, l, 8)
	h.s.RunFor(sim.Second)
	before := *l.progress[2]
	if before.match != l.LastIndex() || before.next != before.match+1 {
		t.Fatalf("setup: progress %+v, log ends at %d", before, l.LastIndex())
	}
	h.sent = map[msgClass]int{}
	l.Step(Message{Kind: MsgAppResp, Term: l.Term(), From: 2, Success: true, MatchIndex: 2})
	if after := *l.progress[2]; after != before {
		t.Fatalf("stale ack moved progress %+v -> %+v", before, after)
	}
	if len(h.sent) != 0 {
		t.Fatalf("stale ack provoked %v", h.sent)
	}
}

// TestRemovedPeerProgressIsForgotten: a peer removed from the group and
// added back under the same leader is a blank replica; it must start from
// fresh progress (an initial snapshot where one is configured), not from
// the match and next index of the replica that was removed.
func TestRemovedPeerProgressIsForgotten(t *testing.T) {
	h := newLinkHarness(t, 6, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4}, linkDelay, 0)
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(sim.Second)
	h.burst(t, l, 4)
	h.s.RunFor(sim.Second)
	if pr := l.progress[4]; pr == nil || pr.match != l.LastIndex() {
		t.Fatalf("setup: learner progress %+v, log ends at %d", pr, l.LastIndex())
	}
	reconfigure := func(cc ConfChange) {
		t.Helper()
		if _, err := l.ProposeConfChange(cc); err != nil {
			t.Fatal(err)
		}
		h.s.RunFor(sim.Second)
	}
	reconfigure(ConfChange{Type: RemoveLearner, Node: 4})
	if pr := l.progress[4]; pr != nil {
		t.Fatalf("removed peer keeps progress %+v", pr)
	}
	for _, id := range l.peers() {
		if id == 4 {
			t.Fatal("removed peer still in the broadcast list")
		}
	}
	h.intercept = func(from, to simnet.NodeID, msg Message) bool { return to == 4 }
	reconfigure(ConfChange{Type: AddLearner, Node: 4})
	if pr := l.progress[4]; pr == nil || pr.match != 0 || pr.next > 1 {
		t.Fatalf("re-added peer starts from %+v, want fresh progress", pr)
	}
}

// beat is the heartbeat interval of the idle-traffic tests below; the links
// are fast beside it, so a round trip never straddles a tick.
const beat = 400 * sim.Millisecond

// elect makes node 1 of a fresh link harness the leader and lets the
// election's own traffic drain.
func (h *harness) elect(t *testing.T) *Node {
	t.Helper()
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(2 * beat)
	if !l.IsLeader() || l.CommitIndex() != l.LastIndex() {
		t.Fatalf("setup: node 1 is %v, commit %d of %d", l.role, l.CommitIndex(), l.LastIndex())
	}
	return l
}

// TestIdleGroupTraffic pins what an idle group costs: one empty append per
// peer per heartbeat interval and nothing in return — a follower does not
// answer an append that matched and carried nothing.
func TestIdleGroupTraffic(t *testing.T) {
	h := newLinkHarness(t, 7, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5}, sim.Millisecond, beat)
	h.elect(t)
	h.sent = map[msgClass]int{}
	h.s.RunFor(20 * beat)
	for _, peer := range []simnet.NodeID{2, 3, 4, 5} {
		if got := h.heartbeats(1, peer); got != 20 {
			t.Errorf("peer %d received %d empty appends in 20 intervals", peer, got)
		}
	}
	if len(h.sent) != 4 {
		t.Errorf("messages on the wire: %v, want only the leader's empty appends", h.sent)
	}
}

// TestBusyLeaderSendsNoTimerHeartbeats: every proposal's broadcast is a
// heartbeat, so a leader that proposes more often than the interval sends
// no empty append at all, and however bursts and pauses alternate no link
// stays silent for longer than the interval.
func TestBusyLeaderSendsNoTimerHeartbeats(t *testing.T) {
	h := newLinkHarness(t, 8, []simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5}, sim.Millisecond, beat)
	l := h.elect(t)
	lastApp := map[simnet.NodeID]sim.Time{}
	var maxGap sim.Duration
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if from == 1 && msg.Kind == MsgApp {
			if prev, ok := lastApp[to]; ok && h.s.Now().Sub(prev) > maxGap {
				maxGap = h.s.Now().Sub(prev)
			}
			lastApp[to] = h.s.Now()
		}
		return false
	}
	propose := func(p *sim.Proc, n int, every sim.Duration) {
		for i := 0; i < n; i++ {
			if _, err := l.Propose(i); err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			p.Sleep(every)
		}
	}

	h.sent = map[msgClass]int{}
	h.s.Spawn("steady", func(p *sim.Proc) { propose(p, 40, beat/2) })
	h.s.RunFor(20 * beat)
	for _, peer := range []simnet.NodeID{2, 3, 4, 5} {
		if got := h.heartbeats(1, peer); got != 0 {
			t.Errorf("peer %d received %d empty appends from a leader proposing every interval/2", peer, got)
		}
		if got := h.appends(1, peer); got != 40 {
			t.Errorf("peer %d received %d appends for 40 proposals", peer, got)
		}
	}

	// Bursts of different lengths and spacings, pauses of 0.3 to 3.7 intervals.
	h.s.Spawn("bursty", func(p *sim.Proc) {
		for round := 0; round < 12; round++ {
			propose(p, 1+round%4, sim.Duration(1+round%5)*beat/7)
			p.Sleep(sim.Duration(3+10*(round%4)) * beat / 10)
		}
	})
	h.s.RunFor(60 * beat)
	if maxGap > beat {
		t.Errorf("a link stayed silent for %v, heartbeat interval is %v", maxGap, beat)
	}
	if len(lastApp) != 4 || maxGap < beat {
		t.Errorf("setup: saw appends to %d peers, longest gap %v", len(lastApp), maxGap)
	}
}

// TestRegainedLeadershipKeepsOneHeartbeatChain: a node that loses and
// regains leadership inside one heartbeat interval (kv does this whenever a
// follower wins a spurious election and hands leadership back to the live
// leaseholder) must end up with one heartbeat timer, not one per term led.
func TestRegainedLeadershipKeepsOneHeartbeatChain(t *testing.T) {
	h := newLinkHarness(t, 9, []simnet.NodeID{1, 2, 3}, nil, sim.Millisecond, beat)
	l := h.elect(t)
	perWindow := func() int {
		h.sent = map[msgClass]int{}
		h.s.RunFor(10 * beat)
		return h.heartbeats(1, 2) + h.appends(1, 2)
	}
	if got := perWindow(); got != 10 {
		t.Fatalf("setup: %d appends to node 2 in 10 intervals", got)
	}
	l.TransferLeadership(2)
	h.s.RunFor(20 * sim.Millisecond)
	if !h.nodes[2].IsLeader() || l.IsLeader() {
		t.Fatalf("setup: roles %v %v after the first transfer", l.role, h.nodes[2].role)
	}
	h.nodes[2].TransferLeadership(1)
	h.s.RunFor(20 * sim.Millisecond)
	if !l.IsLeader() {
		t.Fatalf("setup: node 1 is %v after the transfer back", l.role)
	}
	h.s.RunFor(beat) // the no-op's replication is not the timer's doing
	for window := 0; window < 2; window++ {
		if got := perWindow(); got != 10 {
			t.Fatalf("%d appends to node 2 in 10 intervals after regaining leadership, want 10", got)
		}
	}
}

// TestEmptyAppendStillRejectsAndDeposes: only an empty append that matched
// goes unanswered. One whose prev does not match still draws its reject,
// and one from a deposed leader still learns the current term.
func TestEmptyAppendStillRejectsAndDeposes(t *testing.T) {
	h := newLinkHarness(t, 10, []simnet.NodeID{1, 2, 3}, nil, sim.Millisecond, beat)
	l := h.elect(t)
	f := h.nodes[2]
	var replies []Message
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if from == 2 {
			replies = append(replies, msg)
		}
		return from == 2
	}
	last := l.log[len(l.log)-1]

	f.Step(Message{Kind: MsgApp, Term: l.Term(), From: 1, PrevLogIndex: last.Index, PrevLogTerm: last.Term, LeaderCommit: l.CommitIndex()})
	if len(replies) != 0 {
		t.Fatalf("a matching empty append was answered with %+v", replies)
	}

	f.Step(Message{Kind: MsgApp, Term: l.Term(), From: 1, PrevLogIndex: last.Index + 3, PrevLogTerm: last.Term})
	if len(replies) != 1 || replies[0].Kind != MsgAppResp || replies[0].Success || replies[0].MatchIndex != last.Index {
		t.Fatalf("empty append past the log end drew %+v, want a reject hinting %d", replies, last.Index)
	}
	f.Step(Message{Kind: MsgApp, Term: l.Term(), From: 1, PrevLogIndex: last.Index, PrevLogTerm: last.Term + 1})
	if len(replies) != 2 || replies[1].Kind != MsgAppResp || replies[1].Success {
		t.Fatalf("empty append with the wrong prev term drew %+v, want a reject", replies[1:])
	}

	f.Step(Message{Kind: MsgApp, Term: l.Term() - 1, From: 3, PrevLogIndex: last.Index, PrevLogTerm: last.Term})
	if len(replies) != 3 || replies[2].Kind != MsgAppResp || replies[2].Success || replies[2].Term != l.Term() {
		t.Fatalf("stale-term empty append drew %+v, want a reply carrying term %d", replies[2:], l.Term())
	}
}

// TestNewLeaderLearnsMatchWithoutHeartbeatAcks loses every ack of the new
// leader's no-op. No empty append would ever draw another, but the leader
// sends none: its next for a peer moves past an entry only on that peer's
// ack, so the next heartbeat carries the no-op again and is answered.
func TestNewLeaderLearnsMatchWithoutHeartbeatAcks(t *testing.T) {
	h := newLinkHarness(t, 11, []simnet.NodeID{1, 2, 3}, nil, sim.Millisecond, beat)
	dropped := 0
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if msg.Kind == MsgAppResp && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(beat / 2)
	if !l.IsLeader() || dropped != 2 || l.CommitIndex() == l.LastIndex() {
		t.Fatalf("setup: %v, %d acks dropped, commit %d of %d", l.role, dropped, l.CommitIndex(), l.LastIndex())
	}
	h.sent = map[msgClass]int{}
	h.s.RunFor(beat)
	for _, peer := range []simnet.NodeID{2, 3} {
		if h.appends(1, peer) != 1 || h.heartbeats(1, peer) != 0 || h.acks(peer, 1) != 1 {
			t.Errorf("peer %d: traffic %v, want one append with entries and its ack", peer, h.sent)
		}
	}
	if l.CommitIndex() != l.LastIndex() {
		t.Fatalf("commit index %d, log ends at %d", l.CommitIndex(), l.LastIndex())
	}
	h.sent = map[msgClass]int{}
	h.s.RunFor(5 * beat)
	if h.heartbeats(1, 2) != 5 || h.acks(2, 1) != 0 {
		t.Fatalf("once acked the group is not idle: %v", h.sent)
	}
}

// manualStorage is a Storage whose fsyncs complete when the test says so.
type manualStorage struct {
	records []HardState // hard state of every Append, in order
	waiting []Completion
}

func (m *manualStorage) Append(hs HardState, entries []Entry, c Completion) {
	m.records = append(m.records, hs)
	m.waiting = append(m.waiting, c)
}
func (m *manualStorage) Compact(index, term uint64, tail []Entry, hs HardState) {}
func (m *manualStorage) Reset(index, term uint64, hs HardState)                 {}

// sync completes every pending fsync, in order.
func (m *manualStorage) sync() {
	for len(m.waiting) > 0 {
		c := m.waiting[0]
		m.waiting = m.waiting[1:]
		c.Run()
	}
}

// TestIdleDurableFollowerWritesNothing: with a Storage, an append that
// changes nothing costs the follower no WAL record and no fsync — but one
// that changes the hard state still persists it before anything is sent.
func TestIdleDurableFollowerWritesNothing(t *testing.T) {
	disks := map[simnet.NodeID]*manualStorage{}
	h := newStorageHarness(t, 12, []simnet.NodeID{1, 2, 3}, nil, sim.Millisecond, beat, func(id simnet.NodeID) Storage {
		disks[id] = &manualStorage{}
		return disks[id]
	})
	syncAll := func() {
		for _, id := range []simnet.NodeID{1, 2, 3} {
			disks[id].sync()
		}
	}
	l := h.nodes[1]
	l.Campaign()
	for i := 0; i < 20; i++ { // fsyncs complete a millisecond after they start
		h.s.RunFor(sim.Millisecond)
		syncAll()
	}
	if !l.IsLeader() || l.CommitIndex() != l.LastIndex() {
		t.Fatalf("setup: node 1 is %v, commit %d of %d", l.role, l.CommitIndex(), l.LastIndex())
	}
	f, disk := h.nodes[2], disks[2]
	if f.DurableIndex() != f.LastIndex() {
		t.Fatalf("setup: follower durable through %d of %d", f.DurableIndex(), f.LastIndex())
	}

	before := len(disk.records)
	h.sent = map[msgClass]int{}
	h.s.RunFor(20 * beat)
	if h.heartbeats(1, 2) != 20 {
		t.Fatalf("setup: follower received %d empty appends", h.heartbeats(1, 2))
	}
	if got := len(disk.records) - before; got != 0 || len(disk.waiting) != 0 {
		t.Fatalf("idle follower wrote %d WAL records and has %d fsyncs pending over 20 intervals", got, len(disk.waiting))
	}
	if h.acks(2, 1) != 0 {
		t.Fatalf("idle follower sent %d acks", h.acks(2, 1))
	}

	// The same empty append from a leader of a later term moves the hard
	// state: it is staged, and the ack waits for the fsync.
	var replies []Message
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if from == 2 {
			replies = append(replies, msg)
		}
		return from == 2
	}
	last, term := f.log[len(f.log)-1], f.Term()+1
	f.Step(Message{Kind: MsgApp, Term: term, From: 3, PrevLogIndex: last.Index, PrevLogTerm: last.Term})
	if got := len(disk.records) - before; got != 1 || disk.records[before] != (HardState{Term: term}) {
		t.Fatalf("term-changing append staged %v, want one record with term %d", disk.records[before:], term)
	}
	if len(replies) != 0 {
		t.Fatalf("follower answered %+v before its new term was durable", replies)
	}
	disk.sync()
	if len(replies) != 1 || !replies[0].Success || replies[0].Term != term || replies[0].MatchIndex != last.Index {
		t.Fatalf("after the fsync the follower sent %+v, want one ack at term %d", replies, term)
	}
	// That hard state is now on disk: the next empty append is free again.
	f.Step(Message{Kind: MsgApp, Term: term, From: 3, PrevLogIndex: last.Index, PrevLogTerm: last.Term})
	if got := len(disk.records) - before; got != 1 || len(replies) != 1 {
		t.Fatalf("repeat of the append wrote %d records and drew %d replies", got-1, len(replies)-1)
	}
}

// TestQuorumShrinkingConfChangeResolvesLaterProposals pins the apply loop
// across a removal that shrinks the quorum. Voter 4 is silent, so voters 1–3
// are the quorum of four. A RemoveVoter(4) and two writes behind it reach
// voter 2; voter 3 gets only the removal. Its ack commits the removal, whose
// application makes {1, 2} a quorum of three, which commits the two writes
// at once. Both must apply after the removal, in log order, and both of
// their futures must resolve. Applying them from inside the removal's own
// application left their futures unresolved forever, so the writes'
// callers (latches, commit records) hung.
func TestQuorumShrinkingConfChangeResolvesLaterProposals(t *testing.T) {
	h := newLinkHarness(t, 9, []simnet.NodeID{1, 2, 3, 4}, nil, linkDelay, 0)
	h.intercept = func(from, to simnet.NodeID, msg Message) bool { return to == 4 }
	l := h.elect(t)
	var held []Message
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		if to == 3 && msg.Kind == MsgApp && len(msg.Entries) > 0 {
			held = append(held, msg)
			return true
		}
		return to == 4
	}
	var order []string
	l.cfg.Apply = func(e Entry) {
		if e.Conf != nil {
			order = append(order, "remove")
		} else if e.Data != nil {
			order = append(order, e.Data.(string))
		}
	}
	if _, err := l.ProposeConfChange(ConfChange{Type: RemoveVoter, Node: 4}); err != nil {
		t.Fatal(err)
	}
	var futures []*sim.Future[ProposeResult]
	for _, w := range []string{"a", "b"} {
		f, err := l.Propose(w)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	h.s.RunFor(sim.Second)
	if l.CommitIndex() == l.LastIndex() || len(held) == 0 {
		t.Fatalf("setup: commit %d of %d with %d appends to voter 3 held", l.CommitIndex(), l.LastIndex(), len(held))
	}
	removal := held[0]
	removal.Entries = removal.Entries[:1]
	if removal.Entries[0].Conf == nil {
		t.Fatalf("setup: first held append starts with %+v, want the removal", removal.Entries[0])
	}
	h.deliver(1, 3, removal)
	h.s.RunFor(sim.Second)
	if l.CommitIndex() != l.LastIndex() {
		t.Fatalf("commit %d of %d after the removal applied", l.CommitIndex(), l.LastIndex())
	}
	if got := strings.Join(order, ","); got != "remove,a,b" {
		t.Fatalf("leader applied %s, want remove,a,b", got)
	}
	for i, f := range futures {
		if !f.Done() {
			t.Fatalf("write %d applied but its proposal never resolved", i)
		}
	}
}
