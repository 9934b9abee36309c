package kv

import (
	"fmt"
	"slices"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
)

// livenessHarness is five stores with nothing on them but the liveness
// loop: n1, n2 in us-east1, n3, n4 in europe-west2 and n5 alone in
// asia-northeast1, so every node has one nearest peer (n5's is across an
// ocean) and every message the network carries is a ping or an ack.
type livenessHarness struct {
	s      *sim.Simulation
	net    *simnet.Network
	nl     *NodeLiveness
	stores map[simnet.NodeID]*Store
	start  sim.Time // when the heartbeat tickers were armed

	// pings and acks count delivered messages by {from, to}.
	pings, acks map[[2]simnet.NodeID]int
}

var livenessNodes = []simnet.NodeID{1, 2, 3, 4, 5}

func newLivenessHarness(t *testing.T, durable bool) *livenessHarness {
	t.Helper()
	s := sim.New(1)
	topo := simnet.NewTable1Topology()
	h := &livenessHarness{
		s:      s,
		net:    simnet.NewNetwork(s, topo),
		nl:     NewNodeLiveness(s),
		stores: map[simnet.NodeID]*Store{},
		start:  s.Now(),
	}
	h.resetCounts()
	reg := NewTxnRegistry(s, topo)
	regions := []simnet.Region{simnet.USEast1, simnet.USEast1, simnet.EuropeW2, simnet.EuropeW2, simnet.AsiaNE1}
	for i, id := range livenessNodes {
		topo.AddNode(id, simnet.Locality{Region: regions[i], Zone: simnet.Zone(fmt.Sprintf("%s-%d", regions[i], i))})
	}
	for _, id := range livenessNodes {
		st := NewStore(id, s, h.net, topo, hlc.NewClock(hlc.SimWallSource{Sim: s}, 250*sim.Millisecond), reg)
		if durable {
			st.Disk = storage.NewDisk(s, 1000+int64(id), obs.NewRegistry())
		}
		h.stores[id] = st
		h.net.Register(id, func(m simnet.Message) {
			switch m.Payload.(type) {
			case *livenessPing:
				h.pings[[2]simnet.NodeID{m.From, m.To}]++
			case *livenessAck:
				h.acks[[2]simnet.NodeID{m.From, m.To}]++
			default:
				t.Errorf("unexpected traffic %T", m.Payload)
			}
			st.handleMessage(m)
		})
	}
	// Registered first, started second: every node's first round already
	// sees all of its peers.
	for _, id := range livenessNodes {
		h.nl.Register(id)
	}
	for _, id := range livenessNodes {
		h.stores[id].StartLiveness(h.nl)
	}
	// Tests look at the loop half way between two ticks: every round trip
	// here is shorter than that, so a round is always complete.
	s.RunFor(LivenessHeartbeatInterval / 2)
	return h
}

func (h *livenessHarness) resetCounts() {
	h.pings = map[[2]simnet.NodeID]int{}
	h.acks = map[[2]simnet.NodeID]int{}
}

// pingsFrom lists where id's delivered pings went, in node order, and
// acksTo who answered it.
func (h *livenessHarness) pingsFrom(id simnet.NodeID) []simnet.NodeID {
	var out []simnet.NodeID
	for _, to := range livenessNodes {
		for i := 0; i < h.pings[[2]simnet.NodeID{id, to}]; i++ {
			out = append(out, to)
		}
	}
	return out
}

func (h *livenessHarness) acksTo(id simnet.NodeID) int {
	n := 0
	for _, from := range livenessNodes {
		n += h.acks[[2]simnet.NodeID{from, id}]
	}
	return n
}

// round forgets the counts and runs one heartbeat interval — one tick of
// every node and the acks it draws — in small steps, failing the test if a
// node in mustStayLive ever reads dead to its peers or to itself.
func (h *livenessHarness) round(t *testing.T, mustStayLive ...simnet.NodeID) {
	t.Helper()
	h.resetCounts()
	for i := 0; i < 20; i++ {
		h.s.RunFor(LivenessHeartbeatInterval / 20)
		for _, id := range mustStayLive {
			if !h.nl.Live(id, h.s.Now()) {
				t.Fatalf("t=%v: n%d's record expired", h.s.Now(), id)
			}
			if !h.stores[id].SelfLive() {
				t.Fatalf("t=%v: n%d stopped believing its own record", h.s.Now(), id)
			}
		}
	}
}

// TestLivenessSteadyStateIsOnePingPerNode: the first round reaches
// everyone; from then on a node sends one ping per interval, to the peer
// that answered first, and gets one ack.
func TestLivenessSteadyStateIsOnePingPerNode(t *testing.T) {
	h := newLivenessHarness(t, false)
	n := len(livenessNodes)
	h.round(t, livenessNodes...)
	for _, id := range livenessNodes {
		if got := h.pingsFrom(id); len(got) != n-1 || h.acksTo(id) != n-1 {
			t.Fatalf("first round: n%d reached %v and got %d acks, want all %d peers", id, got, h.acksTo(id), n-1)
		}
	}
	nearest := map[simnet.NodeID]simnet.NodeID{1: 2, 2: 1, 3: 4, 4: 3}
	sent := h.net.MessagesSent
	const rounds = 10
	for r := 0; r < rounds; r++ {
		h.round(t, livenessNodes...)
		for _, id := range livenessNodes {
			got := h.pingsFrom(id)
			if len(got) != 1 || h.acksTo(id) != 1 || h.acks[[2]simnet.NodeID{got[0], id}] != 1 {
				t.Fatalf("round %d: n%d pinged %v and got %d acks, want one peer and its ack", r, id, got, h.acksTo(id))
			}
			if want, ok := nearest[id]; ok && got[0] != want {
				t.Fatalf("round %d: n%d pinged n%d, its nearest peer is n%d", r, id, got[0], want)
			}
		}
	}
	if got := h.net.MessagesSent - sent; got != int64(rounds*n*2) {
		t.Fatalf("%d messages in %d rounds of %d nodes, want one ping and one ack per node per round", got, rounds, n)
	}
}

// TestLivenessDeadPeerFallsBackToEveryone kills the peer n1 heartbeats
// through: the next round goes unanswered, the one after reaches everyone,
// and at no instant does n1 read dead — to the others or to itself.
func TestLivenessDeadPeerFallsBackToEveryone(t *testing.T) {
	h := newLivenessHarness(t, false)
	live := []simnet.NodeID{1, 3, 4, 5}
	h.round(t, livenessNodes...)
	h.round(t, livenessNodes...)
	if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{2}) {
		t.Fatalf("setup: n1 heartbeats through %v", got)
	}
	h.net.CrashNode(2)

	h.round(t, live...)
	if got := h.pingsFrom(1); len(got) != 0 || h.acksTo(1) != 0 {
		t.Fatalf("round after the crash: n1 reached %v and got %d acks", got, h.acksTo(1))
	}
	h.round(t, live...)
	if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{3, 4, 5}) || h.acksTo(1) != 3 {
		t.Fatalf("fallback round: n1 reached %v and got %d acks, want every live peer", got, h.acksTo(1))
	}
	for r := 0; r < 3; r++ {
		h.round(t, live...)
		if got := h.pingsFrom(1); len(got) != 1 || got[0] == 2 || h.acksTo(1) != 1 {
			t.Fatalf("after the fallback: n1 reached %v and got %d acks, want one live peer", got, h.acksTo(1))
		}
	}
}

// TestLivenessOneWayPartitionRechoosesPeer cuts one direction of the link
// n1 heartbeats over. Losing the pings and losing the acks look the same
// to n1 — a round without an answer — and within two rounds it heartbeats
// through someone else, never having read dead.
func TestLivenessOneWayPartitionRechoosesPeer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to simnet.NodeID
	}{
		{"pings dropped", 1, 2},
		{"acks dropped", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newLivenessHarness(t, false)
			h.round(t, livenessNodes...)
			h.round(t, livenessNodes...)
			if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{2}) {
				t.Fatalf("setup: n1 heartbeats through %v", got)
			}
			h.net.PartitionOneWay(tc.from, tc.to)
			h.round(t, livenessNodes...)
			h.round(t, livenessNodes...)
			for r := 0; r < 3; r++ {
				h.round(t, livenessNodes...)
				if got := h.pingsFrom(1); len(got) != 1 || got[0] == 2 || h.acksTo(1) != 1 {
					t.Fatalf("round %d after the cut: n1 reached %v and got %d acks, want one peer other than n2", r+3, got, h.acksTo(1))
				}
			}
		})
	}
}

// TestLivenessExpiryInstantIsLastTickPlusTTL: a node that stops reaching
// anyone expires TTL after the last tick whose ping was delivered — the
// instant it would under all-to-all pings, since every ping of one tick
// carries the same expiration and the one to the nearest peer lands first.
func TestLivenessExpiryInstantIsLastTickPlusTTL(t *testing.T) {
	const victim = simnet.NodeID(5) // its nearest peer is 155ms of RTT away
	for _, tc := range []struct {
		name  string
		fault func(h *livenessHarness)
	}{
		{"crash", func(h *livenessHarness) { h.net.CrashNode(victim) }},
		{"isolation", func(h *livenessHarness) {
			for _, id := range livenessNodes[:4] {
				h.net.Partition(victim, id)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newLivenessHarness(t, false)
			for r := 0; r < 6; r++ {
				h.round(t, livenessNodes...)
			}
			h.s.RunFor(300 * sim.Millisecond) // 0.8 intervals past a tick: its ping has landed
			faultAt := h.s.Now()
			tc.fault(h)

			ticks := faultAt.Sub(h.start) / LivenessHeartbeatInterval
			lastTick := h.start.Add(ticks * LivenessHeartbeatInterval)
			if since := faultAt.Sub(lastTick); since < LivenessHeartbeatInterval/2 {
				t.Fatalf("setup: fault %v after the tick, want its ping delivered first", since)
			}
			exp := lastTick.Add(LivenessTTL)
			if got, ok := h.nl.Expiration(victim); !ok || got != exp {
				t.Fatalf("Expiration(n%d) = %v, %v right after the fault, want %v", victim, got, ok, exp)
			}

			h.s.RunFor(exp.Sub(h.s.Now()))
			if !h.nl.Live(victim, h.s.Now()) || h.nl.IncrementEpoch(victim, h.s.Now()) {
				t.Fatalf("n%d expired before last tick + TTL (%v)", victim, exp)
			}
			h.s.RunFor(1)
			if h.nl.Live(victim, h.s.Now()) {
				t.Fatalf("n%d still live past last tick + TTL (%v)", victim, exp)
			}
			if !h.nl.IncrementEpoch(victim, h.s.Now()) {
				t.Fatalf("n%d cannot be fenced the instant after %v", victim, exp)
			}
			h.s.RunFor(2 * LivenessTTL)
			if got, _ := h.nl.Expiration(victim); got != exp {
				t.Fatalf("Expiration(n%d) reads %v after the fault, want %v", victim, got, exp)
			}
			if _, ok := h.nl.Expiration(99); ok {
				t.Fatal("Expiration of an unregistered node reports a record")
			}
			if h.stores[victim].SelfLive() {
				t.Fatalf("n%d still believes its own record at %v", victim, h.s.Now())
			}
			for _, id := range livenessNodes[:4] {
				if !h.nl.Live(id, h.s.Now()) || !h.stores[id].SelfLive() {
					t.Fatalf("n%d did not survive n%d's fault", id, victim)
				}
			}
		})
	}
}

// TestLivenessRestartPingsEveryone crashes and recovers n1 between two
// ticks, so no unanswered round comes to its aid: Crash itself must forget
// the peer n1 heartbeated through. The first round after the restart goes
// to everyone, and n1 is live again only once a peer acks its new epoch.
func TestLivenessRestartPingsEveryone(t *testing.T) {
	h := newLivenessHarness(t, true)
	st := h.stores[1]
	for r := 0; r < 5; r++ {
		h.round(t, livenessNodes...)
	}
	if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{2}) {
		t.Fatalf("setup: n1 heartbeats through %v", got)
	}
	before := h.nl.Epoch(1)
	h.net.CrashNode(1)
	st.Crash()
	recovered := false
	h.s.Spawn("restart", func(p *sim.Proc) {
		if _, err := st.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
		}
		h.net.RestartNode(1)
		recovered = true
	})
	h.s.RunFor(LivenessHeartbeatInterval / 4)
	if !recovered {
		t.Fatal("setup: recovery still running at the next tick")
	}
	epoch := h.nl.Epoch(1)
	if epoch <= before || st.SelfLive() || st.CurrentEpoch() != 0 {
		t.Fatalf("restarted n1: epoch %d -> %d, SelfLive %v, confirmed epoch %d; want a bumped epoch no peer has confirmed",
			before, epoch, st.SelfLive(), st.CurrentEpoch())
	}
	h.s.RunFor(LivenessHeartbeatInterval / 4)

	h.resetCounts()
	h.s.RunFor(LivenessHeartbeatInterval)
	if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{2, 3, 4, 5}) {
		t.Fatalf("first round after the restart reached %v, want everyone", got)
	}
	if !st.SelfLive() || st.CurrentEpoch() != epoch {
		t.Fatalf("after that round: SelfLive %v, confirmed epoch %d, want live at epoch %d", st.SelfLive(), st.CurrentEpoch(), epoch)
	}
	h.round(t, livenessNodes...)
	if got := h.pingsFrom(1); !slices.Equal(got, []simnet.NodeID{2}) || h.acksTo(1) != 1 {
		t.Fatalf("second round after the restart reached %v (%d acks), want the nearest peer again", got, h.acksTo(1))
	}
}

// TestSelfLiveFalseAfterEarlyRestart crashes and recovers n1 one second into
// the simulation, inside the first LivenessTTL. "Never acked" used to be
// stored as lastAck = 0, which is also a time — the start of the simulation —
// so until t = 3s a restarted node read as confirmed at t = 0 and believed
// itself live at an epoch no peer had told it. It must believe nothing until
// the first ack of its new epoch arrives.
func TestSelfLiveFalseAfterEarlyRestart(t *testing.T) {
	h := newLivenessHarness(t, true) // t = 0.5s
	st := h.stores[1]
	h.s.RunFor(LivenessHeartbeatInterval / 2)
	if now := h.s.Now(); now != sim.Time(sim.Second) || !st.SelfLive() {
		t.Fatalf("setup: t=%v SelfLive=%v, want 1s and live", now, st.SelfLive())
	}
	h.net.CrashNode(1)
	st.Crash()
	if st.SelfLive() {
		t.Fatal("crashed n1 believes itself live")
	}
	h.s.Spawn("restart", func(p *sim.Proc) {
		if _, err := st.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
		}
		h.net.RestartNode(1)
	})
	h.resetCounts()
	sawDead, sawLive := false, false
	for h.s.Now() < sim.Time(LivenessTTL) {
		h.s.RunFor(100 * sim.Microsecond)
		acked := h.acksTo(1) > 0
		if st.SelfLive() != acked {
			t.Fatalf("t=%v: SelfLive=%v with %d acks delivered since the restart", h.s.Now(), st.SelfLive(), h.acksTo(1))
		}
		sawDead, sawLive = sawDead || !acked, sawLive || acked
	}
	if !sawDead || !sawLive {
		t.Fatalf("the first TTL saw dead=%v live=%v, want both: an ack has to arrive, and not at once", sawDead, sawLive)
	}
}

// TestSelfLiveEndsAtAckedExpiration: a node believes its own record only as
// long as the record an ack confirmed lives, which is until the acked ping's
// expiration, not a TTL after the ack arrived. n5's one heartbeat peer is
// across an ocean, so its ack lands a WAN round trip after the ping left. Cut
// off right after an ack, n5 must stop serving its leases the instant its
// record expires, when a peer may bump its epoch; it used to go on believing
// itself live for that round trip more.
func TestSelfLiveEndsAtAckedExpiration(t *testing.T) {
	h := newLivenessHarness(t, false)
	h.round(t, livenessNodes...)
	h.round(t, livenessNodes...)
	h.resetCounts()
	for h.acksTo(5) == 0 {
		h.s.RunFor(sim.Millisecond)
	}
	for _, peer := range livenessNodes[:4] {
		h.net.Partition(5, peer)
	}
	var acker simnet.NodeID
	for _, peer := range livenessNodes[:4] {
		if h.acks[[2]simnet.NodeID{peer, 5}] > 0 {
			acker = peer
		}
	}
	exp, _ := h.nl.Expiration(5)
	if rtt := h.net.Topo.NodeRTT(5, acker); !h.net.WAN(5, acker) || exp.Sub(h.s.Now()) > LivenessTTL-rtt*9/10 {
		t.Fatalf("setup: n5's record expires %v after n%d's ack landed, want a TTL less the %v round trip across the WAN", exp.Sub(h.s.Now()), acker, rtt)
	}
	h.s.RunUntil(exp)
	if !h.stores[5].SelfLive() {
		t.Errorf("t=%v: n5 stopped believing its record before it expired at %v", h.s.Now(), exp)
	}
	h.s.RunUntil(exp.Add(1))
	if h.stores[5].SelfLive() {
		t.Errorf("t=%v: n5 still believes its record, which expired at %v", h.s.Now(), exp)
	}
	if !h.nl.IncrementEpoch(5, h.s.Now()) {
		t.Errorf("t=%v: a peer could not bump n5's expired epoch", h.s.Now())
	}
}
