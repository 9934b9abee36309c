package raft

import (
	"slices"
	"sort"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/storage"
)

// envelope is one message a queueTransport holds until the test delivers it.
type envelope struct {
	from, to simnet.NodeID
	msg      Message
}

// queueTransport appends every message to a shared queue: nothing is
// allocated per message once the queue has grown, so a round's allocations
// are the node's own.
type queueTransport struct {
	q    *[]envelope
	from simnet.NodeID
}

func (t queueTransport) Send(to simnet.NodeID, msg Message) {
	*t.q = append(*t.q, envelope{t.from, to, msg})
}

// laterStorage is a Storage whose fsyncs complete when the test runs them.
type laterStorage struct{ waiting []Completion }

func (l *laterStorage) Append(hs HardState, entries []Entry, c Completion) {
	l.waiting = append(l.waiting, c)
}
func (l *laterStorage) Compact(index, term uint64, tail []Entry, hs HardState) {}
func (l *laterStorage) Reset(index, term uint64, hs HardState)                 {}

// queueGroup is a group stepped by hand: deliver hands over every queued
// message (and those they cause), then completes every pending fsync, until
// nothing is left.
type queueGroup struct {
	nodes map[simnet.NodeID]*Node
	q     []envelope
	disks []*laterStorage
}

func newQueueGroup(voters, learners []simnet.NodeID, durable bool) *queueGroup {
	g := &queueGroup{nodes: map[simnet.NodeID]*Node{}}
	s := sim.New(1)
	for _, id := range append(append([]simnet.NodeID{}, voters...), learners...) {
		cfg := Config{ID: id, Voters: voters, Learners: learners, Sim: s, Transport: queueTransport{&g.q, id}}
		if durable {
			d := &laterStorage{}
			g.disks = append(g.disks, d)
			cfg.Storage = d
		}
		g.nodes[id] = NewNode(cfg)
	}
	return g
}

func (g *queueGroup) deliver() {
	for {
		for i := 0; i < len(g.q); i++ {
			e := g.q[i]
			g.nodes[e.to].Step(e.msg)
		}
		g.q = g.q[:0]
		synced := false
		for _, d := range g.disks {
			for i := 0; i < len(d.waiting); i++ {
				d.waiting[i].Run()
				synced = true
			}
			d.waiting = d.waiting[:0]
		}
		if !synced && len(g.q) == 0 {
			return
		}
	}
}

// command is a proposal's payload. The proposer owns it and proposes a
// pointer, as the kv layer proposes a *kv.Command from its replica's chunks.
type command struct{ a, b uint64 }

// TestProposalRoundAllocs pins what a steady-state proposal round costs in
// objects on three voters and two learners, from Propose to the entry
// applied on all five and its future set: nothing. The command is the
// proposer's, the future comes from the node's chunks, and persisting an
// append, committing it and naming its quorum allocate nothing — with nil
// Storage, and with a Storage whose fsyncs complete later.
func TestProposalRoundAllocs(t *testing.T) {
	for _, durable := range []bool{false, true} {
		g := newQueueGroup([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5}, durable)
		l := g.nodes[1]
		l.Campaign()
		g.deliver()
		if !l.IsLeader() {
			t.Fatalf("durable=%v: node 1 did not win its election", durable)
		}
		var f *sim.Future[ProposeResult]
		cmds := make([]command, 402)
		i := uint64(0)
		round := func() {
			i++
			cmds[i] = command{i, i}
			var err error
			if f, err = l.Propose(&cmds[i]); err != nil {
				t.Fatal(err)
			}
			g.deliver()
		}
		// Warm up, then compact every log so the measured rounds append
		// into capacity a previous interval left.
		for k := 0; k < 300; k++ {
			round()
		}
		for _, n := range g.nodes {
			n.Compact(n.Applied())
		}
		allocs := testing.AllocsPerRun(100, round)
		if !f.Done() || f.Wait(nil).Err != nil || len(f.Wait(nil).Acks()) < 2 {
			t.Fatalf("durable=%v: last proposal %+v", durable, f.Wait(nil))
		}
		// The others learn the last commit from the next append.
		for id, n := range g.nodes {
			if want := l.LastIndex() - 1; n.Applied() < want || l.Applied() != l.LastIndex() {
				t.Fatalf("durable=%v: node %d applied %d of %d", durable, id, n.Applied(), l.LastIndex())
			}
		}
		if allocs != 0 {
			t.Errorf("durable=%v: a proposal round allocates %v objects, want 0 (neither a boxed command nor a future of its own)", durable, allocs)
		}
	}
}

// refAckSet is the quorum as the node once computed it: the voters whose
// match index covers idx, from the voter map, sorted.
func refAckSet(n *Node, idx uint64) []simnet.NodeID {
	var acks []simnet.NodeID
	for v := range n.voters {
		if n.progress[v].match >= idx {
			acks = append(acks, v)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	return acks
}

// TestQuorumMaskMatchesAckSet: the bitmask quorum expands to exactly the
// sorted voter set the old ackSet returned at commit time — with a voter
// that never acks, and across AddVoter and RemoveVoter — and a voter list
// a result holds is never changed by a later conf change.
func TestQuorumMaskMatchesAckSet(t *testing.T) {
	h := newHarness(t, 21, []simnet.NodeID{1, 2, 3, 4, 5}, []simnet.NodeID{6})
	h.intercept = func(from, to simnet.NodeID, msg Message) bool {
		// Voter 5 lags: it hears the leader, but no ack of it arrives.
		return from == 5 && msg.Kind == MsgAppResp
	}
	l := h.nodes[1]
	l.Campaign()
	h.s.RunFor(2 * sim.Second)
	if !l.IsLeader() {
		t.Fatal("node 1 did not win its election")
	}
	ref := map[uint64][]simnet.NodeID{}
	apply := l.cfg.Apply
	l.cfg.Apply = func(e Entry) {
		apply(e)
		ref[e.Index] = refAckSet(l, e.Index) // the state the result's quorum is read from
	}
	var results []ProposeResult
	propose := func(f *sim.Future[ProposeResult], err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for !f.Done() {
			h.s.RunFor(10 * sim.Millisecond)
		}
		results = append(results, f.Wait(nil))
	}
	for k := 0; k < 5; k++ {
		propose(l.Propose(command{uint64(k), 0}))
	}
	first := slices.Clone(results[0].Voters)
	propose(l.ProposeConfChange(ConfChange{Type: AddVoter, Node: 6}))
	for k := 0; k < 5; k++ {
		propose(l.Propose(command{uint64(k), 1}))
	}
	propose(l.ProposeConfChange(ConfChange{Type: RemoveVoter, Node: 2}))
	for k := 0; k < 5; k++ {
		propose(l.Propose(command{uint64(k), 2}))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("index %d: %v", r.Index, r.Err)
		}
		got, want := r.Acks(), ref[r.Index]
		if !slices.Equal(got, want) {
			t.Errorf("index %d: quorum %v, ackSet %v", r.Index, got, want)
		}
		if slices.Contains(got, 5) {
			t.Errorf("index %d: quorum %v names the voter that never acked", r.Index, got)
		}
	}
	last := results[len(results)-1]
	if !slices.Equal(last.Voters, []simnet.NodeID{1, 3, 4, 5, 6}) {
		t.Errorf("voters after the conf changes: %v", last.Voters)
	}
	if !slices.Equal(results[0].Voters, first) || !slices.Equal(first, []simnet.NodeID{1, 2, 3, 4, 5}) {
		t.Errorf("first result's voters now %v, were %v", results[0].Voters, first)
	}
}

// walStorage persists a node's appends into a WAL on a simulated disk,
// carrying each completion in its fsync's event as the kv layer does.
type walStorage struct{ wal *storage.WAL }

func (w walStorage) Append(hs HardState, entries []Entry, c Completion) {
	w.wal.Append([]byte{byte(len(entries))})
	storage.SyncWith(w.wal, Completion.Run, c)
}
func (w walStorage) Compact(index, term uint64, tail []Entry, hs HardState) {
	w.wal.ResetDurable([][]byte{{byte(len(tail))}})
}
func (w walStorage) Reset(index, term uint64, hs HardState) { w.Compact(index, term, nil, hs) }

// captureTransport records every message a node sends.
type captureTransport struct{ sent *[]Message }

func (c captureTransport) Send(to simnet.NodeID, msg Message) { *c.sent = append(*c.sent, msg) }

// TestInvalidatedSyncNeverAcks: a follower's append whose fsync a log
// rewrite or a crash loses never acks, nor does one whose entries a newer
// leader truncated while it synced, while a later append's ack still
// arrives; and when fsyncs finish out of start order (the disk got faster
// between them), each ack waits for its own sync and states only what is
// durable.
func TestInvalidatedSyncNeverAcks(t *testing.T) {
	app := func(prev, last, commit uint64) Message {
		m := Message{Kind: MsgApp, Term: 1, From: 1, PrevLogIndex: prev, PrevLogTerm: 1, LeaderCommit: commit}
		if prev == 0 {
			m.PrevLogTerm = 0
		}
		for i := prev + 1; i <= last; i++ {
			m.Entries = append(m.Entries, Entry{Term: 1, Index: i, Data: command{i, 0}})
		}
		return m
	}
	type follower struct {
		s    *sim.Simulation
		disk *storage.Disk
		sent []Message
	}
	start := func(f *follower) *Node {
		n := NewNode(Config{ID: 2, Voters: []simnet.NodeID{1, 2, 3}, Sim: f.s,
			Transport: captureTransport{&f.sent}, Storage: walStorage{f.disk.WAL("r1")}})
		return n
	}
	newFollower := func() *follower {
		s := sim.New(1)
		return &follower{s: s, disk: storage.NewDisk(s, 1, nil)}
	}
	acks := func(f *follower) []uint64 {
		var out []uint64
		for _, m := range f.sent {
			if m.Kind == MsgAppResp && m.Success {
				out = append(out, m.MatchIndex)
			}
		}
		return out
	}

	t.Run("rewrite", func(t *testing.T) {
		f := newFollower()
		n := start(f)
		n.Step(app(0, 3, 2)) // entries 1–3 staged, 1–2 committed and applied
		n.Compact(2)         // the WAL is rewritten before the fsync completes
		n.Step(app(3, 4, 2))
		f.s.Run()
		if got := acks(f); !slices.Equal(got, []uint64{4}) {
			t.Errorf("acks %v, want only the later append's, through 4", got)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		f := newFollower()
		n := start(f)
		n.Step(app(0, 3, 0)) // entries 1–3 of term 1, fsync pending
		// A leader of term 2 overwrites 2–3 before that fsync completes.
		m := Message{Kind: MsgApp, Term: 2, From: 3, PrevLogIndex: 1, PrevLogTerm: 1,
			Entries: []Entry{{Term: 2, Index: 2, Data: command{2, 2}}}}
		n.Step(m)
		f.s.Run()
		var got []Message
		for _, m := range f.sent {
			if m.Kind == MsgAppResp && m.Success {
				got = append(got, m)
			}
		}
		if len(got) != 1 || got[0].Term != 2 || got[0].MatchIndex != 2 {
			t.Errorf("acks %+v, want one, at term 2 through 2: the term-1 append's ack is stale", got)
		}
	})

	t.Run("crash", func(t *testing.T) {
		f := newFollower()
		n := start(f)
		n.Step(app(0, 3, 0))
		f.disk.Crash() // power loss before the fsync completes
		n.Stop()
		f.s.Run()
		if got := acks(f); len(got) != 0 {
			t.Fatalf("acks %v from an append whose fsync was lost", got)
		}
		n = start(f) // the restarted node, on the same disk
		n.Step(app(0, 3, 0))
		f.s.Run()
		if got := acks(f); !slices.Equal(got, []uint64{3}) {
			t.Errorf("acks %v after the restart, want one through 3", got)
		}
	})

	t.Run("out-of-order", func(t *testing.T) {
		f := newFollower()
		n := start(f)
		n.Step(app(0, 2, 0)) // fsync at 250µs
		f.disk.FsyncDelay = 50 * sim.Microsecond
		n.Step(app(2, 4, 0)) // fsync at 50µs: completes first
		f.s.RunFor(100 * sim.Microsecond)
		if got := acks(f); !slices.Equal(got, []uint64{4}) {
			t.Fatalf("acks %v once the later fsync completed, want one through 4", got)
		}
		f.s.Run()
		if got := acks(f); !slices.Equal(got, []uint64{4, 4}) {
			t.Errorf("acks %v after both fsyncs, want [4 4]", got)
		}
	})
}
