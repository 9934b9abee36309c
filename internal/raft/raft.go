// Package raft implements the consensus substrate that replicates each
// mrdb Range (paper §3.1): leader election, log replication with quorum
// commit, configuration changes, leadership transfer, and — central to the
// paper — learners ("non-voting replicas", §5.2) that receive the log and
// can serve follower reads but do not vote and therefore never affect write
// latency.
//
// The implementation runs on the deterministic simulator: timers come from
// sim.Simulation, transport from a caller-provided interface, and all state
// transitions happen in scheduler context.
package raft

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
)

// Role is a replica's current consensus role.
type Role int8

// Replica roles.
const (
	Follower Role = iota
	Candidate
	Leader
	Learner // receives the log, never votes or campaigns
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	case Learner:
		return "learner"
	}
	return "unknown"
}

// Entry is one log slot.
type Entry struct {
	Term  uint64
	Index uint64
	Data  interface{}
	// Conf, if non-nil, is a configuration change applied when the entry
	// commits.
	Conf *ConfChange
}

// ConfChangeType enumerates membership operations.
type ConfChangeType int8

// Membership operations.
const (
	AddVoter ConfChangeType = iota
	RemoveVoter
	AddLearner
	RemoveLearner
)

// ConfChange alters group membership.
type ConfChange struct {
	Type ConfChangeType
	Node simnet.NodeID
}

// Message is the union of Raft RPCs; Kind discriminates.
type Message struct {
	Kind MsgKind
	Term uint64
	From simnet.NodeID

	// RequestVote / response
	LastLogIndex uint64
	LastLogTerm  uint64
	VoteGranted  bool

	// AppendEntries / response (a reject echoes the PrevLogIndex it refused)
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
	Success      bool
	MatchIndex   uint64
	// Closed is the leader's closed-timestamp promise (§5.1.1); zero: none.
	// ClosedIndex is the log position it covers: a follower uses the
	// promise only once it has applied through that index.
	Closed      hlc.Timestamp
	ClosedIndex uint64

	// Snapshot install (leader → peer whose needed entries were compacted
	// away). Snapshot is opaque to raft: the bytes the leader's
	// Config.Snapshot wrote of its applied state at SnapIndex/SnapTerm.
	SnapIndex uint64
	SnapTerm  uint64
	Snapshot  []byte

	// TimeoutNow triggers an immediate campaign (leadership transfer).
}

// MsgKind discriminates Message.
type MsgKind int8

// Message kinds.
const (
	MsgVote MsgKind = iota
	MsgVoteResp
	MsgApp
	MsgAppResp
	MsgTimeoutNow
	MsgSnap
	// NumMsgKinds is the number of message kinds.
	NumMsgKinds = iota
)

var msgKindNames = [NumMsgKinds]string{"vote", "vote_resp", "app", "app_resp", "timeout_now", "snap"}

func (k MsgKind) String() string {
	if k >= 0 && int(k) < NumMsgKinds {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", int8(k))
}

// HardState is the durable core of a replica's consensus state: the pair
// that must survive a crash for Raft's voting rules to stay safe.
type HardState struct {
	Term uint64
	Vote simnet.NodeID
}

// Storage persists Raft state for one replica. A node built without one
// keeps its state in memory only (memStorage): a completion runs before
// persisting returns and nothing survives a crash.
//
// Every Append carries a Completion: the promise the node withholds until
// the append is durable (a vote request, a granted vote, the leader's count
// of its own entry, a follower's ack). The storage calls its Run once this
// Append's data and every earlier Append's data are durable. Completions
// may run in any order — a later sync may finish first, and each one's
// promise is stated in terms of its own append — but each runs at most
// once, and never if a crash or a log rewrite (Compact, Reset) loses the
// data first: an fsync that never returned promises nothing.
type Storage interface {
	// Append stages the hard state and entries (appended at their Index;
	// a batch whose first index overlaps previously staged entries
	// supersedes the overlapped suffix) and runs c once durable. c may
	// never run (crash); callers must not rely on it.
	Append(hs HardState, entries []Entry, c Completion)
	// Compact atomically rewrites the durable log so it holds exactly the
	// given tail of entries, with everything at or before (index, term)
	// owned by the latest checkpoint. tail is the node's own log: it must be
	// consumed before Compact returns and never retained.
	Compact(index, term uint64, tail []Entry, hs HardState)
	// Reset atomically replaces the durable log after a snapshot install
	// at (index, term); the snapshot itself was persisted by the
	// ApplySnapshot callback before Reset is called.
	Reset(index, term uint64, hs HardState)
}

// memStorage is the Storage of a node built without one: every Append is
// durable at once, and there is no durable log to rewrite.
type memStorage struct{}

func (memStorage) Append(_ HardState, _ []Entry, c Completion) { c.Run() }
func (memStorage) Compact(uint64, uint64, []Entry, HardState)  {}
func (memStorage) Reset(uint64, uint64, HardState)             {}

// Completion is a promise a node withholds until an Append is durable. It
// is a plain value, so a storage can carry it in the event that completes
// its sync without allocating anything of its own.
type Completion struct {
	n     *Node
	kind  completionKind
	term  uint64        // the term the promise was made in
	index uint64        // the log index the append reached (appends only)
	peer  simnet.NodeID // who is answered (acks and granted votes)
}

// completionKind names the promise a Completion carries.
type completionKind uint8

const (
	requestVotes completionKind = iota // a candidate's term and self-vote
	grantVote                          // a vote granted to peer
	countSelf                          // the leader's own entry at index
	ackAppend                          // a follower's append through index
)

// Run delivers the promise once its append is durable. The zero Completion
// does nothing.
func (c Completion) Run() {
	if c.n != nil {
		c.n.complete(c)
	}
}

// Transport sends a message to a peer; implementations add network latency
// and drop traffic to failed nodes.
type Transport interface {
	Send(to simnet.NodeID, msg Message)
}

// electionTimeout is the base follower patience; each check is perturbed
// ±50% for tie-breaking. 2s is WAN-appropriate.
const electionTimeout = 2 * sim.Second

// DefaultHeartbeatInterval is the leader's append/heartbeat cadence unless
// SetHeartbeatInterval says otherwise.
const DefaultHeartbeatInterval = 400 * sim.Millisecond

// Config parameterizes a Node.
type Config struct {
	ID       simnet.NodeID
	Voters   []simnet.NodeID
	Learners []simnet.NodeID

	Sim       *sim.Simulation
	Transport Transport

	// Apply is invoked on every replica, in log order, as entries commit.
	Apply func(e Entry)
	// OnLeaderChange fires when this node learns of a new leader.
	OnLeaderChange func(leader simnet.NodeID, term uint64)
	// HeartbeatPayload, if set on the leader, gives each append's Closed and
	// ClosedIndex, given the entries past the commit index. It must not
	// retain uncommitted.
	HeartbeatPayload func(uncommitted []Entry) (closed hlc.Timestamp, index uint64)
	// OnHeartbeat, if set, receives a non-zero Closed on followers/learners
	// once this replica has applied through its ClosedIndex.
	OnHeartbeat func(closed hlc.Timestamp)

	// Storage persists hard state and log entries; promises to peers
	// (votes, append acks, the leader's own match index) are withheld
	// until the corresponding fsync completes (see Completion). Nil keeps
	// state in memory only, where every append is durable at once.
	Storage Storage
	// Snapshot, if set, serializes the applied state machine as of
	// (index, term), this node's applied position. The leader calls it when
	// a peer needs entries that were compacted away.
	Snapshot func(index, term uint64) []byte
	// ApplySnapshot installs an incoming snapshot at (index, term),
	// replacing the applied state machine. Called before the log is reset
	// around the snapshot; implementations should persist the snapshot.
	ApplySnapshot func(data []byte, index, term uint64)
}

// ErrNotLeader is returned by Propose on non-leaders.
type ErrNotLeader struct {
	Leader simnet.NodeID // 0 if unknown
}

func (e *ErrNotLeader) Error() string {
	return fmt.Sprintf("raft: not leader (known leader: n%d)", e.Leader)
}

// ErrProposalDropped fails a proposal whose entry this replica's log discarded
// (a conflicting append, a snapshot install) or whose node stopped.
var ErrProposalDropped = fmt.Errorf("raft: this replica will not see the entry apply; it may or may not have committed")

// ProposeResult reports the fate of a proposal.
type ProposeResult struct {
	Index uint64
	Err   error
	// Quorum is the critical quorum that paid for this proposal's
	// replication round trip, as a bitmask over Voters: bit i is set when
	// Voters[i] (the leader included) had matched the entry when it
	// committed. Zero on error or when resolved away from the leader.
	Quorum uint64
	// Voters is the voter set the entry committed under, ascending by node
	// ID. The node shares it with every result of that configuration and
	// never mutates it.
	Voters []simnet.NodeID
}

// Acks expands Quorum into the voters it names, ascending by node ID (nil
// for an empty quorum). The observability layer uses it to count
// inter-region quorum round trips.
func (r ProposeResult) Acks() []simnet.NodeID {
	var acks []simnet.NodeID
	for i, v := range r.Voters {
		if r.Quorum&(1<<i) != 0 {
			acks = append(acks, v)
		}
	}
	return acks
}

// maxVoters bounds a group's voters: a commit quorum is a 64-bit mask.
const maxVoters = 64

// Node is one replica's Raft state machine.
type Node struct {
	cfg  Config
	role Role
	// heartbeatInterval is the leader's append/heartbeat cadence: it
	// starts at DefaultHeartbeatInterval and only SetHeartbeatInterval
	// changes it.
	heartbeatInterval sim.Duration

	term     uint64
	votedFor simnet.NodeID
	leader   simnet.NodeID

	// log[0] is a sentinel carrying the index/term of the last entry
	// subsumed by a checkpoint or snapshot (index 0 before any
	// compaction); real entries follow at ascending indices.
	log         []Entry
	commitIndex uint64
	applied     uint64
	// durableIndex is the highest log index known fsynced locally; the
	// node never tells a leader it matched an entry beyond it. In memory
	// only it tracks LastIndex.
	durableIndex uint64
	// persisted is the hard state last handed to persist.
	persisted HardState

	voters   map[simnet.NodeID]bool
	learners map[simnet.NodeID]bool

	// peerList caches peers() and voterList caches voterSlice();
	// applyConfChange replaces both, never mutating a list handed out.
	peerList  []simnet.NodeID
	voterList []simnet.NodeID

	// Leader state: one progress per replica (self included, for match),
	// rebuilt by becomeLeader.
	progress map[simnet.NodeID]*progress
	// pending holds the futures of the proposals in flight, in index order.
	// Only this replica's log resolves them, never its role: applyCommitted
	// pops the head as its entry applies and dropFrom fails a suffix.
	pending []proposal
	// futures carves the proposals' futures. A proposer may hold its future
	// long after it resolved, so none is handed out twice.
	futures slab.Of[sim.Future[ProposeResult]]
	// promised holds closed-timestamp promises received before this replica
	// applied through their index: [0] the oldest, kept until its index
	// applies, and [1] the latest since, which a later one replaces.
	promised [2]promise
	// applying is set while applyCommitted runs.
	applying bool

	// Sent counts the messages this node sent, by kind and by whether they
	// carried entries ([1]) or not ([0]).
	Sent [NumMsgKinds][2]int64
	// lastBroadcast is when broadcastAppend last put a message on every link.
	lastBroadcast sim.Time

	// Candidate state.
	votes map[simnet.NodeID]bool

	lastHeard sim.Time
	stopped   bool
	// election is the "raft/election" stream, which every node shares.
	election *rand.Rand
	// checkElection is electionCheck bound once per node, and beat is
	// heartbeat bound to the term this node last became leader in: the
	// timers re-arm with them rather than with a closure per fire.
	checkElection, beat func()
}

// progress is the leader's replication bookkeeping for one peer. Every
// append ships cumulatively from next, which tracks match+1 once the peer
// has answered: the network jitters each message independently, so appends
// overtake each other, and a cumulative append is acceptable in any order
// where an optimistic one would be rejected.
type progress struct {
	match uint64 // highest index the peer acked as durable
	next  uint64 // first index of the next append; 0 = needs an initial snapshot
	sent  uint64 // highest index the latest append or snapshot shipped
	// acked is set by any successful MsgAppResp and cleared by Compact: the
	// peer answered since the log was last trimmed, so it is merely behind,
	// not gone, and Compact keeps the entries from next on for it.
	acked bool
}

// proposal is a proposal in flight: the future its entry resolves.
type proposal struct {
	index uint64
	f     *sim.Future[ProposeResult]
}

// promise is a closed timestamp and the log index it covers.
type promise struct {
	closed hlc.Timestamp
	index  uint64
}

// NewNode constructs a replica. If the node appears in cfg.Learners it
// starts as a Learner, otherwise as a Follower. Call Start to arm timers.
func NewNode(cfg Config) *Node {
	if cfg.Storage == nil {
		cfg.Storage = memStorage{}
	}
	n := &Node{
		cfg:               cfg,
		heartbeatInterval: DefaultHeartbeatInterval,
		log:               []Entry{{}},
		voters:            map[simnet.NodeID]bool{},
		learners:          map[simnet.NodeID]bool{},
		election:          cfg.Sim.Stream("raft/election"),
	}
	n.checkElection = n.electionCheck
	for _, v := range cfg.Voters {
		n.voters[v] = true
	}
	for _, l := range cfg.Learners {
		n.learners[l] = true
	}
	if n.learners[cfg.ID] {
		n.role = Learner
	}
	return n
}

// Start arms the election timer. Leaders are elected normally; tests and
// the cluster bootstrap may call Campaign for an immediate election.
func (n *Node) Start() {
	n.lastHeard = n.cfg.Sim.Now()
	n.scheduleElectionCheck()
}

// Stop halts timers and drops pending proposals.
func (n *Node) Stop() {
	n.stopped = true
	n.dropFrom(0)
}

// --- Introspection ---

// ID returns this replica's node ID.
func (n *Node) ID() simnet.NodeID { return n.cfg.ID }

// send counts msg and hands it to the transport.
func (n *Node) send(to simnet.NodeID, msg Message) {
	full := 0
	if len(msg.Entries) > 0 {
		full = 1
	}
	n.Sent[msg.Kind][full]++
	n.cfg.Transport.Send(to, msg)
}

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// IsLeader reports whether this replica currently leads.
func (n *Node) IsLeader() bool { return n.role == Leader }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// LastIndex returns the highest appended log index.
func (n *Node) LastIndex() uint64 { return n.log[len(n.log)-1].Index }

// FirstIndex returns the index of the log sentinel: everything at or below
// it has been folded into a checkpoint/snapshot.
func (n *Node) FirstIndex() uint64 { return n.offset() }

// DurableIndex returns the highest locally-fsynced log index.
func (n *Node) DurableIndex() uint64 { return n.durableIndex }

// Applied returns the highest applied log index.
func (n *Node) Applied() uint64 { return n.applied }

// AppliedTerm returns the term of the highest applied entry.
func (n *Node) AppliedTerm() uint64 { return n.at(n.applied).Term }

// offset is the sentinel's index; log position of index i is i-offset.
func (n *Node) offset() uint64 { return n.log[0].Index }

// at returns the entry at log index idx; idx must be in [offset, LastIndex].
func (n *Node) at(idx uint64) Entry { return n.log[idx-n.offset()] }

// persist stages the current hard state plus entries and runs c once
// durable.
func (n *Node) persist(entries []Entry, c Completion) {
	n.persisted = HardState{Term: n.term, Vote: n.votedFor}
	c.n = n
	n.cfg.Storage.Append(n.persisted, entries, c)
}

// complete delivers what persist withheld. Each promise checks that it
// still stands: nothing runs on a stopped node, a vote request only for
// the candidacy that made it, and a follower's ack only in its own term —
// if a new leader truncated the log while the fsync was pending, the stale
// ack must not be credited.
func (n *Node) complete(c Completion) {
	if n.stopped {
		return
	}
	switch c.kind {
	case requestVotes:
		if n.term != c.term || n.role != Candidate {
			return
		}
		last := n.log[len(n.log)-1]
		for _, v := range n.voterSlice() {
			if v == n.cfg.ID {
				continue
			}
			n.send(v, Message{
				Kind: MsgVote, Term: c.term, From: n.cfg.ID,
				LastLogIndex: last.Index, LastLogTerm: last.Term,
			})
		}
		n.maybeWinElection()
	case grantVote:
		n.send(c.peer, Message{
			Kind: MsgVoteResp, Term: c.term, From: n.cfg.ID, VoteGranted: true,
		})
	case countSelf:
		n.markDurable(c.index)
		if n.role == Leader && n.term == c.term {
			if self := n.progress[n.cfg.ID]; c.index > self.match {
				self.match = c.index
			}
			n.maybeCommit()
		}
	case ackAppend:
		if n.term != c.term {
			return
		}
		n.markDurable(c.index)
		n.send(c.peer, Message{
			Kind: MsgAppResp, Term: c.term, From: n.cfg.ID, Success: true,
			MatchIndex: n.durableIndex,
		})
	}
}

// markDurable advances durableIndex to idx, clamped to the current log end
// (a conflicting truncation may have discarded a suffix that was syncing).
func (n *Node) markDurable(idx uint64) {
	if last := n.LastIndex(); idx > last {
		idx = last
	}
	if idx > n.durableIndex {
		n.durableIndex = idx
	}
}

// IsVoter reports whether id is currently a voter.
func (n *Node) IsVoter(id simnet.NodeID) bool { return n.voters[id] }

// IsLearner reports whether id is currently a learner.
func (n *Node) IsLearner(id simnet.NodeID) bool { return n.learners[id] && !n.voters[id] }

// --- Timers ---

func (n *Node) scheduleElectionCheck() {
	if n.stopped {
		return
	}
	// Perturb the check interval so that two followers rarely campaign
	// simultaneously.
	d := electionTimeout/2 + sim.Duration(n.election.Int63n(int64(electionTimeout)))
	n.cfg.Sim.After(d, n.checkElection)
}

// electionCheck campaigns if no leader was heard from for an election
// timeout, and re-arms.
func (n *Node) electionCheck() {
	if n.stopped {
		return
	}
	if n.role != Leader && n.role != Learner {
		if n.cfg.Sim.Now().Sub(n.lastHeard) >= electionTimeout {
			n.Campaign()
		}
	}
	n.scheduleElectionCheck()
}

// heartbeat is the one timer of the leadership won at term: it keeps any
// link from staying silent for longer than heartbeatInterval, which is what
// followers' election timeouts and the kv layer's closed-timestamp lead
// assume. Every proposal's broadcast already carries the commit index and
// the heartbeat payload, so the timer sends only when none was that recent
// and otherwise sleeps until the latest one is an interval old. A node
// leads at most once per term, so the term tells a regained leadership's
// timer from the lost one's; while it leads, n.beat is this term's timer.
func (n *Node) heartbeat(term uint64) {
	if n.stopped || n.role != Leader || n.term != term {
		return
	}
	if n.cfg.Sim.Now().Sub(n.lastBroadcast) >= n.heartbeatInterval {
		n.broadcastAppend()
	}
	n.cfg.Sim.Schedule(n.lastBroadcast.Add(n.heartbeatInterval), n.beat)
}

// --- Elections ---

// Campaign starts an election for this replica.
func (n *Node) Campaign() {
	if n.role == Learner || n.stopped {
		return
	}
	n.term++
	n.role = Candidate
	n.votedFor = n.cfg.ID
	n.leader = 0
	n.votes = map[simnet.NodeID]bool{n.cfg.ID: true}
	n.lastHeard = n.cfg.Sim.Now()
	// The incremented term and self-vote must be durable before they are
	// announced, or a crash could let this node vote twice in the term.
	n.persist(nil, Completion{kind: requestVotes, term: n.term})
}

func (n *Node) maybeWinElection() {
	if n.role != Candidate {
		return
	}
	granted := 0
	for v := range n.votes {
		if n.voters[v] && n.votes[v] {
			granted++
		}
	}
	if granted > len(n.voters)/2 {
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.leader = n.cfg.ID
	last := n.LastIndex()
	// The leader may only count its own log up to what is fsynced.
	n.progress = map[simnet.NodeID]*progress{n.cfg.ID: {match: n.durableIndex}}
	for _, id := range n.peers() {
		n.progress[id] = &progress{next: last + 1, sent: last}
	}
	if n.cfg.OnLeaderChange != nil {
		n.cfg.OnLeaderChange(n.cfg.ID, n.term)
	}
	// Commit a no-op entry from the new term so prior-term entries can
	// commit (Raft §5.4.2).
	n.appendLocal(Entry{Data: nil})
	n.broadcastAppend()
	term := n.term
	n.beat = func() { n.heartbeat(term) }
	n.heartbeat(term)
}

func (n *Node) stepDown(term uint64, leader simnet.NodeID) {
	if term > n.term {
		n.term = term
		n.votedFor = 0
	}
	if n.role != Learner {
		n.role = Follower
	}
	if leader != 0 && leader != n.leader {
		n.leader = leader
		if n.cfg.OnLeaderChange != nil {
			n.cfg.OnLeaderChange(leader, n.term)
		}
	}
}

// dropFrom fails the proposals from index on, whose entries will not apply.
func (n *Node) dropFrom(index uint64) {
	i := sort.Search(len(n.pending), func(j int) bool { return n.pending[j].index >= index })
	for _, p := range n.pending[i:] {
		p.f.Set(ProposeResult{Index: p.index, Err: ErrProposalDropped})
	}
	clear(n.pending[i:])
	n.pending = n.pending[:i]
}

// SetHeartbeatInterval retunes the leader's append/heartbeat cadence (the kv
// layer derives it from a range's closed-timestamp policy); it takes effect
// on the next tick.
func (n *Node) SetHeartbeatInterval(d sim.Duration) {
	if d > 0 {
		n.heartbeatInterval = d
	}
}

// TransferLeadership asks target to campaign immediately. The current
// leader keeps serving until the target wins its election.
func (n *Node) TransferLeadership(target simnet.NodeID) {
	if n.role != Leader || !n.voters[target] || target == n.cfg.ID {
		return
	}
	// Bring the target fully up to date first, then tell it to campaign.
	n.sendAppend(target)
	n.send(target, Message{Kind: MsgTimeoutNow, Term: n.term, From: n.cfg.ID})
}

// --- Log replication ---

// peers returns all other replicas in ascending node order. Deterministic
// iteration matters: message send order consumes network-jitter randomness,
// so map-order iteration would make runs irreproducible. The list is built
// once per configuration, not once per broadcast.
func (n *Node) peers() []simnet.NodeID {
	if n.peerList == nil {
		out := []simnet.NodeID{}
		for v := range n.voters {
			if v != n.cfg.ID {
				out = append(out, v)
			}
		}
		for l := range n.learners {
			if l != n.cfg.ID && !n.voters[l] {
				out = append(out, l)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		n.peerList = out
	}
	return n.peerList
}

// voterSlice returns the voter set in ascending node order, built once per
// configuration like peers(). Proposal results share it, so a conf change
// replaces it and never mutates it.
func (n *Node) voterSlice() []simnet.NodeID {
	if n.voterList == nil {
		if len(n.voters) > maxVoters {
			panic(fmt.Sprintf("raft: %d voters; a commit quorum is a mask of at most %d", len(n.voters), maxVoters))
		}
		out := make([]simnet.NodeID, 0, len(n.voters))
		for v := range n.voters {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		n.voterList = out
	}
	return n.voterList
}

func (n *Node) appendLocal(e Entry) uint64 {
	e.Term = n.term
	e.Index = n.LastIndex() + 1
	n.log = append(n.log, e)
	// The leader's own vote for the entry (its match index) counts toward
	// quorum only once the entry is on disk.
	n.persist(n.log[len(n.log)-1:], Completion{kind: countSelf, term: n.term, index: e.Index})
	return e.Index
}

// Propose replicates data, returning a future resolved once the entry
// applies on this replica, or fails once this replica's log discards it.
func (n *Node) Propose(data interface{}) (*sim.Future[ProposeResult], error) {
	return n.proposeEntry(Entry{Data: data})
}

// ProposeConfChange replicates a membership change.
func (n *Node) ProposeConfChange(cc ConfChange) (*sim.Future[ProposeResult], error) {
	return n.proposeEntry(Entry{Conf: &cc})
}

func (n *Node) proposeEntry(e Entry) (*sim.Future[ProposeResult], error) {
	// A stopped node keeps its role, and a proc that outlived the node's
	// crash may still hold it: its append would land in the WAL the node's
	// next incarnation is writing.
	if n.role != Leader || n.stopped {
		return nil, &ErrNotLeader{Leader: n.leader}
	}
	idx := n.appendLocal(e)
	f := n.futures.New()
	n.pending = append(n.pending, proposal{index: idx, f: f})
	n.broadcastAppend()
	return f, nil
}

func (n *Node) broadcastAppend() {
	n.lastBroadcast = n.cfg.Sim.Now()
	for _, id := range n.peers() {
		n.sendAppend(id)
	}
}

// maxBatch bounds entries per AppendEntries message.
const maxBatch = 256

func (n *Node) sendAppend(to simnet.NodeID) {
	pr := n.progress[to]
	if pr.next == 0 && n.cfg.Snapshot == nil {
		pr.next = 1
	}
	if pr.next <= n.offset() {
		// Either a replica added by conf change after this range accumulated
		// state (next == 0, see applyConfChange: replaying the log from index
		// 1 would miss state the log never carried), or the entries the peer
		// needs were compacted into a checkpoint. Ship a snapshot of the
		// applied state instead.
		n.sendSnapshot(to)
		return
	}
	// Entries is a window onto this log, not a copy. That is safe because a
	// log is only ever appended to in place — the one truncation (handleApp's
	// conflict path) moves to a fresh array — and the clamped capacity keeps
	// a receiver's append from writing through it.
	lo := int(pr.next - n.offset())
	hi := len(n.log)
	if hi > lo+maxBatch {
		hi = lo + maxBatch
	}
	prev := n.log[lo-1]
	pr.sent = n.log[hi-1].Index
	msg := Message{
		Kind: MsgApp, Term: n.term, From: n.cfg.ID,
		PrevLogIndex: prev.Index, PrevLogTerm: prev.Term,
		Entries: n.log[lo:hi:hi], LeaderCommit: n.commitIndex,
	}
	if n.cfg.HeartbeatPayload != nil {
		msg.Closed, msg.ClosedIndex = n.cfg.HeartbeatPayload(n.log[n.commitIndex-n.offset()+1:])
	}
	n.send(to, msg)
}

// sendSnapshot ships the leader's applied state to a peer that fell behind
// the compacted log (paper §5.2: lagging replicas catch up via snapshots).
func (n *Node) sendSnapshot(to simnet.NodeID) {
	if n.cfg.Snapshot == nil {
		return // not snapshot-capable; the peer stays behind
	}
	idx, term := n.applied, n.AppliedTerm()
	msg := Message{
		Kind: MsgSnap, Term: n.term, From: n.cfg.ID,
		SnapIndex: idx, SnapTerm: term,
		Snapshot: n.cfg.Snapshot(idx, term), LeaderCommit: n.commitIndex,
	}
	pr := n.progress[to]
	pr.next, pr.sent = idx+1, idx
	n.send(to, msg)
}

func (n *Node) maybeCommit() {
	if n.role != Leader {
		return
	}
	for idx := n.LastIndex(); idx > n.commitIndex && idx > n.offset(); idx-- {
		if n.at(idx).Term != n.term {
			break // only commit entries from the current term by counting
		}
		count := 0
		for _, v := range n.voterSlice() {
			if n.progress[v].match >= idx {
				count++
			}
		}
		if count > len(n.voters)/2 {
			n.commitIndex = idx
			n.applyCommitted()
			break
		}
	}
}

// quorum returns, as a mask over voterSlice(), the voters whose match index
// covers idx. Called at commit time on the leader, this is exactly the
// quorum whose acks committed the entry (slower voters have not matched it
// yet).
func (n *Node) quorum(idx uint64) uint64 {
	var mask uint64
	for i, v := range n.voterSlice() {
		if n.progress[v].match >= idx {
			mask |= 1 << i
		}
	}
	return mask
}

func (n *Node) applyCommitted() {
	// A conf change that shrinks the quorum commits later entries while it
	// applies (applyConfChange → maybeCommit); this loop, already running,
	// applies them after it, in order, and resolves their proposals.
	if n.applying {
		return
	}
	n.applying = true
	for n.applied < n.commitIndex {
		n.applied++
		e := n.at(n.applied)
		if e.Conf != nil {
			n.applyConfChange(*e.Conf)
		}
		if n.cfg.Apply != nil && (e.Data != nil || e.Conf != nil) {
			n.cfg.Apply(e)
		}
		if len(n.pending) > 0 && n.pending[0].index == e.Index {
			f := n.pending[0].f
			n.pending = slices.Delete(n.pending, 0, 1)
			f.Set(ProposeResult{Index: e.Index, Quorum: n.quorum(e.Index), Voters: n.voterSlice()})
		}
	}
	n.applying = false
	n.deliverPromises()
}

// receivePromise takes a leader's closed-timestamp promise. One this replica
// has applied far enough to use supersedes any held before it.
func (n *Node) receivePromise(p promise) {
	switch {
	case n.applied >= p.index:
		n.promised = [2]promise{p}
	case n.promised[0].closed.IsEmpty():
		n.promised[0] = p
	default:
		n.promised[1] = p
	}
	n.deliverPromises()
}

// deliverPromises hands OnHeartbeat, in order, every held promise whose index
// this replica has applied.
func (n *Node) deliverPromises() {
	for !n.promised[0].closed.IsEmpty() && n.applied >= n.promised[0].index {
		n.cfg.OnHeartbeat(n.promised[0].closed)
		n.promised = [2]promise{n.promised[1]}
	}
}

func (n *Node) applyConfChange(cc ConfChange) {
	switch cc.Type {
	case AddVoter:
		delete(n.learners, cc.Node)
		n.voters[cc.Node] = true
	case RemoveVoter:
		delete(n.voters, cc.Node)
	case AddLearner:
		if !n.voters[cc.Node] {
			n.learners[cc.Node] = true
		}
	case RemoveLearner:
		delete(n.learners, cc.Node)
	}
	if cc.Node == n.cfg.ID {
		switch cc.Type {
		case AddVoter:
			if n.role == Learner {
				n.role = Follower
			}
		case AddLearner, RemoveVoter:
			n.role = Learner
		}
	}
	n.peerList, n.voterList = nil, nil
	if !n.voters[cc.Node] && !n.learners[cc.Node] {
		// Gone from the group: if it is ever re-added it is a blank replica,
		// not the one whose match and next index these were.
		delete(n.progress, cc.Node)
	} else if n.role == Leader && n.progress[cc.Node] == nil {
		// A brand-new replica initializes from a snapshot of the applied
		// state, never by replaying the log from scratch: the log cannot
		// reproduce state that predates it (bulk loads, data absorbed by
		// merges). next == 0 is the sentinel sendAppend turns into an
		// initial snapshot (or 1 without snapshots).
		n.progress[cc.Node] = &progress{}
	}
	if n.role == Leader {
		n.maybeCommit()
	}
}

// --- Message handling ---

// Step processes an incoming message. It must be called in scheduler
// context (the kv layer invokes it from network handlers).
func (n *Node) Step(msg Message) {
	if n.stopped {
		return
	}
	if msg.Term > n.term {
		n.stepDown(msg.Term, 0)
	}
	switch msg.Kind {
	case MsgVote:
		n.handleVote(msg)
	case MsgVoteResp:
		n.handleVoteResp(msg)
	case MsgApp:
		n.handleApp(msg)
	case MsgAppResp:
		n.handleAppResp(msg)
	case MsgSnap:
		n.handleSnap(msg)
	case MsgTimeoutNow:
		if msg.Term >= n.term && n.role != Learner {
			n.Campaign()
		}
	}
}

func (n *Node) handleVote(msg Message) {
	granted := false
	if msg.Term >= n.term && (n.votedFor == 0 || n.votedFor == msg.From) && n.role != Leader {
		last := n.log[len(n.log)-1]
		upToDate := msg.LastLogTerm > last.Term ||
			(msg.LastLogTerm == last.Term && msg.LastLogIndex >= last.Index)
		if upToDate {
			granted = true
			n.votedFor = msg.From
			n.lastHeard = n.cfg.Sim.Now()
		}
	}
	if granted {
		// A vote is a promise: it must survive a crash, or the node could
		// vote for a different candidate in the same term after restart.
		n.persist(nil, Completion{kind: grantVote, term: n.term, peer: msg.From})
		return
	}
	n.send(msg.From, Message{
		Kind: MsgVoteResp, Term: n.term, From: n.cfg.ID, VoteGranted: false,
	})
}

func (n *Node) handleVoteResp(msg Message) {
	if n.role != Candidate || msg.Term != n.term {
		return
	}
	n.votes[msg.From] = msg.VoteGranted
	n.maybeWinElection()
}

func (n *Node) handleApp(msg Message) {
	if msg.Term < n.term {
		n.send(msg.From, Message{
			Kind: MsgAppResp, Term: n.term, From: n.cfg.ID, Success: false,
		})
		return
	}
	n.lastHeard = n.cfg.Sim.Now()
	if n.role == Candidate {
		n.role = Follower
	}
	if n.leader != msg.From {
		n.leader = msg.From
		if n.cfg.OnLeaderChange != nil {
			n.cfg.OnLeaderChange(msg.From, msg.Term)
		}
	}
	empty := len(msg.Entries) == 0
	// Entries at or below our checkpoint sentinel are already applied;
	// realign the leader's prev to the sentinel and skip them.
	if msg.PrevLogIndex < n.offset() {
		skip := n.offset() - msg.PrevLogIndex
		if uint64(len(msg.Entries)) <= skip {
			msg.Entries = nil
		} else {
			msg.Entries = msg.Entries[skip:]
		}
		msg.PrevLogIndex = n.log[0].Index
		msg.PrevLogTerm = n.log[0].Term
	}
	// Log matching.
	if msg.PrevLogIndex > n.LastIndex() || n.at(msg.PrevLogIndex).Term != msg.PrevLogTerm {
		n.send(msg.From, Message{
			Kind: MsgAppResp, Term: n.term, From: n.cfg.ID, Success: false,
			PrevLogIndex: msg.PrevLogIndex, MatchIndex: min64(msg.PrevLogIndex-1, n.LastIndex()),
		})
		return
	}
	// Appends are cumulative, so most of a message is usually already here.
	// Log Matching skips that prefix in one comparison: if our term at the
	// last index both logs could share equals the message's, every entry at
	// or below it matches too.
	appended := msg.Entries
	if last := min64(n.LastIndex(), msg.PrevLogIndex+uint64(len(appended))); last > msg.PrevLogIndex &&
		n.at(last).Term == appended[last-msg.PrevLogIndex-1].Term {
		appended = appended[last-msg.PrevLogIndex:]
	}
	// What overlaps now holds a conflict: find it, truncate, append.
	for len(appended) > 0 && appended[0].Index <= n.LastIndex() && n.at(appended[0].Index).Term == appended[0].Term {
		appended = appended[1:]
	}
	if len(appended) > 0 {
		if cut := appended[0].Index - n.offset(); cut < uint64(len(n.log)) {
			// Copy-on-truncate: this log may back appends still in flight
			// from when this node led, so the overwrite goes to a new array.
			n.log = n.log[:cut:cut]
			n.dropFrom(appended[0].Index)
			if n.durableIndex > n.LastIndex() {
				n.durableIndex = n.LastIndex()
			}
		}
		n.log = append(n.log, appended...)
	}
	if msg.LeaderCommit > n.commitIndex {
		n.commitIndex = min64(msg.LeaderCommit, n.LastIndex())
		n.applyCommitted()
	}
	if n.cfg.OnHeartbeat != nil && !msg.Closed.IsEmpty() {
		n.receivePromise(promise{msg.Closed, msg.ClosedIndex})
	}
	// An empty append that matched needs no answer. The leader sends one
	// only when its next for this peer is past its log end, which only this
	// peer's acks establish, so the ack would repeat what the leader holds;
	// with nothing awaiting fsync and the hard state already handed to
	// storage, the WAL record would repeat what the disk holds. Nothing is
	// promised, so nothing has to be durable first.
	if empty && n.durableIndex == n.LastIndex() && n.persisted == (HardState{Term: n.term, Vote: n.votedFor}) {
		return
	}
	// The ack promises the leader these entries are stable here, so it is
	// withheld until they are fsynced. The completion carries the tail
	// index this append reached: once it is durable, so is everything
	// before it, whatever order other syncs finish in. It carries the term
	// too, which complete checks against a truncation by a newer leader.
	n.persist(appended, Completion{kind: ackAppend, term: n.term, index: n.LastIndex(), peer: msg.From})
}

// handleSnap installs a leader-shipped snapshot, replacing the applied
// state machine and restarting the log at the snapshot index.
func (n *Node) handleSnap(msg Message) {
	if msg.Term < n.term {
		n.send(msg.From, Message{
			Kind: MsgAppResp, Term: n.term, From: n.cfg.ID, Success: false,
		})
		return
	}
	n.lastHeard = n.cfg.Sim.Now()
	if n.role == Candidate {
		n.role = Follower
	}
	if n.leader != msg.From {
		n.leader = msg.From
		if n.cfg.OnLeaderChange != nil {
			n.cfg.OnLeaderChange(msg.From, msg.Term)
		}
	}
	if msg.SnapIndex <= n.commitIndex {
		// Stale or redundant snapshot; report what we actually hold.
		n.send(msg.From, Message{
			Kind: MsgAppResp, Term: n.term, From: n.cfg.ID, Success: true,
			MatchIndex: n.durableIndex,
		})
		return
	}
	if n.cfg.ApplySnapshot != nil {
		n.cfg.ApplySnapshot(msg.Snapshot, msg.SnapIndex, msg.SnapTerm)
	}
	n.log = []Entry{{Index: msg.SnapIndex, Term: msg.SnapTerm}}
	n.commitIndex = msg.SnapIndex
	n.applied = msg.SnapIndex
	n.durableIndex = msg.SnapIndex
	n.dropFrom(0)
	n.deliverPromises()
	// ApplySnapshot persisted the checkpoint; now the durable log is reset
	// around it (both atomic, so the ack below is safe).
	n.cfg.Storage.Reset(msg.SnapIndex, msg.SnapTerm, HardState{Term: n.term, Vote: n.votedFor})
	n.send(msg.From, Message{
		Kind: MsgAppResp, Term: n.term, From: n.cfg.ID, Success: true,
		MatchIndex: msg.SnapIndex,
	})
}

// Compact trims the in-memory log through upTo (clamped to the applied
// index), leaving the sentinel at upTo, and rewrites the durable log to
// match. The caller must already have checkpointed the applied state at or
// beyond upTo.
//
// A leader never trims past what a responsive follower still needs. next
// only moves on acks, so a follower one WAN round trip behind always has
// next at or below the applied index; trimming through it would turn that
// follower's next append into a snapshot of the whole range, at every
// compaction. So upTo is also clamped to next-1 of every peer that acked
// since the previous Compact. A peer silent for a whole interval stops
// holding the log (it gets one snapshot when it returns), which bounds the
// log by one interval's entries.
func (n *Node) Compact(upTo uint64) {
	if upTo > n.applied {
		upTo = n.applied
	}
	if n.role == Leader {
		for _, pr := range n.progress {
			if pr.acked && pr.next-1 < upTo { // an ack leaves next at 1 or more
				upTo = pr.next - 1
			}
			pr.acked = false
		}
	}
	if upTo <= n.offset() {
		return
	}
	// One new array: the sentinel, then the kept tail. Appends in flight
	// still reference the old one, which nothing writes again. It is as
	// large as the old log, so the next interval's appends fit without
	// regrowing it.
	rest := n.log[upTo-n.offset()+1:]
	log := make([]Entry, 1+len(rest), len(n.log))
	log[0] = Entry{Index: upTo, Term: n.at(upTo).Term}
	copy(log[1:], rest)
	n.log = log
	n.cfg.Storage.Compact(upTo, log[0].Term, log[1:], HardState{Term: n.term, Vote: n.votedFor})
	// The rewrite persists the whole remaining tail at once.
	n.durableIndex = n.LastIndex()
}

// Restore primes a freshly-constructed node from recovered durable state:
// hard state, the checkpoint position (which becomes the log sentinel and
// the applied/commit floor), and the surviving log tail. Call before Start.
// Entries beyond the checkpoint are NOT applied here; they re-commit
// through the normal Raft flow once a leader confirms them.
func (n *Node) Restore(hs HardState, ckptIndex, ckptTerm uint64, tail []Entry) {
	n.term = hs.Term
	n.votedFor = hs.Vote
	n.persisted = hs
	n.log = append([]Entry{{Index: ckptIndex, Term: ckptTerm}}, tail...)
	n.commitIndex = ckptIndex
	n.applied = ckptIndex
	n.durableIndex = n.LastIndex()
}

func (n *Node) handleAppResp(msg Message) {
	if n.role != Leader || msg.Term != n.term {
		return
	}
	pr := n.progress[msg.From]
	if pr == nil {
		return
	}
	if msg.Success {
		pr.acked = true
		// Acks arrive reordered; a stale one moves nothing backwards.
		if msg.MatchIndex > pr.match {
			pr.match = msg.MatchIndex
		}
		if msg.MatchIndex >= pr.next {
			pr.next = msg.MatchIndex + 1
		}
		n.maybeCommit()
		// The commit may have applied a conf change that removed the peer,
		// or this leader.
		if pr = n.progress[msg.From]; pr == nil || n.role != Leader {
			return
		}
		// Every proposal already shipped itself, so an ack answers with
		// another append only when entries were never sent: after a reject,
		// a snapshot, or a send truncated at maxBatch. Re-sending whenever
		// the peer is merely behind turns each ack into an echo that lives
		// until the peer catches up — quadratic under overlapping proposals.
		if pr.sent < n.LastIndex() {
			n.sendAppend(msg.From)
		}
	} else if msg.PrevLogIndex == pr.next-1 {
		// The reject answers the latest append: back next off to the hint
		// (always below the rejected prev) and retry. Every append in flight
		// draws its own reject, and the others are stale by now — next was
		// rewound or a snapshot sent since. Acting on those too would ship a
		// returning peer one snapshot of the whole range per append in flight.
		pr.next = msg.MatchIndex + 1
		n.sendAppend(msg.From)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
