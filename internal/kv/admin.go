package kv

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// Admin performs cluster-level range operations: creating ranges from zone
// -config placements, transferring leases, and relocating replicas when
// zone configs change (e.g. after ALTER TABLE ... SET LOCALITY or ALTER
// DATABASE ... ADD REGION).
type Admin struct {
	Sim     *sim.Simulation
	Topo    *simnet.Topology
	Catalog *RangeCatalog
	Stores  map[simnet.NodeID]*Store

	// Load, when set, is the per-range traffic tracker the load-based
	// queue consults (the DistSenders feed it).
	Load *RangeLoadTracker

	// Aggregate allocator-loop decision counters. Splits is always zero:
	// the loop splits on load only (LoadSplits), and the field stays for
	// the benchmark's kv.splits, which reads Splits + LoadSplits.
	// ReplicaMoves is always zero too: the loop moves leases, never
	// replicas, and the field stays for the benchmark's kv.replica_moves.
	Splits       int64
	LoadSplits   int64
	Merges       int64
	LeaseMoves   int64
	ReplicaMoves int64

	// decisions holds per-range allocator-loop decision counts.
	decisions map[RangeID]*RangeDecisions
	// finishing holds the proc of each range whose relocation published its
	// placement but did not finish it (finishLater).
	finishing map[RangeID]*finisher
}

// CreateRange instantiates a range over [start, end) with the given
// placement and closed-timestamp policy, elects its leaseholder, and
// registers it in the catalog. A non-nil cfg is the zone config the
// placement satisfies, which the descriptor carries from then on.
func (a *Admin) CreateRange(start, end mvcc.Key, placement zones.Placement, policy ClosedTSPolicy, cfg *zones.Config) (*RangeDescriptor, error) {
	desc := &RangeDescriptor{
		Config:      cloneConfig(cfg),
		RangeID:     a.Catalog.NextRangeID(),
		StartKey:    append(mvcc.Key(nil), start...),
		EndKey:      append(mvcc.Key(nil), end...),
		Voters:      append([]simnet.NodeID(nil), placement.Voters...),
		NonVoters:   append([]simnet.NodeID(nil), placement.NonVoters...),
		Leaseholder: placement.Leaseholder,
		Policy:      policy,
		Generation:  1,
	}
	for _, id := range desc.Replicas() {
		if st, ok := a.Stores[id]; !ok || st.Down() {
			return nil, fmt.Errorf("kv: no live store on node %d", id)
		}
	}
	if err := a.Catalog.Insert(desc); err != nil {
		return nil, err
	}
	for _, id := range desc.Replicas() {
		a.Stores[id].CreateReplica(desc)
	}
	// Elect the leaseholder as Raft leader.
	lh := a.Stores[desc.Leaseholder]
	r, _ := lh.Replica(desc.RangeID)
	r.raft.Campaign()
	return desc, nil
}

// WaitReady parks p until the range's leaseholder replica leads its Raft
// group (i.e. the range can serve traffic).
func (a *Admin) WaitReady(p *sim.Proc, rangeID RangeID) error {
	desc, ok := a.Catalog.LookupByID(rangeID)
	if !ok {
		return fmt.Errorf("kv: unknown range %d", rangeID)
	}
	for i := 0; i < 1000; i++ {
		st := a.Stores[desc.Leaseholder]
		if r, ok := st.Replica(rangeID); ok && r.raft.IsLeader() {
			return nil
		}
		p.Sleep(10 * sim.Millisecond)
	}
	return fmt.Errorf("kv: range %d not ready", rangeID)
}

// WaitAllReady waits until every range in the catalog is serving.
func (a *Admin) WaitAllReady(p *sim.Proc) error {
	for _, d := range a.Catalog.All() {
		if err := a.WaitReady(p, d.RangeID); err != nil {
			return err
		}
	}
	return nil
}

// leaseholderReplica returns the current leaseholder's replica object.
func (a *Admin) leaseholderReplica(rangeID RangeID) (*Replica, error) {
	desc, ok := a.Catalog.LookupByID(rangeID)
	if !ok {
		return nil, fmt.Errorf("kv: unknown range %d", rangeID)
	}
	st, ok := a.Stores[desc.Leaseholder]
	if !ok {
		return nil, fmt.Errorf("kv: leaseholder store n%d missing", desc.Leaseholder)
	}
	r, ok := st.Replica(rangeID)
	if !ok {
		return nil, fmt.Errorf("kv: leaseholder replica of r%d missing", rangeID)
	}
	return r, nil
}

// TransferLease moves the lease (and Raft leadership) of a range to target,
// which must already hold a voting replica. Only a valid lease is handed
// on, as in CockroachDB: a fenced leaseholder, which its acquisition loop may
// be reclaiming, proposes nothing.
func (a *Admin) TransferLease(p *sim.Proc, rangeID RangeID, target simnet.NodeID) error {
	r, err := a.leaseholderReplica(rangeID)
	if err != nil {
		return err
	}
	desc := r.desc.Clone()
	if desc.Leaseholder == target {
		return nil
	}
	if !r.hasValidLease() {
		return fmt.Errorf("kv: n%d holds no valid lease of r%d to transfer", r.store.NodeID, rangeID)
	}
	isVoter := false
	for _, v := range desc.Voters {
		if v == target {
			isVoter = true
		}
	}
	if !isVoter {
		return fmt.Errorf("kv: lease target n%d is not a voter of r%d", target, rangeID)
	}
	desc.Leaseholder = target
	desc.Generation++
	// The new lease starts at the newest read the old leaseholder served,
	// which its key table holds (the read summary CockroachDB ships with a
	// transfer): from here until the transfer is decided the old lease is
	// fenced (transferring), and a read parked meanwhile re-checks it before
	// it is served (evalRead), so none lands above. The command also carries
	// the old closed-timestamp promise floor and the target's liveness epoch
	// the new lease binds to.
	desc.LeaseStart = r.leaseStart(r.keys.newestRead())
	cmd := r.command(Command{
		Kind:       CmdLeaseTransfer,
		Desc:       desc,
		ClosedTS:   r.closed.issued,
		LeaseEpoch: r.store.liveness.Epoch(target),
	})
	r.transferring = true
	err = r.propose(p, cmd)
	r.transferring = false
	if err != nil {
		return err
	}
	if r.desc.Generation != desc.Generation || r.desc.Leaseholder != target {
		// Another change applied first, and the transfer was dropped.
		return fmt.Errorf("kv: lease transfer of r%d to n%d overtaken by a descriptor change", rangeID, target)
	}
	r.raft.TransferLeadership(target)
	a.Catalog.Update(desc)
	// Wait for the target to actually take over leadership.
	tr, ok := a.Stores[target].Replica(rangeID)
	if !ok {
		return fmt.Errorf("kv: target replica missing")
	}
	for i := 0; i < 1000 && !tr.raft.IsLeader(); i++ {
		p.Sleep(10 * sim.Millisecond)
	}
	if !tr.raft.IsLeader() {
		return fmt.Errorf("kv: lease transfer of r%d to n%d did not complete", rangeID, target)
	}
	return nil
}

// Relocate moves a range's replicas to match a new placement, adding then
// removing replicas and finally transferring the lease if needed. This is
// the mechanism behind locality changes (paper §2.4.2). A non-nil cfg is the
// range's new zone config: it rides the descriptor update that publishes the
// placement (step 3), so a placement checker never observes the new
// placement against the old config or vice versa. A nil cfg leaves the zone
// config alone.
//
// A relocation fails only before its placement is published, and then
// leaves the descriptor as it was. Once published, what is left is
// finishPlacement's: a step of it that fails is retried by a proc of the
// range's own (finishLater), and Relocate returns nil. A publish whose
// proposer cannot tell whether it applied fails the relocation and leaves
// that proc to finish whichever descriptor the log decided on.
func (a *Admin) Relocate(p *sim.Proc, rangeID RangeID, placement zones.Placement, policy ClosedTSPolicy, cfg *zones.Config) error {
	if err := a.takeOver(p, rangeID); err != nil {
		return err
	}
	r, err := a.leaseholderReplica(rangeID)
	if err != nil {
		return err
	}
	old := r.desc.Clone()

	inOld := map[simnet.NodeID]bool{}
	for _, id := range old.Replicas() {
		inOld[id] = true
	}
	oldVoter := map[simnet.NodeID]bool{}
	for _, id := range old.Voters {
		oldVoter[id] = true
	}
	newVoter := map[simnet.NodeID]bool{}
	for _, id := range placement.Voters {
		newVoter[id] = true
	}

	// 1. Create replicas on new nodes (as learners first). A relocation that
	// fails leaves the descriptor as it was, so the next one starts here
	// again: a replica whose AddLearner failed is taken back at once (nothing
	// but this call knows it), and one found already in place joined the
	// group in an earlier attempt that failed further down — it is adopted.
	for _, id := range placement.Replicas() {
		if inOld[id] {
			continue
		}
		st, ok := a.Stores[id]
		if !ok || st.Down() {
			return fmt.Errorf("kv: no live store on node %d", id)
		}
		if _, ok := st.Replica(rangeID); ok {
			continue
		}
		// The replica starts as what the conf change below makes it: a
		// learner of the current membership. Built from the new descriptor
		// it would count itself a voter, and the replicas this relocation
		// creates could elect one of themselves with an empty log while
		// the range's voters are cut off from them.
		joining := old.Clone()
		joining.NonVoters = append(joining.NonVoters, id)
		st.CreateReplica(joining)
		if err := r.proposeConfChange(p, raft.ConfChange{Type: raft.AddLearner, Node: id}); err != nil {
			st.RemoveReplica(rangeID)
			return err
		}
	}
	// 2. Promote new voters. (Demotions of ex-voters happen only after
	// leadership has safely moved, in finishPlacement.)
	for _, id := range sortedIDs(newVoter) {
		if !oldVoter[id] {
			if err := r.proposeConfChange(p, raft.ConfChange{Type: raft.AddVoter, Node: id}); err != nil {
				return err
			}
		}
	}
	// 3. Publish the new descriptor, with the new zone config, so every
	// replica learns placement and policy, and re-derives its timing from
	// them as the entry applies (setTiming).
	if err := publishPlacement(p, r, placement, policy, cfg); err != nil {
		if errors.Is(err, raft.ErrProposalDropped) {
			a.finishLater(rangeID)
		}
		return err
	}
	// 4–5. Move the lease, demote and remove, from the descriptor just
	// published.
	if a.finishPlacement(p, rangeID) != nil {
		a.finishLater(rangeID)
	}
	return nil
}

// publishPlacement installs placement and policy, and cfg unless it is nil,
// in r's descriptor through r's log. The update is derived from the
// descriptor as it is when it is proposed, not as the relocation found it: a
// split or a lease move may have applied while the conf changes waited. A
// descriptor update applies only on top of the generation it was derived
// from (Replica.apply), as CockroachDB writes a descriptor with a conditional
// put, so one that another change overtook in the log is dropped, and the
// relocation fails with the descriptor as that change left it. The
// leaseholder stays: the lease (and Raft leadership) move via TransferLease,
// which must observe that it has not yet moved.
func publishPlacement(p *sim.Proc, r *Replica, placement zones.Placement, policy ClosedTSPolicy, cfg *zones.Config) error {
	nd := r.desc.Clone()
	nd.Voters = append([]simnet.NodeID(nil), placement.Voters...)
	nd.NonVoters = append([]simnet.NodeID(nil), placement.NonVoters...)
	nd.Policy = policy
	if cfg != nil {
		nd.Config = cloneConfig(cfg)
	}
	nd.Generation++
	cmd := r.command(Command{Kind: CmdDescUpdate, Desc: nd, ClosedTS: r.closed.issued})
	if err := r.propose(p, cmd); err != nil {
		return err
	}
	// A change that applied after the update keeps its placement.
	if d := r.desc; !slices.Equal(d.Voters, nd.Voters) || !slices.Equal(d.NonVoters, nd.NonVoters) || d.Policy != policy {
		return fmt.Errorf("kv: descriptor of r%d changed before its placement update applied", d.RangeID)
	}
	return nil
}

// cloneConfig copies a zone config that enters a descriptor, which never
// mutates it afterwards; nil stays nil.
func cloneConfig(cfg *zones.Config) *zones.Config {
	if cfg == nil {
		return nil
	}
	c := cfg.Clone()
	return &c
}

// proposeConfChange replicates a membership change through r's group and
// parks p until it applied on r.
func (r *Replica) proposeConfChange(p *sim.Proc, cc raft.ConfChange) error {
	f, err := r.raft.ProposeConfChange(cc)
	if err != nil {
		return err
	}
	return f.Wait(p).Err
}

// finishPlacement brings a range's lease and Raft group to what its
// descriptor names, the descriptor read as the range's leader has applied it
// (publishing it to the catalog if it is newer there): the lease moves to
// the voter the descriptor's zone config prefers (ChooseLeaseholder), then
// each voter the descriptor names as a non-voter is demoted, and each member
// or replica it does not name is removed, in ascending node order. These are
// Relocate's last steps. They depend on nothing but the range as it is, so a
// relocation left unfinished runs them again until they all succeed
// (finishLater).
func (a *Admin) finishPlacement(p *sim.Proc, rangeID RangeID) error {
	r, err := a.leaseholderReplica(rangeID)
	if err != nil {
		return err
	}
	if !r.awaitLeaderApplied(p) || !r.isLeaseholder() {
		return fmt.Errorf("kv: n%d neither leads r%d nor holds its lease", r.store.NodeID, rangeID)
	}
	a.Catalog.Update(r.desc.Clone())
	d := r.desc
	var cfg zones.Config
	if d.Config != nil {
		cfg = *d.Config
	}
	alloc := zones.Allocator{Topo: a.Topo}
	if lh := alloc.ChooseLeaseholder(cfg, d.Voters); lh != d.Leaseholder {
		if st, ok := a.Stores[lh]; !ok || st.Down() {
			return fmt.Errorf("kv: lease target n%d of r%d is down", lh, rangeID)
		}
		if err := a.TransferLease(p, rangeID, lh); err != nil {
			return err
		}
		if r, err = a.leaseholderReplica(rangeID); err != nil {
			return err
		}
	}
	nodes := a.Topo.Nodes()
	slices.Sort(nodes)
	for _, id := range nodes {
		if slices.Contains(d.NonVoters, id) && r.raft.IsVoter(id) {
			if err := r.proposeConfChange(p, raft.ConfChange{Type: raft.AddLearner, Node: id}); err != nil {
				return err
			}
		}
	}
	for _, id := range nodes {
		if slices.Contains(d.Voters, id) || slices.Contains(d.NonVoters, id) {
			continue
		}
		cc := raft.ConfChange{Type: raft.RemoveVoter, Node: id}
		if r.raft.IsLearner(id) {
			cc.Type = raft.RemoveLearner
		}
		if r.raft.IsVoter(id) || r.raft.IsLearner(id) {
			if err := r.proposeConfChange(p, cc); err != nil {
				return err
			}
		}
		if st, ok := a.Stores[id]; ok {
			st.RemoveReplica(rangeID)
		}
	}
	return nil
}

// finishRetry is how long a relocation left unfinished waits between two
// attempts to finish it.
const finishRetry = sim.Second

// finisher is the proc that finishes one range's relocation (finishLater).
type finisher struct {
	wake    *sim.Cond
	stopped bool
	exited  *sim.Future[struct{}]
}

// finishLater leaves a range whose relocation published, or may have
// published, its placement to a proc of its own, which runs finishPlacement
// every finishRetry until it succeeds or the range is gone. A range has at
// most one; a later relocation or merge of the range takes it over
// (takeOver).
func (a *Admin) finishLater(rangeID RangeID) {
	if a.finishing[rangeID] != nil {
		return
	}
	if a.finishing == nil {
		a.finishing = map[RangeID]*finisher{}
	}
	f := &finisher{wake: sim.NewCond(a.Sim), exited: sim.NewFuture[struct{}](a.Sim)}
	a.finishing[rangeID] = f
	a.Sim.Spawn(fmt.Sprintf("kv/finish-r%d", rangeID), func(p *sim.Proc) {
		defer f.exited.Set(struct{}{})
		for {
			f.wake.WaitTimeout(p, finishRetry)
			if f.stopped {
				return
			}
			if _, ok := a.Catalog.LookupByID(rangeID); !ok || a.finishPlacement(p, rangeID) == nil {
				break
			}
		}
		if a.finishing[rangeID] == f {
			delete(a.finishing, rangeID)
		}
	})
}

// takeOver makes the caller the one owner of a range's placement: it stops
// the range's finishing proc, if there is one, once the proc is between two
// attempts, and finishes the placement itself. If that fails, the proc is
// armed again and the error returned.
func (a *Admin) takeOver(p *sim.Proc, rangeID RangeID) error {
	f := a.finishing[rangeID]
	if f == nil {
		return nil
	}
	delete(a.finishing, rangeID)
	f.stopped = true
	f.wake.Broadcast()
	f.exited.Wait(p)
	if err := a.finishPlacement(p, rangeID); err != nil {
		a.finishLater(rangeID)
		return err
	}
	return nil
}

// sortedIDs returns map keys in ascending order for deterministic
// iteration.
func sortedIDs(m map[simnet.NodeID]bool) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SplitRange divides a range at splitKey: the left half keeps the range ID
// and shrinks, the right half becomes a new range with the same replica
// placement and policy. The split replicates through the old range's Raft
// log so every replica splits at the same point.
func (a *Admin) SplitRange(p *sim.Proc, rangeID RangeID, splitKey mvcc.Key) (*RangeDescriptor, error) {
	r, err := a.leaseholderReplica(rangeID)
	if err != nil {
		return nil, err
	}
	if !r.desc.ContainsKey(splitKey) || string(splitKey) == string(r.desc.StartKey) {
		return nil, fmt.Errorf("kv: split key %q not strictly inside r%d", splitKey, rangeID)
	}
	// Fence the right half, as CockroachDB's split latches it: no write or
	// resolution of its keys is evaluated until the split applied here, and
	// the writes evaluated before the fence (a pipelined one's latch frees
	// only once its entry applied) are waited out before the split is
	// proposed. Nothing of the right half then sits behind the split in
	// this log. The fence lifts once the proposal is decided: a parked write
	// re-routes by the new descriptor.
	r.fence = splitKey
	r.waitSpanUnlatched(p, splitKey, r.desc.EndKey)
	old := r.desc.Clone()
	newDesc := old.Clone()
	newDesc.RangeID = a.Catalog.NextRangeID()
	newDesc.StartKey = append(mvcc.Key(nil), splitKey...)
	newDesc.Generation = 1
	updated := old.Clone()
	updated.EndKey = append(mvcc.Key(nil), splitKey...)
	updated.Generation++
	cmd := r.command(Command{
		Kind: CmdSplit, Desc: updated, SplitDesc: newDesc,
		Ts:       r.store.Clock.Now().Add(r.store.Clock.MaxOffset()),
		ClosedTS: r.closed.issued,
	})
	err = r.propose(p, cmd)
	r.fence = nil
	r.fenceLifted.Broadcast()
	if err != nil {
		return nil, err
	}
	a.Catalog.Update(updated)
	if err := a.Catalog.Insert(newDesc); err != nil {
		return nil, err
	}
	// The right half's replicas appear as the split applies on each
	// store, so the leaseholder's initial campaign races replica creation.
	// Wait until Raft leadership sits with the lease.
	if err := a.alignLeadership(p, newDesc); err != nil {
		return nil, err
	}
	return newDesc, nil
}

// alignLeadership waits until the range's leaseholder leads it. Another
// winner hands leadership back by the lease rule (Replica.ensureLease).
func (a *Admin) alignLeadership(p *sim.Proc, desc *RangeDescriptor) error {
	recampaigned := false
	for i := 0; i < 2000; i++ {
		var leader *Replica
		present := 0
		for _, id := range desc.Voters {
			st, ok := a.Stores[id]
			if !ok {
				continue
			}
			if r, ok := st.Replica(desc.RangeID); ok {
				present++
				if r.raft.IsLeader() {
					leader = r
					break
				}
			}
		}
		if leader != nil && leader.store.NodeID == desc.Leaseholder {
			return nil
		}
		if leader == nil && !recampaigned && present > len(desc.Voters)/2 {
			// The leaseholder campaigned as the split applied locally, which
			// is before any follower learns the split committed: the vote
			// requests found no replica and were dropped, and Raft would
			// retry only after an election timeout. Campaign again now
			// that a quorum of the new range exists, so a split costs the
			// right half one append interval, not seconds.
			if r, ok := a.Stores[desc.Leaseholder].Replica(desc.RangeID); ok {
				recampaigned = true
				r.raft.Campaign()
			}
		}
		p.Sleep(10 * sim.Millisecond)
	}
	return fmt.Errorf("kv: range %d leadership did not align with lease on n%d", desc.RangeID, desc.Leaseholder)
}

// GatewayTxn constructs the coordinator-side Txn state for a transaction
// starting now at the given gateway store. It returns the record by value,
// for its owner to keep where it likes (a txn.Txn keeps it in a field of
// its own) and to hand requests a pointer to.
func GatewayTxn(st *Store, anchorKey mvcc.Key, priority int64) Txn {
	now := st.Clock.Now()
	id := st.Registry.Begin(st.NodeID, priority)
	return Txn{
		Meta: mvcc.TxnMeta{
			ID:             id,
			Key:            append(mvcc.Key(nil), anchorKey...),
			WriteTimestamp: now,
		},
		ReadTimestamp:          now,
		GlobalUncertaintyLimit: now.Add(st.Clock.MaxOffset()),
	}
}
