package kv

import (
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
}

// CreateRange instantiates a range over [start, end) with the given
// placement and closed-timestamp policy, elects its leaseholder, and
// registers it in the catalog.
func (a *Admin) CreateRange(start, end mvcc.Key, placement zones.Placement, policy ClosedTSPolicy) (*RangeDescriptor, error) {
	desc := &RangeDescriptor{
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
// which must already hold a voting replica.
func (a *Admin) TransferLease(p *sim.Proc, rangeID RangeID, target simnet.NodeID) error {
	r, err := a.leaseholderReplica(rangeID)
	if err != nil {
		return err
	}
	desc := r.desc.Clone()
	if desc.Leaseholder == target {
		return nil
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
// range's new zone config: it is registered in the catalog atomically with
// the descriptor publication (step 3), so a placement checker never observes
// the new placement against the old config or vice versa. A nil cfg leaves
// the zone config alone.
func (a *Admin) Relocate(p *sim.Proc, rangeID RangeID, placement zones.Placement, policy ClosedTSPolicy, cfg *zones.Config) error {
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
	inNew := map[simnet.NodeID]bool{}
	for _, id := range placement.Replicas() {
		inNew[id] = true
	}

	propose := func(cc raft.ConfChange) error {
		f, err := r.raft.ProposeConfChange(cc)
		if err != nil {
			return err
		}
		if res := f.Wait(p); res.Err != nil {
			return res.Err
		}
		return nil
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
		if err := propose(raft.ConfChange{Type: raft.AddLearner, Node: id}); err != nil {
			st.RemoveReplica(rangeID)
			return err
		}
	}
	// 2. Promote new voters. (Demotions of ex-voters happen only after
	// leadership has safely moved, below.)
	for _, id := range sortedIDs(newVoter) {
		if !oldVoter[id] {
			if err := propose(raft.ConfChange{Type: raft.AddVoter, Node: id}); err != nil {
				return err
			}
		}
	}
	// 3. Publish the new descriptor so every replica learns placement and
	// policy, and re-derives its timing from them as the entry applies
	// (setTiming).
	newDesc, err := publishPlacement(p, r, placement, policy)
	if err != nil {
		return err
	}
	a.Catalog.Update(newDesc)
	if cfg != nil {
		// The new zone config becomes authoritative in the same scheduler
		// step as the descriptor that satisfies it, so placement checkers
		// never pair a new config with the old placement or vice versa.
		a.Catalog.SetZoneConfig(rangeID, *cfg)
	}

	// 4. Move the lease (and Raft leadership) if the leaseholder is
	// changing — this must precede demoting the old leader.
	if placement.Leaseholder != old.Leaseholder {
		if err := a.TransferLease(p, rangeID, placement.Leaseholder); err != nil {
			return err
		}
		r, err = a.leaseholderReplica(rangeID)
		if err != nil {
			return err
		}
	}
	// 5. Demote ex-voters that remain as non-voters, then remove replicas
	// not in the new placement, proposing from the current leader.
	for _, id := range sortedIDs(oldVoter) {
		if !newVoter[id] && inNew[id] {
			if err := propose(raft.ConfChange{Type: raft.AddLearner, Node: id}); err != nil {
				return err
			}
		}
	}
	for _, id := range sortedIDs(inOld) {
		if inNew[id] {
			continue
		}
		if oldVoter[id] {
			if err := propose(raft.ConfChange{Type: raft.RemoveVoter, Node: id}); err != nil {
				return err
			}
		} else {
			if err := propose(raft.ConfChange{Type: raft.RemoveLearner, Node: id}); err != nil {
				return err
			}
		}
		a.Stores[id].RemoveReplica(rangeID)
	}
	return nil
}

// publishPlacement installs placement and policy in r's descriptor through
// r's log and returns the descriptor installed. The update is derived from
// the descriptor as it is when it is proposed, not as the relocation found
// it: a split or a lease move may have applied while the conf changes waited.
// A descriptor update applies only on top of the generation it was derived
// from (Replica.apply), as CockroachDB writes a descriptor with a conditional
// put, so one that another change overtook in the log is dropped, and the
// relocation fails with the descriptor as that change left it. The
// leaseholder stays: the lease (and Raft leadership) move via TransferLease,
// which must observe that it has not yet moved.
func publishPlacement(p *sim.Proc, r *Replica, placement zones.Placement, policy ClosedTSPolicy) (*RangeDescriptor, error) {
	nd := r.desc.Clone()
	nd.Voters = append([]simnet.NodeID(nil), placement.Voters...)
	nd.NonVoters = append([]simnet.NodeID(nil), placement.NonVoters...)
	nd.Policy = policy
	nd.Generation++
	cmd := r.command(Command{Kind: CmdDescUpdate, Desc: nd, ClosedTS: r.closed.issued})
	if err := r.propose(p, cmd); err != nil {
		return nil, err
	}
	// A change that applied after the update keeps its placement.
	if d := r.desc; !slices.Equal(d.Voters, nd.Voters) || !slices.Equal(d.NonVoters, nd.NonVoters) || d.Policy != policy {
		return nil, fmt.Errorf("kv: descriptor of r%d changed before its placement update applied", d.RangeID)
	}
	return r.desc.Clone(), nil
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
	// The right half inherits the left's zone config.
	if cfg, ok := a.Catalog.ZoneConfig(rangeID); ok {
		a.Catalog.SetZoneConfig(newDesc.RangeID, cfg)
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
