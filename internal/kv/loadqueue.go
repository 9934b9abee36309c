package kv

import (
	"bytes"
	"fmt"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// LoadConfig tunes the allocator loop (split/merge/rebalance). Zero fields
// take defaults.
type LoadConfig struct {
	// Interval is the queue cadence (default 10s).
	Interval sim.Duration
	// HalfLife is the QPS decay half-life (default 30s).
	HalfLife sim.Duration
	// SplitQPS is the rate above which a range splits at a load-weighted
	// key (default 500).
	SplitQPS float64
	// MergeQPS is the rate below which a range counts as cold (default 50).
	MergeQPS float64
	// MergeTicks is how many consecutive cold ticks BOTH neighbors need
	// before merging — hysteresis against split/merge flapping (default 3).
	MergeTicks int
	// SplitKeys, when non-zero, is the live key count above which a range
	// splits at its middle key regardless of load (CockroachDB's size-based
	// split queue); merges that would exceed it are refused. Zero disables
	// size-based splitting.
	SplitKeys int
}

const (
	// leaseShare is the single-region traffic fraction that attracts the
	// lease.
	leaseShare = 0.66
	// leaseTicks is how many consecutive ticks the same region must
	// dominate before the lease (or a replica) moves.
	leaseTicks = 2
)

func (lc LoadConfig) withDefaults() LoadConfig {
	if lc.Interval <= 0 {
		lc.Interval = 10 * sim.Second
	}
	if lc.HalfLife <= 0 {
		lc.HalfLife = 30 * sim.Second
	}
	if lc.SplitQPS <= 0 {
		lc.SplitQPS = 500
	}
	if lc.MergeQPS <= 0 {
		lc.MergeQPS = 50
	}
	if lc.MergeTicks <= 0 {
		lc.MergeTicks = 3
	}
	return lc
}

// RangeDecisions counts the allocator loop's actions on one range; surfaced
// through mrdb_internal.ranges.
type RangeDecisions struct {
	Splits, Merges, LeaseMoves, ReplicaMoves int64
}

func (d RangeDecisions) String() string {
	return fmt.Sprintf("splits=%d merges=%d lease_moves=%d replica_moves=%d",
		d.Splits, d.Merges, d.LeaseMoves, d.ReplicaMoves)
}

// Decisions returns the allocator loop's decision counts for a range.
func (a *Admin) Decisions(id RangeID) RangeDecisions {
	if d, ok := a.decisions[id]; ok {
		return *d
	}
	return RangeDecisions{}
}

func (a *Admin) bumpDecision(id RangeID, f func(*RangeDecisions)) {
	if a.decisions == nil {
		a.decisions = map[RangeID]*RangeDecisions{}
	}
	d := a.decisions[id]
	if d == nil {
		d = &RangeDecisions{}
		a.decisions[id] = d
	}
	f(d)
}

func (a *Admin) regionOf(id simnet.NodeID) simnet.Region {
	l, _ := a.Topo.LocalityOf(id)
	return l.Region
}

// configsMergeable reports whether two ranges' zone configs allow merging:
// both unregistered, or both registered and identical.
func (a *Admin) configsMergeable(x, y RangeID) bool {
	cx, okx := a.Catalog.ZoneConfig(x)
	cy, oky := a.Catalog.ZoneConfig(y)
	if okx != oky {
		return false
	}
	if !okx {
		return true
	}
	return cx.String() == cy.String()
}

// MergeRanges merges a range with its right-hand neighbor: the neighbor's
// replicas are first colocated onto the left range's nodes, the neighbor is
// frozen with a Subsume entry in its own log (after which its replicas
// reject all traffic and proposals), its log is quiesced so the absorbed
// data is complete and immutable, and finally a Merge entry in the left
// range's log widens every left replica, copying the local right-hand data
// at the same log position everywhere.
func (a *Admin) MergeRanges(p *sim.Proc, lhsID RangeID) error {
	lhs, ok := a.Catalog.LookupByID(lhsID)
	if !ok {
		return fmt.Errorf("kv: unknown range %d", lhsID)
	}
	if lhs.EndKey == nil {
		return fmt.Errorf("kv: r%d has no right neighbor", lhsID)
	}
	rhs, err := a.Catalog.Lookup(lhs.EndKey)
	if err != nil {
		return err
	}
	if !bytes.Equal(rhs.StartKey, lhs.EndKey) {
		return fmt.Errorf("kv: r%d and r%d are not adjacent", lhsID, rhs.RangeID)
	}
	if rhs.Policy != lhs.Policy {
		return fmt.Errorf("kv: r%d and r%d have different closed-ts policies", lhsID, rhs.RangeID)
	}
	if !a.configsMergeable(lhsID, rhs.RangeID) {
		return fmt.Errorf("kv: r%d and r%d have different zone configs", lhsID, rhs.RangeID)
	}
	rhsID := rhs.RangeID

	// 1. Colocate the right range onto the left range's exact placement so
	// every left replica has a local right replica to absorb.
	colocate := zones.Placement{
		Voters:      append([]simnet.NodeID(nil), lhs.Voters...),
		NonVoters:   append([]simnet.NodeID(nil), lhs.NonVoters...),
		Leaseholder: lhs.Leaseholder,
	}
	if err := a.Relocate(p, rhsID, colocate, rhs.Policy, nil); err != nil {
		return err
	}

	// 2. Freeze the right range.
	rr, err := a.leaseholderReplica(rhsID)
	if err != nil {
		return err
	}
	sub := Command{
		Kind:     CmdSubsume,
		Ts:       rr.store.Clock.Now().Add(rr.store.Clock.MaxOffset()),
		ClosedTS: rr.closed.issued,
	}
	if err := rr.propose(p, sub); err != nil {
		return err
	}
	subClosed := rr.closed.issued

	// 3. Quiesce: in-flight (e.g. pipelined) proposals can still land after
	// the subsume entry; wait until the log stops growing and every replica
	// has applied all of it, so the merged data is identical everywhere.
	rdesc, ok := a.Catalog.LookupByID(rhsID)
	if !ok {
		return fmt.Errorf("kv: range %d vanished during merge", rhsID)
	}
	quiesced := false
	for i := 0; i < 2000; i++ {
		last := rr.raft.LastIndex()
		settled := true
		for _, id := range rdesc.Replicas() {
			st, ok := a.Stores[id]
			if !ok {
				settled = false
				break
			}
			rep, ok := st.Replica(rhsID)
			if !ok {
				settled = false
				break
			}
			if rep.raft.Applied() < last {
				settled = false
				break
			}
		}
		if settled && rr.raft.LastIndex() == last {
			quiesced = true
			break
		}
		p.Sleep(10 * sim.Millisecond)
	}
	if !quiesced {
		return fmt.Errorf("kv: r%d did not quiesce for merge", rhsID)
	}

	// 4. Widen the left range through its own log.
	lr, err := a.leaseholderReplica(lhsID)
	if err != nil {
		return err
	}
	merged := lr.desc.Clone()
	merged.EndKey = append(mvcc.Key(nil), rdesc.EndKey...)
	gen := merged.Generation
	if rdesc.Generation > gen {
		gen = rdesc.Generation
	}
	merged.Generation = gen + 1
	cmd := Command{
		Kind: CmdMerge, Desc: merged, SplitDesc: rdesc.Clone(),
		Ts:              lr.store.Clock.Now().Add(lr.store.Clock.MaxOffset()),
		ClosedTS:        lr.closed.issued,
		SubsumeClosedTS: subClosed,
	}
	if err := lr.propose(p, cmd); err != nil {
		return err
	}
	// Publish: drop the right descriptor and widen the left back-to-back
	// (no yield between the two mutations, so no lookup sees a gap).
	a.Catalog.Remove(rhsID)
	a.Catalog.Update(merged)
	a.Load.Forget(rhsID)
	return nil
}

// StartLoadQueue runs the allocator loop: split oversized ranges at their
// middle key (when lc.SplitKeys is set) and hot ranges at a load-weighted
// key, merge cold adjacent ranges, and move leases and replicas toward
// traffic while honoring zone configs. It returns a stop
// function. All decisions run on the virtual clock over deterministic
// traffic accounting, so same-seed runs make identical decisions.
func (a *Admin) StartLoadQueue(lc LoadConfig) (stop func()) {
	lc = lc.withDefaults()
	if a.Load == nil {
		a.Load = NewRangeLoadTracker(a.Sim, lc.HalfLife)
	}
	coldTicks := map[RangeID]int{}
	hotTicks := map[RangeID]int{}
	hotRegion := map[RangeID]simnet.Region{}
	running := false
	return a.Sim.Ticker(lc.Interval, func() {
		if running {
			return
		}
		running = true
		a.Sim.Spawn("kv/load-queue", func(p *sim.Proc) {
			defer func() { running = false }()
			a.loadTick(p, lc, coldTicks, hotTicks, hotRegion)
		})
	})
}

func (a *Admin) loadTick(p *sim.Proc, lc LoadConfig, coldTicks, hotTicks map[RangeID]int, hotRegion map[RangeID]simnet.Region) {
	// 1. Split oversized ranges at the middle key, hot ranges at the
	// load-weighted key.
	for _, d := range a.Catalog.All() {
		key := a.sizeSplitKey(d, lc.SplitKeys)
		bySize := key != nil
		if !bySize && a.Load.QPS(d.RangeID) > lc.SplitQPS {
			// Nil when all samples sit on one key: splitting cannot spread
			// that load.
			key = a.Load.SplitKey(d.RangeID, d.StartKey, d.EndKey)
		}
		if key == nil {
			continue
		}
		if _, err := a.SplitRange(p, d.RangeID, key); err != nil {
			// Benign: the range may be mid-reconfiguration; retry next tick.
			continue
		}
		// Both halves restart accounting (the right half under its fresh
		// range ID) so the stale pre-split rate cannot immediately
		// re-trigger a split.
		a.Load.Forget(d.RangeID)
		delete(coldTicks, d.RangeID)
		if bySize {
			a.Splits++
		} else {
			a.LoadSplits++
		}
		a.bumpDecision(d.RangeID, func(rd *RangeDecisions) { rd.Splits++ })
	}

	// 2. Merge cold adjacent ranges, with hysteresis: both neighbors must
	// have been cold for MergeTicks consecutive ticks.
	descs := a.Catalog.All()
	for _, d := range descs {
		if a.Load.QPS(d.RangeID) < lc.MergeQPS {
			coldTicks[d.RangeID]++
		} else {
			coldTicks[d.RangeID] = 0
		}
	}
	for i := 0; i+1 < len(descs); i++ {
		// Re-resolve both sides: an earlier merge this tick may have
		// removed or widened them.
		cl, ok1 := a.Catalog.LookupByID(descs[i].RangeID)
		cr, ok2 := a.Catalog.LookupByID(descs[i+1].RangeID)
		if !ok1 || !ok2 || cl.EndKey == nil || !bytes.Equal(cl.EndKey, cr.StartKey) {
			continue
		}
		if coldTicks[cl.RangeID] < lc.MergeTicks || coldTicks[cr.RangeID] < lc.MergeTicks {
			continue
		}
		if cl.Policy != cr.Policy || !a.configsMergeable(cl.RangeID, cr.RangeID) {
			continue
		}
		if lc.SplitKeys > 0 && a.mergedKeyCount(cl, cr) > lc.SplitKeys {
			// The merged range would immediately re-split on size.
			continue
		}
		if err := a.MergeRanges(p, cl.RangeID); err != nil {
			continue
		}
		delete(coldTicks, cr.RangeID)
		coldTicks[cl.RangeID] = 0
		a.Merges++
		a.bumpDecision(cl.RangeID, func(rd *RangeDecisions) { rd.Merges++ })
	}

	// 3. Move leases (and, when needed, replicas) toward traffic.
	for _, d := range a.Catalog.All() {
		shares := a.Load.RegionShares(d.RangeID)
		if len(shares) == 0 || shares[0].Share < leaseShare {
			hotTicks[d.RangeID] = 0
			continue
		}
		top := shares[0].Region
		if hotRegion[d.RangeID] != top {
			hotRegion[d.RangeID] = top
			hotTicks[d.RangeID] = 1
		} else {
			hotTicks[d.RangeID]++
		}
		if hotTicks[d.RangeID] < leaseTicks {
			continue
		}
		cur, ok := a.Catalog.LookupByID(d.RangeID)
		if !ok || a.regionOf(cur.Leaseholder) == top {
			continue
		}
		cfg, hasCfg := a.Catalog.ZoneConfig(cur.RangeID)
		if hasCfg && len(cfg.LeasePreferences) > 0 && !regionInPrefs(top, cfg.LeasePreferences) {
			// The config pins the lease elsewhere; respect it.
			continue
		}
		// Prefer a lease transfer to an existing voter in the hot region.
		var target simnet.NodeID
		for _, v := range cur.Voters {
			if a.regionOf(v) == top && (target == 0 || v < target) {
				target = v
			}
		}
		if target != 0 {
			if err := a.TransferLease(p, cur.RangeID, target); err == nil {
				a.LeaseMoves++
				a.bumpDecision(cur.RangeID, func(rd *RangeDecisions) { rd.LeaseMoves++ })
				hotTicks[cur.RangeID] = 0
			}
			continue
		}
		// No voter in the hot region: swap one in if the config allows it.
		if !hasCfg {
			continue
		}
		if a.rebalanceReplica(p, cur, cfg, top, shares) {
			a.ReplicaMoves++
			a.bumpDecision(cur.RangeID, func(rd *RangeDecisions) { rd.ReplicaMoves++ })
			hotTicks[cur.RangeID] = 0
		}
	}
}

func regionInPrefs(r simnet.Region, prefs []simnet.Region) bool {
	for _, p := range prefs {
		if p == r {
			return true
		}
	}
	return false
}

// sizeSplitKey returns the middle key of a range whose leaseholder holds
// more than maxKeys live keys; nil when size-based splitting is off
// (maxKeys == 0), the range is small enough, or its leaseholder is not
// currently leading.
func (a *Admin) sizeSplitKey(d *RangeDescriptor, maxKeys int) mvcc.Key {
	if maxKeys <= 0 {
		return nil
	}
	r, err := a.leaseholderReplica(d.RangeID)
	if err != nil || !r.raft.IsLeader() || r.engine.KeyCountInSpan(d.StartKey, d.EndKey) <= maxKeys {
		return nil
	}
	mid, _ := r.engine.ApproxMiddleKey(d.StartKey, d.EndKey)
	return mid
}

// mergedKeyCount estimates the live key count of a merged pair.
func (a *Admin) mergedKeyCount(lhs, rhs *RangeDescriptor) int {
	lr, err := a.leaseholderReplica(lhs.RangeID)
	if err != nil {
		return 1 << 30
	}
	rr, err := a.leaseholderReplica(rhs.RangeID)
	if err != nil {
		return 1 << 30
	}
	return lr.engine.KeyCountInSpan(lhs.StartKey, lhs.EndKey) +
		rr.engine.KeyCountInSpan(rhs.StartKey, rhs.EndKey)
}

// rebalanceReplica swaps the lowest-traffic droppable voter for a node in
// the hot region, keeping the zone config exactly satisfied throughout
// (validated before acting). Returns whether a move was made.
func (a *Admin) rebalanceReplica(p *sim.Proc, d *RangeDescriptor, cfg zones.Config, hot simnet.Region, shares []RegionShare) bool {
	onRange := map[simnet.NodeID]bool{}
	for _, id := range d.Replicas() {
		onRange[id] = true
	}
	// Candidate to add: lowest-ID free node in the hot region.
	var add simnet.NodeID
	for _, id := range a.Topo.NodesInRegion(hot) {
		if _, ok := a.Stores[id]; ok && !onRange[id] {
			add = id
			break
		}
	}
	if add == 0 {
		return false
	}
	shareOf := map[simnet.Region]float64{}
	for _, s := range shares {
		shareOf[s.Region] = s.Share
	}
	// Candidates to drop: voters other than the leaseholder, coldest
	// region first (node ID breaks ties).
	drops := append([]simnet.NodeID(nil), d.Voters...)
	sortNodeIDs(drops, func(x, y simnet.NodeID) bool {
		sx, sy := shareOf[a.regionOf(x)], shareOf[a.regionOf(y)]
		if sx != sy {
			return sx < sy
		}
		return x < y
	})
	checker := &zones.Allocator{Topo: a.Topo}
	for _, drop := range drops {
		if drop == d.Leaseholder {
			continue
		}
		var voters []simnet.NodeID
		for _, v := range d.Voters {
			if v == drop {
				voters = append(voters, add)
			} else {
				voters = append(voters, v)
			}
		}
		pl := zones.Placement{
			Voters:      voters,
			NonVoters:   append([]simnet.NodeID(nil), d.NonVoters...),
			Leaseholder: d.Leaseholder,
		}
		if checker.CheckPlacement(cfg, pl) != nil {
			continue
		}
		return a.Relocate(p, d.RangeID, pl, d.Policy, nil) == nil
	}
	return false
}

func sortNodeIDs(ids []simnet.NodeID, less func(x, y simnet.NodeID) bool) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
