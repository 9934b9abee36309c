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
	// HalfLife is the QPS decay half-life (default 30s, applied by
	// NewRangeLoadTracker).
	HalfLife sim.Duration
	// SplitQPS is the rate above which a range splits at a load-weighted
	// key (default 500).
	SplitQPS float64
	// MergeQPS is the rate below which a range counts as cold (default 50).
	MergeQPS float64
	// MergeTicks is how many consecutive cold ticks BOTH neighbors need
	// before merging — hysteresis against split/merge flapping (default 3).
	MergeTicks int
}

const (
	// leaseShare is the single-region traffic fraction that attracts the
	// lease.
	leaseShare = 0.66
	// leaseTicks is how many consecutive ticks the same region must
	// dominate before the lease moves.
	leaseTicks = 2
)

func (lc LoadConfig) withDefaults() LoadConfig {
	if lc.Interval <= 0 {
		lc.Interval = 10 * sim.Second
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
	Splits, Merges, LeaseMoves int64
}

func (d RangeDecisions) String() string {
	return fmt.Sprintf("splits=%d merges=%d lease_moves=%d", d.Splits, d.Merges, d.LeaseMoves)
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
// at the same log position everywhere. Only a finished colocation is
// subsumed: one that Relocate left to finish later (finishLater) fails the
// merge before anything is frozen, and the load queue tries again.
func (a *Admin) MergeRanges(p *sim.Proc, lhsID RangeID) error {
	if err := a.takeOver(p, lhsID); err != nil {
		return err
	}
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
	if a.finishing[rhsID] != nil {
		return fmt.Errorf("kv: r%d's colocation onto r%d is unfinished", rhsID, lhsID)
	}

	// 2. Freeze the right range.
	rr, err := a.leaseholderReplica(rhsID)
	if err != nil {
		return err
	}
	sub := rr.command(Command{Kind: CmdSubsume, ClosedTS: rr.closed.issued})
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
	cmd := lr.command(Command{
		Kind: CmdMerge, Desc: merged, SplitDesc: rdesc.Clone(),
		Ts:              lr.store.Clock.Now().Add(lr.store.Clock.MaxOffset()),
		ClosedTS:        lr.closed.issued,
		SubsumeClosedTS: subClosed,
	})
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

// StartLoadQueue runs the allocator loop: split hot ranges at a load-weighted
// key, merge cold adjacent ranges, and move leases toward traffic while
// honoring lease preferences. Replicas never move for load: a zone config
// fixes each voter's region. It returns a stop function. All decisions run
// on the virtual clock over deterministic traffic accounting, so same-seed
// runs make identical decisions.
func (a *Admin) StartLoadQueue(lc LoadConfig) (stop func()) {
	lc = lc.withDefaults()
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
	// 1. Split hot ranges at the load-weighted key.
	for _, d := range a.Catalog.All() {
		if a.Load.QPS(d.RangeID) <= lc.SplitQPS {
			continue
		}
		// Nil when all samples sit on one key: splitting cannot spread that
		// load.
		key := a.Load.SplitKey(d.RangeID, d.StartKey, d.EndKey)
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
		a.LoadSplits++
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
		// MergeRanges refuses mismatched policies and zone configs before
		// any side effect.
		if err := a.MergeRanges(p, cl.RangeID); err != nil {
			continue
		}
		delete(coldTicks, cr.RangeID)
		coldTicks[cl.RangeID] = 0
		a.Merges++
		a.bumpDecision(cl.RangeID, func(rd *RangeDecisions) { rd.Merges++ })
	}

	// 3. Move leases toward traffic: to the hot region's lowest-numbered
	// voter, unless the lease preferences pin the lease elsewhere.
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
		if cfg, ok := a.Catalog.ZoneConfig(cur.RangeID); ok && len(cfg.LeasePreferences) > 0 && !cfg.Prefers(top) {
			continue
		}
		var target simnet.NodeID
		for _, v := range cur.Voters {
			if a.regionOf(v) == top && (target == 0 || v < target) {
				target = v
			}
		}
		if target == 0 {
			continue
		}
		if err := a.TransferLease(p, cur.RangeID, target); err == nil {
			a.LeaseMoves++
			a.bumpDecision(cur.RangeID, func(rd *RangeDecisions) { rd.LeaseMoves++ })
			hotTicks[cur.RangeID] = 0
		}
	}
}
