package kv

import (
	"mrdb/internal/hlc"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// DefaultCloseLag is the default trailing closed-timestamp interval
// (paper §5.1.1: "by default, leaseholders close timestamps that are 3
// seconds old").
const DefaultCloseLag = 3 * sim.Second

// SideTransportInterval is the cadence at which leaseholders of LEAD
// (GLOBAL) ranges publish closed-timestamp promises via heartbeats; the
// lead target must cover it so followers' closed timestamps never fall
// behind present time + max_offset between publications.
const SideTransportInterval = 100 * sim.Millisecond

// leadPropagationMargin absorbs jitter on the publication path.
const leadPropagationMargin = 50 * sim.Millisecond

// closedTracker tracks closed timestamps on one replica. On the leaseholder
// it also issues new closed-timestamp promises; every promise is attached
// to proposals and heartbeats, and once issued the leaseholder must not
// accept writes at or below it.
type closedTracker struct {
	// offset places a promise relative to the leaseholder's clock:
	// -DefaultCloseLag under ClosedTSLag, +LeadTime under ClosedTSLead.
	// Replica.setTiming derives it from the installed descriptor.
	offset sim.Duration

	// closed is the highest closed timestamp known on this replica.
	closed hlc.Timestamp
	// issued is the highest target this replica has promised as
	// leaseholder; writes must exceed it.
	issued hlc.Timestamp
}

// target computes the next closed-timestamp promise for the given
// leaseholder clock reading.
func (c *closedTracker) target(now hlc.Timestamp) hlc.Timestamp {
	t := now.Add(c.offset)
	if t.Less(c.issued) {
		t = c.issued
	}
	return t
}

// issue records a promise and returns it.
func (c *closedTracker) issue(now hlc.Timestamp) hlc.Timestamp {
	t := c.target(now)
	if c.issued.Less(t) {
		c.issued = t
	}
	return t
}

// advance moves the replica's known closed timestamp forward.
func (c *closedTracker) advance(ts hlc.Timestamp) {
	if c.closed.Less(ts) {
		c.closed = ts
	}
}

// setTiming derives the replica's closed-timestamp offset and Raft heartbeat
// cadence from its descriptor's policy and placement. It runs wherever a
// replica installs a descriptor, so every replica switches at the same log
// position on a relocation, and the lead follows the lease on a transfer or
// a failover. Under ClosedTSLead the leaseholder closes LeadTime ahead and
// publishes on the side-transport cadence that lead budgets for; under
// ClosedTSLag it closes DefaultCloseLag behind at Raft's default cadence.
func (r *Replica) setTiming() {
	d, s := r.desc, r.store
	r.closed.offset = -DefaultCloseLag
	heartbeat := raft.DefaultHeartbeatInterval
	if d.Policy == ClosedTSLead {
		r.closed.offset = LeadTime(s.Topo, d.Leaseholder, d.Voters, d.NonVoters, s.Clock.MaxOffset())
		heartbeat = SideTransportInterval
	}
	r.raft.SetHeartbeatInterval(heartbeat)
}

// LeadTime computes the closed-timestamp lead for a range with the given
// replica placement: Raft consensus latency to the nearest quorum plus full
// replication latency to the furthest replica plus the maximum clock offset
// (paper §6.2.1).
func LeadTime(topo *simnet.Topology, leaseholder simnet.NodeID, voters, nonVoters []simnet.NodeID, maxOffset sim.Duration) sim.Duration {
	lRaft := quorumRTT(topo, leaseholder, voters)
	// L_replicate: one-way delay to the furthest replica of any kind.
	var lRep sim.Duration
	for _, ids := range [2][]simnet.NodeID{voters, nonVoters} {
		for _, id := range ids {
			lRep = max(lRep, topo.OneWay(leaseholder, id))
		}
	}
	// The paper's estimate is L_raft + L_replicate + max_offset (§6.2.1);
	// on top of that the lead must cover the closed-timestamp publication
	// cadence so present time stays closed continuously at followers.
	return lRaft + lRep + maxOffset + SideTransportInterval + leadPropagationMargin
}

// quorumRTT is L_raft, the round trip from a leaseholder to the voter whose
// ack completes a quorum: the ⌊m/2⌋-th nearest of the m other voters (at
// least the nearest), which for 3 or 5 voters is the ⌊n/2⌋-th. It allocates
// nothing for up to 8 other voters.
func quorumRTT(topo *simnet.Topology, leaseholder simnet.NodeID, voters []simnet.NodeID) sim.Duration {
	var buf [8]sim.Duration
	rtts := buf[:0]
	for _, v := range voters {
		if v != leaseholder {
			rtts = append(rtts, topo.NodeRTT(leaseholder, v))
		}
	}
	if len(rtts) == 0 {
		return 0
	}
	for i := 1; i < len(rtts); i++ { // insertion sort: a handful of voters
		for j := i; j > 0 && rtts[j] < rtts[j-1]; j-- {
			rtts[j], rtts[j-1] = rtts[j-1], rtts[j]
		}
	}
	return rtts[max(len(rtts)/2, 1)-1]
}
