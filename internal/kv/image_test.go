package kv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// A replica's image is one record: the checkpoint a store persists and the
// Raft snapshot a leader ships. These tests pin what a replica takes from it
// and from the other places it inherits state (a split's left half, a lease
// transfer).

// cutOff partitions node from every other store and keeps the leader r
// proposing for d, long enough for two turns of the store loop: r's log is
// then compacted past everything node acknowledged, and the node can only
// return through a snapshot.
func (h *recoveryHarness) cutOff(t *testing.T, r *Replica, node simnet.NodeID, d sim.Duration) {
	t.Helper()
	for id := range h.stores {
		if id != node {
			h.net.Partition(id, node)
		}
	}
	i := 0
	h.run(t, d+10*sim.Second, func(p *sim.Proc) error {
		for end := p.Now().Add(d); p.Now() < end; i++ {
			cmd := putCmd(r.store, fmt.Sprintf("cut%04d", i), "v")
			cmd.ClosedTS = r.closed.issue(r.store.Clock.Now())
			if err := r.propose(p, cmd); err != nil {
				return err
			}
			p.Sleep(100 * sim.Millisecond)
		}
		return nil
	})
}

// heal rejoins node to every other store.
func (h *recoveryHarness) heal(node simnet.NodeID) {
	for id := range h.stores {
		if id != node {
			h.net.Heal(id, node)
		}
	}
}

// TestSplitRightHalfInheritsPromise: the right half of a split is led by
// the left half's leaseholder under the left half's lease, so it inherits
// the closed-timestamp promise the split was proposed under, and its
// followers, which take the left half's closed timestamp, are right to
// serve reads below it. Here the promise is ahead of the node's own clock,
// as one inherited from a leaseholder whose clock ran fast is: a write the
// right half evaluates must still land above it.
func TestSplitRightHalfInheritsPromise(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	st := h.stores[1]
	lhs, _ := st.Replica(desc.RangeID)
	promise := lhs.closed.issue(st.Clock.Now().Add(10 * sim.Second))

	var put Response
	var rdesc *RangeDescriptor
	var issued hlc.Timestamp
	h.run(t, 30*sim.Second, func(p *sim.Proc) (err error) {
		if rdesc, err = h.admin.SplitRange(p, desc.RangeID, mvcc.Key("h")); err != nil {
			return err
		}
		rhs, _ := st.Replica(rdesc.RangeID)
		issued = rhs.closed.issued
		put = rhs.evaluate(p, &PutRequest{Key: mvcc.Key("m"), Value: mvcc.Value("v"), Timestamp: st.Clock.Now()})
		return put.Err
	})
	if issued.Less(promise) {
		t.Errorf("right half's promise floor %v is below the split's promise %v", issued, promise)
	}
	for _, id := range []simnet.NodeID{2, 3} {
		if f, _ := h.stores[id].Replica(rdesc.RangeID); f.closed.closed.Less(promise) {
			t.Fatalf("setup: n%d's right half closed at %v, below the promise %v", id, f.closed.closed, promise)
		}
	}
	if w := put.Put.WriteTimestamp; w.LessEq(promise) {
		t.Errorf("right half wrote at %v, at or below the promise %v its followers serve reads under", w, promise)
	}
}

// TestSnapshotInstallsClosedTimestamp: a snapshot installs the closed
// timestamp its image carries, so a follower read the cut-off follower had
// to redirect is served locally from the install instant, not the next
// append.
func TestSnapshotInstallsClosedTimestamp(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	leader, _ := h.stores[1].Replica(desc.RangeID)
	follower, _ := h.stores[3].Replica(desc.RangeID)
	h.cutOff(t, leader, 3, 12*sim.Second)
	readTS := leader.closed.closed
	if !follower.closed.closed.Less(readTS) {
		t.Fatalf("setup: the follower closed %v, already at the read's %v", follower.closed.closed, readTS)
	}

	read := func(p *sim.Proc) Response {
		return follower.evaluate(p, &GetRequest{Key: mvcc.Key("cut0000"), Timestamp: readTS, FollowerRead: true})
	}
	var before Response
	h.run(t, sim.Second, func(p *sim.Proc) error {
		before = read(p)
		return nil
	})
	var unavailable *FollowerReadUnavailableError
	if !errors.As(before.Err, &unavailable) {
		t.Fatalf("setup: the cut-off follower answered a read above its closed timestamp: %+v", before)
	}

	// The read is issued at the instant the snapshot installs.
	var got Response
	issued := false
	h.net.Register(3, func(m simnet.Message) {
		h.stores[3].handleMessage(m)
		if h.stores[3].SnapshotsApplied == 1 && !issued {
			issued = true
			h.s.Spawn("follower-read", func(p *sim.Proc) { got = read(p) })
		}
	})
	// The cut-off follower campaigned, so healing it deposes the leader and
	// the snapshot follows the re-election, whose length the election timers
	// decide.
	h.heal(3)
	h.s.RunFor(5 * sim.Second)
	if !issued {
		t.Fatal("setup: the follower was not sent a snapshot")
	}
	if got.Err != nil || got.Get == nil || got.Get.ServedBy != 3 {
		t.Errorf("follower read at the install instant: %+v, want served by n3", got)
	}
}

// TestSnapshotCarriesLeaseEpoch: a lease that reaches a replica only
// through a snapshot is bound to the epoch its lease command recorded,
// because the epoch is replicated state and the image carries it. Here the
// lease moves to a node cut off from the group, after its epoch was bumped.
func TestSnapshotCarriesLeaseEpoch(t *testing.T) {
	h := newRecoveryHarness(t, 3, 0)
	desc := h.createRange(t, []simnet.NodeID{1, 2, 3}, 1)
	leader, _ := h.stores[1].Replica(desc.RangeID)
	target, _ := h.stores[3].Replica(desc.RangeID)
	h.cutOff(t, leader, 3, 12*sim.Second)
	if !h.nl.IncrementEpoch(3, h.s.Now()) {
		t.Fatal("setup: n3's liveness record has not expired")
	}
	epoch := h.nl.Epoch(3)
	if target.leaseEpoch == epoch {
		t.Fatalf("setup: n3's replica already records epoch %d", epoch)
	}
	h.run(t, 10*sim.Second, func(p *sim.Proc) error {
		nd := leader.desc.Clone()
		nd.Leaseholder = 3
		nd.Generation++
		return leader.propose(p, Command{
			Kind: CmdLeaseTransfer, Desc: nd, LeaseEpoch: epoch,
			Ts: leader.store.Clock.Now().Add(leader.store.Clock.MaxOffset()), ClosedTS: leader.closed.issued,
		})
	})
	h.heal(3)
	for i := 0; i < 2000 && h.stores[3].SnapshotsApplied == 0; i++ {
		h.s.RunFor(sim.Millisecond)
	}
	if h.stores[3].SnapshotsApplied != 1 || target.desc.Leaseholder != 3 {
		t.Fatalf("setup: n3 installed %d snapshots and names n%d leaseholder", h.stores[3].SnapshotsApplied, target.desc.Leaseholder)
	}
	if target.LeaseEpoch() != epoch {
		t.Fatalf("n3 took the lease through a snapshot bound to epoch %d, its command recorded %d", target.LeaseEpoch(), epoch)
	}
}

// TestImageInstallsAsItRecovers: one image installed as a snapshot and the
// same image recovered from disk (where the install persisted it as
// received) give the same replica: descriptor, closed and issued
// timestamps, lease epoch and engine stream.
func TestImageInstallsAsItRecovers(t *testing.T) {
	_, leader := loadedStore(t, 500)
	leader.inherit(hlc.Timestamp{WallTime: 7_000}, hlc.Timestamp{WallTime: 9_000, Logical: 2}, hlc.Timestamp{})
	leader.leaseEpoch = 4
	img := leader.image(42, 3)

	st, follower := loadedStore(t, 0)
	follower.applySnapshotData(img, 42, 3)
	type state struct {
		desc           string
		closed, issued hlc.Timestamp
		epoch          int64
		engine         []byte
	}
	of := func(r *Replica) state {
		return state{fmt.Sprintf("%+v", *r.desc), r.closed.closed, r.closed.issued, r.leaseEpoch, r.engine.AppendSnapshot(nil)}
	}
	installed := of(follower)
	if want := of(leader); installed.desc != want.desc || installed.closed != want.closed || installed.issued != want.issued ||
		installed.epoch != want.epoch || !bytes.Equal(installed.engine, want.engine) {
		t.Fatalf("installed %+v, the image holds %+v", installed, want)
	}

	st.Crash()
	var err error
	st.Sim.Spawn("recover", func(p *sim.Proc) { _, err = st.Recover(p) })
	st.Sim.RunFor(100 * sim.Millisecond) // the recovery charge; no election timeout yet
	if err != nil {
		t.Fatal(err)
	}
	reborn, _ := st.Replica(1)
	recovered := of(reborn)
	if recovered.desc != installed.desc || recovered.closed != installed.closed || recovered.issued != installed.issued ||
		recovered.epoch != installed.epoch || !bytes.Equal(recovered.engine, installed.engine) {
		t.Fatalf("recovered %+v, installed %+v", recovered, installed)
	}
	if reborn.raft.Applied() != 42 || reborn.raft.AppliedTerm() != 3 {
		t.Fatalf("recovered at (%d,%d), the image was cut at (42,3)", reborn.raft.Applied(), reborn.raft.AppliedTerm())
	}
}
