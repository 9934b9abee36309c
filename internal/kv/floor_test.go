package kv

import (
	"math/rand"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
)

// TestTimestampCacheFloorIsInvisibleToWrites: the store loop floors the
// reads in a replica's key table at the closed timestamp it has issued. Two
// replicas see the same seeded run of reads, closed-timestamp promises and
// writes; only one of them has its floor raised. Every write lands at the
// same timestamp on both, including the writes whose own earlier read the
// floor pruned (the self-exemption), and the floored table keeps only the
// entries above the promise.
func TestTimestampCacheFloorIsInvisibleToWrites(t *testing.T) {
	for _, offset := range []sim.Duration{-DefaultCloseLag, 600 * sim.Millisecond} {
		ownPruned := 0
		for seed := int64(1); seed <= 20; seed++ {
			ownPruned += floorRun(t, seed, offset)
		}
		if ownPruned == 0 {
			t.Errorf("offset %v: no write met its own read pruned by the floor", offset)
		}
	}
}

// floorRun drives one seeded run and returns how many writes found their
// own read on the plain replica but not on the floored one.
func floorRun(t *testing.T, seed int64, offset sim.Duration) (ownPruned int) {
	t.Helper()
	pruned := 0
	rng := rand.New(rand.NewSource(seed))
	plain := &Replica{store: &Store{}, keys: newKeyTable(), closed: closedTracker{offset: offset}}
	floored := &Replica{store: &Store{}, keys: newKeyTable(), closed: closedTracker{offset: offset}}
	keys := make([]mvcc.Key, 16)
	for i := range keys {
		keys[i] = mvcc.Key{'a' + byte(i)}
	}
	now := hlc.Timestamp{WallTime: int64(10 * sim.Second)}
	for step := 0; step < 2000; step++ {
		now = now.Add(sim.Duration(rng.Int63n(int64(50 * sim.Millisecond))))
		key := keys[rng.Intn(len(keys))]
		txn := mvcc.TxnID(rng.Intn(4)) // 0: non-transactional
		// Reads and writes run up to 5s behind the clock, so some fall at or
		// below a lagging promise and some above it.
		at := now.Add(-sim.Duration(rng.Int63n(int64(5 * sim.Second))))
		switch rng.Intn(4) {
		case 0:
			plain.keys.recordRead(key, at, txn)
			floored.keys.recordRead(key, at, txn)
		case 1: // a closed-timestamp publication
			plain.closed.issue(now)
			floored.closed.issue(now)
		case 2:
			floored.raiseReadFloor()
			pruned += floorHolds(t, seed, plain, floored)
		case 3:
			_, ownPlain := plain.keys.maxRead(key, txn)
			_, ownFloored := floored.keys.maxRead(key, txn)
			if ownPlain && !ownFloored {
				ownPruned++
			}
			want, wantTarget := plain.writeTimestamp(nil, key, txn, at, now)
			got, gotTarget := floored.writeTimestamp(nil, key, txn, at, now)
			if got != want || gotTarget != wantTarget {
				t.Fatalf("seed %d step %d: write of %s by txn %d at %v lands at %v with the floor, %v without",
					seed, step, key, txn, at, got, want)
			}
		}
	}
	if pruned == 0 {
		t.Fatalf("seed %d: the floor never pruned an entry", seed)
	}
	return ownPruned
}

// floorHolds checks that the floored table holds exactly the plain table's
// entries above the issued promise, and returns how many it pruned.
func floorHolds(t *testing.T, seed int64, plain, floored *Replica) int {
	t.Helper()
	above := 0
	for _, e := range plain.keys.entries {
		if plain.closed.issued.Less(e.read) {
			above++
		}
	}
	if n := len(floored.keys.entries); n != above {
		t.Fatalf("seed %d: the floored table holds %d entries, %d lie above the promise %v",
			seed, n, above, floored.closed.issued)
	}
	return len(plain.keys.entries) - above
}
