package chaos

import "testing"

// faultList runs opts's schedule with the network's latency jitter set to
// jitter and returns the events the nemesis injected.
func faultList(t *testing.T, opts Options, jitter float64) []Event {
	t.Helper()
	c := newCluster(opts)
	c.Topo.Jitter = jitter
	rep, err := runOn(c, opts)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("jitter %v: invariants violated:\n%s", jitter, rep)
	}
	return rep.Events
}

// TestFaultScheduleIgnoresJitter: the nemesis draws from a stream of its
// own, so the network's jitter, which decides when every message lands,
// moves no fault. One seed injects the same faults with jitter and without:
// the same kinds, targets and slow-link latencies. Only a restart blocks the
// nemesis for a length the run decides (its WAL replay), so in a mix without
// restarts every fault also lands the same interval after the first.
func TestFaultScheduleIgnoresJitter(t *testing.T) {
	for _, tc := range []struct {
		opts     Options
		restarts bool // whether the seed's schedule restarts a node
	}{
		{Options{Seed: 5, Faults: 6}, false},
		{Options{Seed: 2, Faults: 6}, true},
	} {
		seed := tc.opts.Seed
		a, b := faultList(t, tc.opts, 0.03), faultList(t, tc.opts, 0)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d events with jitter, %d without", seed, len(a), len(b))
		}
		restarts := false
		for i := range a {
			x, y := a[i], b[i]
			x.At, y.At = 0, 0
			if x != y {
				t.Errorf("seed %d: event %d is %s with jitter, %s without", seed, i, a[i], b[i])
			}
			restarts = restarts || x.Kind == EvRestartNode
		}
		if restarts != tc.restarts {
			t.Fatalf("seed %d: schedule restarts a node = %v, want %v; choose another seed", seed, restarts, tc.restarts)
		}
		if restarts {
			continue
		}
		for i := range a {
			if da, db := a[i].At.Sub(a[0].At), b[i].At.Sub(b[0].At); da != db {
				t.Errorf("seed %d: event %d lands %v after the first with jitter, %v without", seed, i, da, db)
			}
		}
	}
}
