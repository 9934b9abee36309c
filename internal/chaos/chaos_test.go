package chaos

import (
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/sim"
)

// TestChaosDeterminism runs the same seed twice and requires the entire
// report — fault schedule, workload counts, invariant results — to be
// identical. This is the property that makes chaos failures debuggable:
// any run can be replayed exactly from its seed.
func TestChaosDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Options{Seed: 7, Faults: 8})
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Schedule() != b.Schedule() {
		t.Fatalf("fault schedules differ for same seed:\n--- run 1:\n%s--- run 2:\n%s",
			a.Schedule(), b.Schedule())
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ for same seed:\n--- run 1:\n%s--- run 2:\n%s", a, b)
	}
	if !a.OK() {
		t.Fatalf("invariants violated:\n%s", a)
	}
	t.Logf("\n%s", a)
}

// TestChaosSmoke injects 100+ nemesis events against the bank and
// linearizability workloads and requires every invariant to hold, and every
// measured recovery to finish within the RTO bound.
func TestChaosSmoke(t *testing.T) {
	rep, err := Run(Options{Seed: 42, Faults: 55})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Events) < 100 {
		t.Fatalf("only %d events injected, want >= 100", len(rep.Events))
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	if rep.RegionFailures == 0 {
		t.Fatal("schedule contained no region failures; widen the fault mix")
	}
	if rep.TransfersOK == 0 || rep.LinReads == 0 || rep.BankAudits == 0 {
		t.Fatalf("workloads made no progress:\n%s", rep)
	}
	if max := rep.MaxRTO(); max > 15*sim.Second {
		t.Fatalf("recovery took %v, want <= 15s:\n%s", max, rep)
	}
	if rep.LeaseAcquisitions == 0 {
		t.Fatal("no failover lease acquisitions despite region failures")
	}
}

// TestElasticPlacementInvariants is the rebalancer-invariants check: a
// nemesis-free run where the load queue chases hot single-region traffic
// (splits + a lease move) while a migrator relocates the bank range's
// replicas back and forth under live transfer traffic. The placement
// monitor samples every configured range each virtual second and must never
// observe a placement below its zone config's constraints — replica counts
// and region survivability hold at every instant of every migration.
func TestElasticPlacementInvariants(t *testing.T) {
	rep, err := Run(Options{Seed: 23, Faults: 0})
	if err != nil {
		t.Fatalf("nemesis-free chaos run failed: %v", err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Events) != 0 {
		t.Fatalf("nemesis-free run injected %d events", len(rep.Events))
	}
	if rep.PlacementChecks == 0 {
		t.Fatal("placement monitor never sampled")
	}
	if rep.PlacementViolations != 0 {
		t.Fatalf("placement violated %d times (first: %s)",
			rep.PlacementViolations, rep.PlacementFirstBad)
	}
	if rep.Relocations < 2 {
		t.Fatalf("only %d migrations completed, want >= 2", rep.Relocations)
	}
	if rep.LoadSplits == 0 {
		t.Fatal("hot elastic traffic produced no load-based splits")
	}
	if rep.LeaseMoves == 0 {
		t.Fatal("single-region traffic never attracted the lease")
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
}

// TestElasticDeterminism replays a nemesis-free run and requires
// bit-identical reports: the load queue's decisions and the migrator's
// schedule are all driven by the virtual clock and the seeded RNG.
func TestElasticDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Options{Seed: 29, Faults: 0})
		if err != nil {
			t.Fatalf("nemesis-free chaos run failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("elastic reports differ for same seed:\n--- run 1:\n%s--- run 2:\n%s", a, b)
	}
	if !a.OK() {
		t.Fatalf("invariants violated:\n%s", a)
	}
}

// TestSeedsDiffer sanity-checks that different seeds actually produce
// different schedules (the RNG is being consulted, not a fixed script).
func TestSeedsDiffer(t *testing.T) {
	a, err := Run(Options{Seed: 1, Faults: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 2, Faults: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule() == b.Schedule() {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestZeroFaultsInjectsNothing: Faults means what it says. Zero is a
// nemesis-free run, not a request for the default schedule.
func TestZeroFaultsInjectsNothing(t *testing.T) {
	rep, err := Run(Options{Seed: 1, Faults: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("Faults: 0 injected %d events:\n%s", len(rep.Events), rep.Schedule())
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
}

// TestClosedTSMonitorIsPerIncarnation: the monitor is strict while the same
// replica answers for a (node, range) slot and re-baselines when a
// relocation (or a restart) put a new replica there — a re-created replica
// reads closed = 0 until its initial snapshot lands, which is not a
// regression of the replica that was removed.
func TestClosedTSMonitorIsPerIncarnation(t *testing.T) {
	h := &harness{rep: &Report{}, closedLast: map[string]closedSample{}}
	first, second := &kv.Replica{}, &kv.Replica{}
	at := func(wall int64) hlc.Timestamp { return hlc.Timestamp{WallTime: wall} }
	h.observeClosed("n6/r1", first, at(10))
	h.observeClosed("n6/r1", first, at(12))
	h.observeClosed("n6/r1", second, at(0)) // removed and re-added: new baseline
	h.observeClosed("n6/r1", second, at(11))
	if h.rep.ClosedTSRegressions != 0 {
		t.Fatalf("a re-created replica was reported as %d regressions", h.rep.ClosedTSRegressions)
	}
	h.observeClosed("n6/r1", second, at(9))
	if h.rep.ClosedTSRegressions != 1 || h.rep.ClosedTSSamples != 5 {
		t.Fatalf("regressions=%d samples=%d, want 1 of 5: the check stays strict per replica",
			h.rep.ClosedTSRegressions, h.rep.ClosedTSSamples)
	}
}

// TestSQLTrafficInEveryConfiguration runs CI's mrchaos sweep (seeds 1–10
// with 12 faults, and seed 23 without the nemesis) and requires the SQL
// workloads to have done their work in each run: SQL bank audits, in a
// consistent read and in a bounded-staleness scan, with none reading a wrong
// total and the final total the initial one; at least three locality changes
// of the ledger, each of them ok, or failed with the table as it was; and
// every other invariant.
func TestSQLTrafficInEveryConfiguration(t *testing.T) {
	sweep := []Options{{Seed: 23, Faults: 0}}
	for seed := int64(1); seed <= 10; seed++ {
		sweep = append(sweep, Options{Seed: seed, Faults: 12})
	}
	for _, opts := range sweep {
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if rep.SQLAudits == 0 || rep.StaleAudits == 0 || rep.SQLTransfersOK == 0 {
			t.Errorf("%+v: SQL bank made no progress:\n%s", opts, rep)
		}
		if len(rep.LocalityChanges) < 3 {
			t.Errorf("%+v: %d locality changes, want >= 3", opts, len(rep.LocalityChanges))
		}
		if !rep.OK() {
			t.Errorf("%+v: invariants violated:\n%s", opts, rep)
		}
	}
}
