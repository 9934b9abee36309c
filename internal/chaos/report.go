package chaos

import (
	"fmt"
	"strings"

	"mrdb/internal/sim"
)

// Report summarizes a chaos run: the injected schedule, workload throughput,
// and the outcome of every invariant check. With a fixed seed the entire
// report (including the schedule) is reproducible bit-for-bit.
type Report struct {
	Seed    int64
	Events  []Event
	Elapsed sim.Duration

	RegionFailures int

	// Bank-sum conservation.
	BankExpected    int
	BankFinal       int
	BankAudits      int
	BankAuditBad    int
	FinalAuditOK    bool
	TransfersOK     int64
	TransfersFailed int64

	// The SQL bank on a REGIONAL BY ROW table: its final total, audits in a
	// consistent read and in a bounded-staleness scan (each with the count
	// that missed a row or summed wrong), and transfers.
	SQLBankFinal       int
	SQLAudits          int
	SQLAuditBad        int
	StaleAudits        int
	StaleAuditBad      int
	SQLTransfersOK     int64
	SQLTransfersFailed int64

	// LocalityChanges holds the cycler's locality changes of the ledger
	// table, in order.
	LocalityChanges []LocalityChange

	// Single-key linearizability (single-writer monotonic registers): the
	// totals over Registers.
	LinWrites     int
	LinReads      int
	LinViolations int
	Registers     []RegisterStats

	// Closed-timestamp monotonicity.
	ClosedTSSamples     int64
	ClosedTSRegressions int64

	// Placement invariants: every sampled range with a zone config must
	// satisfy its constraints (with the mid-migration relaxation: counts may
	// exceed but never drop below the configured minimums).
	PlacementChecks     int64
	PlacementViolations int64
	PlacementFirstBad   string

	// Elastic activity: load-queue decisions plus the migrator's completed
	// bank-range relocations.
	LoadSplits  int64
	LoadMerges  int64
	LeaseMoves  int64
	Relocations int

	// Availability probes and measured recovery intervals (virtual time).
	ProbesOK     int64
	ProbesFailed int64
	Recoveries   []sim.Duration
	// RTOByFault holds one pre-rendered histogram summary per fault kind
	// that caused a recovery interval ("<kind> count=... p99=...").
	RTOByFault []string

	// FaultWindows holds one probe-latency trajectory per injected
	// fault/heal pair, derived from the virtual-time timeseries store.
	FaultWindows []FaultWindow

	// SpanHash is the FNV-1a hash over every recorded trace's canonical
	// rendering; with a fixed seed it must be bit-for-bit reproducible.
	SpanHash uint64

	// Recovery machinery counters.
	LeaseAcquisitions int64
	EpochBumps        int64

	// Honest restarts: nodes rebooted from their simulated disks, the
	// virtual time each recovery charged, a pre-rendered histogram summary
	// of those durations, and recoveries that failed outright (corrupt or
	// inconsistent durable state — always an invariant violation).
	Restarts         int
	RecoveryTimes    []sim.Duration
	RestartRecovery  string
	RecoveryFailures int
}

// FaultWindow is one fault's probe-latency trajectory, read off the
// chaos.probe.latency timeseries: the tail latency (per-bucket max) in a
// lookback window before the fault, the peak while it held, and the tail
// after recovery. Spiked means the peak crossed the RTO threshold;
// Reconverged means either it never spiked or the post-recovery tail
// dropped back under the threshold (false when no post-recovery probes
// completed in the observation span).
type FaultWindow struct {
	Fault       Event
	Healed      sim.Time
	PreP99      sim.Duration
	PeakP99     sim.Duration
	AfterP99    sim.Duration
	Samples     int64 // probes completing between fault and after-start
	Spiked      bool
	Reconverged bool
}

func (fw FaultWindow) String() string {
	return fmt.Sprintf("%s healed=%v pre-p99=%v peak-p99=%v after-p99=%v samples=%d spiked=%v reconverged=%v",
		fw.Fault, fw.Healed, fw.PreP99, fw.PeakP99, fw.AfterP99,
		fw.Samples, fw.Spiked, fw.Reconverged)
}

// Schedule renders the fault schedule as one canonical line per event;
// two runs with the same seed must produce identical schedules.
func (r *Report) Schedule() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RegisterStats is the linearizability check's outcome on one register.
type RegisterStats struct {
	Key                       string
	Writes, Reads, Violations int
}

// MaxRTO returns the longest measured recovery interval, or zero.
func (r *Report) MaxRTO() sim.Duration {
	var max sim.Duration
	for _, d := range r.Recoveries {
		if d > max {
			max = d
		}
	}
	return max
}

// LocalityChangesBad counts the locality changes that broke the table.
func (r *Report) LocalityChangesBad() int {
	n := 0
	for _, lc := range r.LocalityChanges {
		if lc.Bad() {
			n++
		}
	}
	return n
}

// OK reports whether every invariant held.
func (r *Report) OK() bool {
	return r.FinalAuditOK && r.BankAuditBad == 0 && r.LinViolations == 0 &&
		r.SQLBankFinal == r.BankExpected && r.SQLAuditBad == 0 && r.StaleAuditBad == 0 &&
		r.LocalityChangesBad() == 0 &&
		r.ClosedTSRegressions == 0 && r.RecoveryFailures == 0 &&
		r.PlacementViolations == 0
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d: %d events over %v (virtual)\n",
		r.Seed, len(r.Events), r.Elapsed)
	fmt.Fprintf(&b, "  bank: final=%d/%d audits=%d bad=%d transfers ok=%d failed=%d\n",
		r.BankFinal, r.BankExpected, r.BankAudits, r.BankAuditBad,
		r.TransfersOK, r.TransfersFailed)
	fmt.Fprintf(&b, "  sql bank: final=%d/%d audits=%d bad=%d stale-audits=%d bad=%d transfers ok=%d failed=%d\n",
		r.SQLBankFinal, r.BankExpected, r.SQLAudits, r.SQLAuditBad, r.StaleAudits, r.StaleAuditBad,
		r.SQLTransfersOK, r.SQLTransfersFailed)
	for _, lc := range r.LocalityChanges {
		fmt.Fprintf(&b, "  locality-change %s\n", lc)
	}
	for _, g := range r.Registers {
		fmt.Fprintf(&b, "  linearizability %s: writes=%d reads=%d violations=%d\n",
			g.Key, g.Writes, g.Reads, g.Violations)
	}
	fmt.Fprintf(&b, "  closed-ts: samples=%d regressions=%d\n",
		r.ClosedTSSamples, r.ClosedTSRegressions)
	fmt.Fprintf(&b, "  placement: checks=%d violations=%d\n",
		r.PlacementChecks, r.PlacementViolations)
	if r.PlacementFirstBad != "" {
		fmt.Fprintf(&b, "    first: %s\n", r.PlacementFirstBad)
	}
	fmt.Fprintf(&b, "  elastic: load-splits=%d merges=%d lease-moves=%d relocations=%d\n",
		r.LoadSplits, r.LoadMerges, r.LeaseMoves, r.Relocations)
	fmt.Fprintf(&b, "  probes: ok=%d failed=%d outages=%d max-rto=%v\n",
		r.ProbesOK, r.ProbesFailed, len(r.Recoveries), r.MaxRTO())
	for _, line := range r.RTOByFault {
		fmt.Fprintf(&b, "  rto %s\n", line)
	}
	for _, fw := range r.FaultWindows {
		fmt.Fprintf(&b, "  fault-window %s\n", fw)
	}
	fmt.Fprintf(&b, "  trace: span-hash=%016x\n", r.SpanHash)
	fmt.Fprintf(&b, "  recovery: lease-acquisitions=%d epoch-bumps=%d region-failures=%d\n",
		r.LeaseAcquisitions, r.EpochBumps, r.RegionFailures)
	if r.Restarts > 0 || r.RecoveryFailures > 0 {
		fmt.Fprintf(&b, "  restarts: %d from disk (failed=%d) recovery %s\n",
			r.Restarts, r.RecoveryFailures, r.RestartRecovery)
	}
	fmt.Fprintf(&b, "  invariants: %s\n", map[bool]string{true: "OK", false: "VIOLATED"}[r.OK()])
	return b.String()
}
