package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mrdb/internal/simnet"
)

// TestFaultWindowsSpikeAndReconverge pins the trajectory-shaped claim: the
// probe-latency timeseries must show tail latency spiking while a fault
// holds and dropping back under the RTO threshold after recovery. The seed
// is chosen for a schedule that fails us-east1, the bank range's lease
// preference, which knocks probe p99 from ~90ms to seconds until the lease
// fails over and back.
func TestFaultWindowsSpikeAndReconverge(t *testing.T) {
	rep, err := Run(Options{Seed: 93, Faults: 8})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	if !slices.ContainsFunc(rep.Events, func(e Event) bool { return e.Kind == EvFailRegion && e.Region == simnet.USEast1 }) {
		t.Fatalf("the schedule never fails us-east1, the bank range's lease region; choose a seed whose schedule does:\n%s", rep.Schedule())
	}
	if want := len(rep.Events) / 2; len(rep.FaultWindows) != want {
		t.Fatalf("got %d fault windows for %d fault/heal pairs", len(rep.FaultWindows), want)
	}
	spiked := 0
	for _, fw := range rep.FaultWindows {
		if fw.Samples == 0 {
			t.Errorf("fault window %s saw no probe samples", fw.Fault)
		}
		if fw.Spiked {
			spiked++
			// No peak-vs-pre assertion: the 10s lookback can legitimately
			// overlap the previous fault's spike. Spiked is already defined
			// against the absolute RTO threshold.
			if !fw.Reconverged {
				t.Errorf("spiked window %s never re-converged (after-p99=%v)",
					fw.Fault, fw.AfterP99)
			}
		}
	}
	if spiked == 0 {
		t.Fatalf("no fault window spiked above the RTO threshold; the curve assertion is vacuous:\n%s", rep)
	}
	t.Logf("\n%s", rep)
}

// TestChaosExportDeterminism runs the same seed twice, exporting each run's
// observability state, and requires every artifact — OpenMetrics
// timeseries, registry dump, Jaeger traces — to be byte-identical. Virtual
// timestamps map onto a fixed epoch and all iteration is order-stable, so
// nothing about the files may depend on the host.
func TestChaosExportDeterminism(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	run := func(dir string) *Report {
		rep, err := Run(Options{Seed: 358, Faults: 5, ExportDir: dir})
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("invariants violated:\n%s", rep)
		}
		return rep
	}
	rep := run(dirA)
	run(dirB)
	for _, name := range []string{"chaos_metrics.prom", "chaos_registry.prom", "chaos_traces.json"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatalf("first run did not write %s: %v", name, err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatalf("second run did not write %s: %v", name, err)
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between same-seed runs (%d vs %d bytes)", name, len(a), len(b))
		}
	}
	// The Jaeger export must carry the error convention: failed RPC attempts
	// render red in the UI via the boolean error tag. Whether a schedule
	// fails any operation is the seed's luck, so the run is picked by that
	// property first: a failed transfer or probe is a trace with a failed
	// attempt in it. (Seed 23 failed a probe until a request stopped
	// proposing a resolution of a finished transaction's intent, and seed 2
	// until an RPC to a crashed node began to end at the node's liveness
	// expiry, and seed 227 until a relocation stopped failing after it
	// published its placement; seed 358 fails one now.)
	if rep.TransfersFailed+rep.ProbesFailed == 0 {
		t.Fatalf("seed no longer produces a failed RPC, choose another:\n%s", rep)
	}
	traces, _ := os.ReadFile(filepath.Join(dirA, "chaos_traces.json"))
	if !bytes.Contains(traces, []byte(`"key": "error"`)) {
		t.Error("trace export contains no error-tagged spans")
	}
}
