package mrdb_test

// Every table, figure, ablation and dynamic scenario of the paper's
// evaluation (§7) as one sub-benchmark, from the list `cmd/mrbench` runs
// (bench.Experiments): `go test -bench Experiments/fig5` is `mrbench fig5`
// at a scale small enough that the whole suite completes in a few minutes,
// with its output discarded. `mrbench -full` approaches paper scale.

import (
	"io"
	"path/filepath"
	"testing"

	"mrdb/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	// Keep the committed BENCH_elastic.json: the elastic scenarios write
	// their trajectories to a file.
	bench.ElasticOut = filepath.Join(b.TempDir(), "BENCH_elastic.json")
	scale := bench.Scale{RecordCount: 300, OpsPerClient: 15, ClientsPerRegion: 2, TPCCTxnsPerTerminal: 10}
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
