package export

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mrdb/internal/obs"
	"mrdb/internal/obs/tsdb"
	"mrdb/internal/sim"
)

// fixtureTSDB observes two metrics out of canonical order (names, nodes and
// times all arrive descending) on 2.5s buckets, so the export must sort
// metrics, nodes and buckets itself and render a fractional timestamp.
func fixtureTSDB() *tsdb.DB {
	db := tsdb.New(2500*sim.Millisecond, 8)
	db.Observe("store.leases", 2, sim.Time(6*sim.Second), 4)
	db.Observe("store.leases", 1, sim.Time(3*sim.Second), 7)
	db.Observe("store.leases", 1, sim.Time(1*sim.Second), 5)
	db.Observe("store.leases", 1, sim.Time(2*sim.Second), 3)
	db.Observe("ds.rpc-wan", 0, sim.Time(0), 11)
	return db
}

// fixtureRegistry holds two counters and a histogram, registered
// out of name order.
func fixtureRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("txn.commits").Add(3)
	reg.Counter("ds.rpc.wan").Inc()
	h := reg.Histogram("ds.batch.size")
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	return reg
}

// fixtureTraces records two traces on the virtual clock: a statement whose
// first RPC attempt fails (SetError) and whose second is still open when the
// run ends, then a single-span trace.
func fixtureTraces() []*obs.Trace {
	s := sim.New(1)
	tr := obs.NewTracer(s)
	tr.SetEnabled(true)
	var root, failed *obs.Span
	s.Schedule(sim.Time(1*sim.Millisecond), func() {
		root = tr.StartRoot("sql.exec").SetTag("stmt", "SELECT 1")
	})
	s.Schedule(sim.Time(2*sim.Millisecond), func() {
		failed = tr.StartChild("ds.rpc", root).SetTagInt("target", 3)
	})
	s.Schedule(sim.Time(4500*sim.Microsecond), func() {
		failed.SetError(errors.New("not leaseholder")).Finish()
		tr.StartChild("ds.rpc", root) // never finished: exports zero duration
	})
	s.Schedule(sim.Time(7*sim.Millisecond), func() {
		root.Finish()
		tr.StartRoot("gc.run").Finish()
	})
	s.Run()
	return tr.Traces()
}

const goldenOpenMetrics = `# TYPE mrdb_ds_rpc_wan gauge
mrdb_ds_rpc_wan{node="0",stat="count"} 1 1577836800.000
mrdb_ds_rpc_wan{node="0",stat="sum"} 11 1577836800.000
mrdb_ds_rpc_wan{node="0",stat="min"} 11 1577836800.000
mrdb_ds_rpc_wan{node="0",stat="max"} 11 1577836800.000
# TYPE mrdb_store_leases gauge
mrdb_store_leases{node="1",stat="count"} 2 1577836800.000
mrdb_store_leases{node="1",stat="sum"} 8 1577836800.000
mrdb_store_leases{node="1",stat="min"} 3 1577836800.000
mrdb_store_leases{node="1",stat="max"} 5 1577836800.000
mrdb_store_leases{node="1",stat="count"} 1 1577836802.500
mrdb_store_leases{node="1",stat="sum"} 7 1577836802.500
mrdb_store_leases{node="1",stat="min"} 7 1577836802.500
mrdb_store_leases{node="1",stat="max"} 7 1577836802.500
mrdb_store_leases{node="2",stat="count"} 1 1577836805.000
mrdb_store_leases{node="2",stat="sum"} 4 1577836805.000
mrdb_store_leases{node="2",stat="min"} 4 1577836805.000
mrdb_store_leases{node="2",stat="max"} 4 1577836805.000
# EOF
`

const goldenRegistry = `# TYPE mrdb_ds_rpc_wan_total counter
mrdb_ds_rpc_wan_total 1
# TYPE mrdb_txn_commits_total counter
mrdb_txn_commits_total 3
# TYPE mrdb_ds_batch_size summary
mrdb_ds_batch_size{quantile="0.5"} 6
mrdb_ds_batch_size{quantile="0.9"} 10
mrdb_ds_batch_size{quantile="0.99"} 10
mrdb_ds_batch_size_sum 55
mrdb_ds_batch_size_count 10
`

const goldenJaeger = `{
  "data": [
    {
      "traceID": "0000000000000001",
      "spans": [
        {
          "traceID": "0000000000000001",
          "spanID": "0000000000000001",
          "operationName": "sql.exec",
          "references": [],
          "startTime": 1577836800001000,
          "duration": 6000,
          "tags": [
            {
              "key": "stmt",
              "type": "string",
              "value": "SELECT 1"
            }
          ],
          "processID": "p1"
        },
        {
          "traceID": "0000000000000001",
          "spanID": "0000000000000002",
          "operationName": "ds.rpc",
          "references": [
            {
              "refType": "CHILD_OF",
              "traceID": "0000000000000001",
              "spanID": "0000000000000001"
            }
          ],
          "startTime": 1577836800002000,
          "duration": 2500,
          "tags": [
            {
              "key": "target",
              "type": "string",
              "value": "3"
            },
            {
              "key": "error",
              "type": "bool",
              "value": true
            },
            {
              "key": "err",
              "type": "string",
              "value": "not leaseholder"
            }
          ],
          "processID": "p1"
        },
        {
          "traceID": "0000000000000001",
          "spanID": "0000000000000003",
          "operationName": "ds.rpc",
          "references": [
            {
              "refType": "CHILD_OF",
              "traceID": "0000000000000001",
              "spanID": "0000000000000001"
            }
          ],
          "startTime": 1577836800004500,
          "duration": 0,
          "tags": [],
          "processID": "p1"
        }
      ],
      "processes": {
        "p1": {
          "serviceName": "mrdb",
          "tags": []
        }
      }
    },
    {
      "traceID": "0000000000000002",
      "spans": [
        {
          "traceID": "0000000000000002",
          "spanID": "0000000000000004",
          "operationName": "gc.run",
          "references": [],
          "startTime": 1577836800007000,
          "duration": 0,
          "tags": [],
          "processID": "p1"
        }
      ],
      "processes": {
        "p1": {
          "serviceName": "mrdb",
          "tags": []
        }
      }
    }
  ]
}
`

const goldenJaegerEmpty = `{
  "data": []
}
`

// TestExportGoldens pins each exporter's exact bytes: the fixed 2020-01-01
// epoch, canonical (sorted) ordering whatever the recording order,
// counter/summary rendering with quantiles, CHILD_OF references, the
// boolean error=true tag on SetError spans, and the degenerate inputs
// (nil TSDB, nil/empty registry, no traces) that WriteDir promises still
// produce a well-formed file.
func TestExportGoldens(t *testing.T) {
	for _, tc := range []struct {
		name   string
		render func(w io.Writer) error
		want   string
	}{
		{"openmetrics", func(w io.Writer) error { return OpenMetrics(w, fixtureTSDB()) }, goldenOpenMetrics},
		{"openmetrics/nil-tsdb", func(w io.Writer) error { return OpenMetrics(w, nil) }, "# EOF\n"},
		{"openmetrics/empty-tsdb", func(w io.Writer) error { return OpenMetrics(w, tsdb.New(0, 0)) }, "# EOF\n"},
		{"registry", func(w io.Writer) error { return RegistrySnapshot(w, fixtureRegistry()) }, goldenRegistry},
		{"registry/nil", func(w io.Writer) error { return RegistrySnapshot(w, nil) }, ""},
		{"registry/empty", func(w io.Writer) error { return RegistrySnapshot(w, obs.NewRegistry()) }, ""},
		{"jaeger", func(w io.Writer) error { return JaegerJSON(w, fixtureTraces(), 0) }, goldenJaeger},
		{"jaeger/no-traces", func(w io.Writer) error { return JaegerJSON(w, nil, 0) }, goldenJaegerEmpty},
		{"jaeger/empty-tracer", func(w io.Writer) error {
			return JaegerJSON(w, obs.NewTracer(sim.New(1)).Traces(), 0)
		}, goldenJaegerEmpty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.render(&buf); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("export differs from golden:\n--- got:\n%s--- want:\n%s", got, tc.want)
			}
		})
	}
}

// TestJaegerMaxTraces checks the cap drops later traces in creation order:
// exporting both fixture traces capped at one equals exporting the first.
func TestJaegerMaxTraces(t *testing.T) {
	var capped, first bytes.Buffer
	if err := JaegerJSON(&capped, fixtureTraces(), 1); err != nil {
		t.Fatal(err)
	}
	if err := JaegerJSON(&first, fixtureTraces()[:1], 0); err != nil {
		t.Fatal(err)
	}
	if capped.String() != first.String() || capped.Len() >= len(goldenJaeger) {
		t.Errorf("maxTraces=1 export is not the first trace alone:\n%s", capped.String())
	}
}

// TestWriteDirUniformArtifacts checks WriteDir's contract: all three files
// appear under the prefix, with the same bytes the individual exporters
// produce, and a nil TSDB / nil registry / no traces still yield a full set.
func TestWriteDirUniformArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := WriteDir(dir, "run_", fixtureTSDB(), fixtureRegistry(), fixtureTraces()); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(dir, "empty_", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"run_metrics.prom":    goldenOpenMetrics,
		"run_registry.prom":   goldenRegistry,
		"run_traces.json":     goldenJaeger,
		"empty_metrics.prom":  "# EOF\n",
		"empty_registry.prom": "",
		"empty_traces.json":   goldenJaegerEmpty,
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s differs from golden:\n--- got:\n%s--- want:\n%s", name, got, want)
		}
	}
}
