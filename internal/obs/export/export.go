// Package export serializes a run's observability state — the virtual-time
// timeseries store, the metrics registry, and the collected span forest —
// into formats real tools load directly:
//
//   - OpenMetrics text with per-sample timestamps, which
//     `promtool tsdb create-blocks-from openmetrics` backfills into a
//     Prometheus instance for Grafana dashboards over the run's trajectory;
//   - a point-in-time Prometheus exposition dump of the registry;
//   - Jaeger UI JSON (the format the Jaeger frontend's "JSON File" upload
//     accepts), with spans marked via Span.SetError carrying Jaeger's
//     `error=true` convention so failed RPC attempts render red.
//
// Virtual timestamps are mapped onto a fixed epoch (2020-01-01T00:00:00Z):
// no wall clock is ever consulted, so two same-seed runs export
// byte-identical artifacts — the determinism tests compare the files raw.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mrdb/internal/obs"
	"mrdb/internal/obs/tsdb"
	"mrdb/internal/sim"
)

// Epoch is the fixed wall-clock origin virtual time zero maps to:
// 2020-01-01T00:00:00Z in Unix seconds. Any fixed value works; this one
// keeps exported runs in a range Grafana and Jaeger render comfortably.
const Epoch int64 = 1577836800

// DefaultMaxTraces bounds Jaeger exports: traces beyond the cap are dropped
// (in creation order), keeping files loadable in the UI.
const DefaultMaxTraces = 200

// sanitize maps a metric name onto the Prometheus name charset and prefixes
// the mrdb namespace: "ds.rpc.wan" -> "mrdb_ds_rpc_wan".
func sanitize(name string) string {
	var b strings.Builder
	b.WriteString("mrdb_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promTime renders a virtual time as epoch-mapped seconds with millisecond
// precision, the OpenMetrics timestamp format.
func promTime(t sim.Time) string {
	ns := int64(t)
	return fmt.Sprintf("%d.%03d", Epoch+ns/int64(sim.Second), (ns%int64(sim.Second))/int64(sim.Millisecond))
}

// OpenMetrics writes every tsdb series as OpenMetrics text with timestamps:
// one sample per rollup bucket and aggregate stat, labeled {node, stat}.
// Load it with `promtool tsdb create-blocks-from openmetrics FILE DIR`.
func OpenMetrics(w io.Writer, db *tsdb.DB) error {
	for _, metric := range db.Metrics() {
		name := sanitize(metric)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, node := range db.Nodes(metric) {
			for _, ba := range db.Buckets(metric, node) {
				ts := promTime(ba.Start)
				for _, stat := range [4]struct {
					label string
					v     int64
				}{{"count", ba.Count}, {"sum", ba.Sum}, {"min", ba.Min}, {"max", ba.Max}} {
					if _, err := fmt.Fprintf(w, "%s{node=\"%d\",stat=\"%s\"} %d %s\n",
						name, node, stat.label, stat.v, ts); err != nil {
						return err
					}
				}
			}
		}
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

// RegistrySnapshot writes the metrics registry as a point-in-time
// Prometheus exposition dump: counters verbatim, histograms as
// summaries (quantile values are the histogram's raw int64 samples —
// virtual-time nanoseconds for latency metrics).
func RegistrySnapshot(w io.Writer, reg *obs.Registry) error {
	for _, n := range reg.Counters() {
		name := sanitize(n) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, reg.Counter(n).Value()); err != nil {
			return err
		}
	}
	for _, n := range reg.Histograms() {
		h := reg.Histogram(n)
		name := sanitize(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", name); err != nil {
			return err
		}
		for _, q := range [3]float64{0.5, 0.9, 0.99} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%g\"} %d\n", name, q, h.Percentile(q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// jaeger* mirror the JSON the Jaeger UI's file upload accepts (the
// /api/traces response shape). Field order is fixed by the struct
// definitions, so marshaling is deterministic.
type jaegerTag struct {
	Key   string      `json:"key"`
	Type  string      `json:"type"`
	Value interface{} `json:"value"`
}

type jaegerRef struct {
	RefType string `json:"refType"`
	TraceID string `json:"traceID"`
	SpanID  string `json:"spanID"`
}

type jaegerSpan struct {
	TraceID       string      `json:"traceID"`
	SpanID        string      `json:"spanID"`
	OperationName string      `json:"operationName"`
	References    []jaegerRef `json:"references"`
	StartTime     int64       `json:"startTime"` // µs since Unix epoch
	Duration      int64       `json:"duration"`  // µs
	Tags          []jaegerTag `json:"tags"`
	ProcessID     string      `json:"processID"`
}

type jaegerProcess struct {
	ServiceName string      `json:"serviceName"`
	Tags        []jaegerTag `json:"tags"`
}

type jaegerTrace struct {
	TraceID   string                   `json:"traceID"`
	Spans     []jaegerSpan             `json:"spans"`
	Processes map[string]jaegerProcess `json:"processes"`
}

type jaegerFile struct {
	Data []jaegerTrace `json:"data"`
}

// jaegerMicros maps a virtual time onto epoch-based microseconds.
func jaegerMicros(t sim.Time) int64 {
	return Epoch*1_000_000 + int64(t)/int64(sim.Microsecond)
}

// JaegerJSON writes up to maxTraces collected traces (0 means
// DefaultMaxTraces) as a Jaeger UI JSON file. Unfinished spans export with
// zero duration; spans marked with Span.SetError carry the boolean
// error=true tag Jaeger renders distinctly.
func JaegerJSON(w io.Writer, traces []*obs.Trace, maxTraces int) error {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if len(traces) > maxTraces {
		traces = traces[:maxTraces]
	}
	file := jaegerFile{Data: make([]jaegerTrace, 0, len(traces))}
	for _, tr := range traces {
		jt := jaegerTrace{
			TraceID:   fmt.Sprintf("%016x", uint64(tr.ID)),
			Spans:     make([]jaegerSpan, 0, len(tr.Spans)),
			Processes: map[string]jaegerProcess{"p1": {ServiceName: "mrdb", Tags: []jaegerTag{}}},
		}
		for _, s := range tr.Spans {
			js := jaegerSpan{
				TraceID:       jt.TraceID,
				SpanID:        fmt.Sprintf("%016x", uint64(s.Context.Span)),
				OperationName: s.Name,
				References:    []jaegerRef{},
				StartTime:     jaegerMicros(s.Start),
				ProcessID:     "p1",
				Tags:          make([]jaegerTag, 0, len(s.Tags)),
			}
			if s.End != 0 {
				js.Duration = int64(s.Duration()) / int64(sim.Microsecond)
			}
			if s.Parent != 0 {
				js.References = append(js.References, jaegerRef{
					RefType: "CHILD_OF", TraceID: jt.TraceID,
					SpanID: fmt.Sprintf("%016x", uint64(s.Parent)),
				})
			}
			for _, tag := range s.Tags {
				if tag.Key == "error" && tag.Value == "true" {
					js.Tags = append(js.Tags, jaegerTag{Key: "error", Type: "bool", Value: true})
					continue
				}
				js.Tags = append(js.Tags, jaegerTag{Key: tag.Key, Type: "string", Value: tag.Value})
			}
			jt.Spans = append(jt.Spans, js)
		}
		file.Data = append(file.Data, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// WriteDir writes the full export set into dir (created if missing):
// <prefix>metrics.prom (OpenMetrics trajectory), <prefix>registry.prom
// (point-in-time dump) and <prefix>traces.json (Jaeger). A nil db or empty
// trace slice still writes the file, so artifact sets are uniform.
func WriteDir(dir, prefix string, db *tsdb.DB, reg *obs.Registry, traces []*obs.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, prefix+name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("metrics.prom", func(w io.Writer) error { return OpenMetrics(w, db) }); err != nil {
		return err
	}
	if err := write("registry.prom", func(w io.Writer) error { return RegistrySnapshot(w, reg) }); err != nil {
		return err
	}
	return write("traces.json", func(w io.Writer) error { return JaegerJSON(w, traces, 0) })
}
