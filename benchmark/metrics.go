package main

// Metric catalogue. Names, units and directions here must equal
// BENCHMARK.json (a test checks it); regression bounds live only there.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Clock is "wall" (host time), "host" (host resource, near-exact),
	// "virtual" (simulated time, exact per seed) or "count" (exact).
	Clock string
	// Source is how a per-layer metric is obtained: run, trace, probe, prof.
	Source string
	// Moves names the end-to-end metric and workloads this layer metric
	// should move (per-layer only).
	Moves string
	Def   string
}

// endToEnd lists the metrics a user of the system would see.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "wall", Def: "cluster build + DDL + load + settle until the window opens, at reference host speed"},
	{Name: "wall_us_per_op", Unit: "us/op", Better: "lower", Clock: "wall", Def: "window host time / ops attempted, at reference host speed (see calibrate.go)"},
	{Name: "allocs_per_op", Unit: "objects/op", Better: "lower", Clock: "host", Def: "runtime.MemStats.Mallocs delta over the window / ops attempted"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Clock: "host", Def: "HeapAlloc after runtime.GC() at window close, cluster still referenced"},
	{Name: "virt_ops_per_s", Unit: "ops/s", Better: "higher", Clock: "virtual", Def: "sum over clients of successful ops / virtual seconds the client was busy"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Clock: "virtual", Def: "median read-class latency (open loop: from due time)"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Clock: "virtual", Def: "99th percentile read-class latency, n >= 1000"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Clock: "virtual", Def: "median write-class latency"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Clock: "virtual", Def: "99th percentile write-class latency, n >= 1000"},
	{Name: "max_stall_ms", Unit: "ms", Better: "lower", Clock: "virtual", Def: "longest gap between consecutive successful completions that every client (open loop: region) saw: the minimum over clients of each one's longest gap"},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Clock: "count", Def: "1 - failed or unacknowledged ops / attempted (fail_frac, stated so that it is never 0)"},
}

const (
	fastPath = "wall_us_per_op, allocs_per_op on ycsb_b_rbr_local"
	evDiet   = "wall_us_per_op on ycsb_a_global, tpcc_mix3"
	failover = "max_stall_ms, write_p99_ms on failover_durable"
)

// perLayer lists the per-layer metrics with the end-to-end metric each
// should move.
var perLayer = []metricDef{
	// sim
	{Name: "sim.events_per_op", Unit: "events/op", Better: "lower", Clock: "count", Source: "run", Moves: "wall_us_per_op on ycsb_a_global, tpcc_mix3, failover_durable; flat on ycsb_b_rbr_local", Def: "simulator events executed in the window / ops"},
	{Name: "sim.events_per_virt_s", Unit: "events/s", Better: "lower", Clock: "count", Source: "run", Moves: "sim.events_per_op, then " + evDiet, Def: "simulator events / virtual second: the background event rate"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: evDiet, Def: "one timer event through park/wake and the event heap"},
	{Name: "sim.spawn_join_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: evDiet, Def: "spawn + join of one child proc in an 8-way fan-out"},
	// simnet
	{Name: "simnet.msgs_per_op", Unit: "msgs/op", Better: "lower", Clock: "count", Source: "run", Moves: evDiet, Def: "Network.MessagesSent / ops"},
	{Name: "simnet.bytes_per_op", Unit: "bytes/op", Better: "lower", Clock: "count", Source: "run", Moves: evDiet, Def: "Network.BytesEstimate / ops"},
	{Name: "simnet.rpc_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: evDiet, Def: "one SendRPC round trip between two nodes of one region"},
	{Name: "simnet.wan_rpcs_per_op", Unit: "rpcs/op", Better: "lower", Clock: "count", Source: "run", Moves: "write_p50_ms, read_p99_ms on ycsb_b_rbr_local (the 5% remote), tpcc_mix3", Def: "cross-region RPCs (net.rpc.wan) / ops"},
	{Name: "simnet.flight_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p50_ms, read_p99_ms on ycsb_b_rbr_local, tpcc_mix3", Def: "self time of net.rpc spans: time on the wire"},
	// raft
	{Name: "raft.replications_per_op", Unit: "count/op", Better: "lower", Clock: "count", Source: "trace", Moves: "write_p50_ms on tpcc_mix3, ycsb_a_global", Def: "raft.replicate spans / ops"},
	{Name: "raft.wan_quorums_per_op", Unit: "count/op", Better: "lower", Clock: "count", Source: "trace", Moves: "write_p50_ms on tpcc_mix3, ycsb_a_global", Def: "replications whose quorum needed a cross-region ack / ops"},
	{Name: "raft.replicate_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p50_ms on tpcc_mix3, ycsb_a_global", Def: "self time of raft.replicate spans"},
	{Name: "raft.propose_commit_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: evDiet, Def: "propose to commit on 3 in-memory voters over a zero-latency transport"},
	{Name: "raft.msgs_per_commit", Unit: "msgs", Better: "lower", Clock: "count", Source: "probe", Moves: "sim.events_per_virt_s, then " + evDiet, Def: "raft messages per committed proposal, same group (batching target)"},
	{Name: "raft.idle_msgs_per_group_s", Unit: "msgs/s", Better: "lower", Clock: "count", Source: "probe", Moves: "sim.events_per_virt_s, then " + evDiet, Def: "raft messages per virtual second of an idle group (quiescence target)"},
	// storage
	{Name: "storage.fsyncs_per_op", Unit: "count/op", Better: "lower", Clock: "count", Source: "run", Moves: "write_p50_ms, wall_us_per_op on failover_durable only (0 elsewhere)", Def: "storage.wal.fsyncs / ops"},
	{Name: "storage.wal_bytes_per_op", Unit: "bytes/op", Better: "lower", Clock: "count", Source: "run", Moves: "wall_us_per_op, allocs_per_op on failover_durable only", Def: "storage.wal.bytes / ops"},
	{Name: "storage.appends_per_fsync", Unit: "ratio", Better: "higher", Clock: "count", Source: "run", Moves: "write_p50_ms on failover_durable only", Def: "storage.wal.appends / storage.wal.fsyncs: group commit"},
	{Name: "storage.append_sync_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: "wall_us_per_op on failover_durable", Def: "WAL append of 128 bytes + fsync"},
	// skl, mvcc
	{Name: "skl.set_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "skiplist insert into a 100k-key list"},
	{Name: "skl.get_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "skiplist lookup in a 100k-key list"},
	{Name: "mvcc.put_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "committed MVCC put of a new version, 100k keys"},
	{Name: "mvcc.get_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "MVCC point get, 100k keys"},
	{Name: "mvcc.scan_row_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "MVCC scan, per row returned"},
	{Name: "mvcc.snapshot_key_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: "wall_us_per_op, allocs_per_op on failover_durable (checkpoints)", Def: "Engine.Snapshot, per key"},
	// kv
	{Name: "kv.rpcs_per_op", Unit: "rpcs/op", Better: "lower", Clock: "count", Source: "run", Moves: "wall_us_per_op on tpcc_mix3", Def: "DistSender attempts sent / ops"},
	{Name: "kv.batch_reqs_mean", Unit: "reqs", Better: "higher", Clock: "count", Source: "run", Moves: "wall_us_per_op on tpcc_mix3", Def: "requests per SendBatch call"},
	{Name: "kv.redirects_per_op", Unit: "count/op", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "replica redirects to the leaseholder / ops"},
	{Name: "kv.retry_frac", Unit: "ratio", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "DistSender retries / attempts sent"},
	{Name: "kv.backoff_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "run", Moves: failover, Def: "virtual time in DistSender retry backoff / ops"},
	{Name: "kv.follower_reads_per_op", Unit: "count/op", Better: "higher", Clock: "count", Source: "run", Moves: "read_p50_ms, read_p99_ms on ycsb_a_global", Def: "reads served by a non-leaseholder replica / ops"},
	{Name: "kv.follower_miss_frac", Unit: "ratio", Better: "lower", Clock: "count", Source: "run", Moves: "read_p99_ms on ycsb_a_global", Def: "follower-read attempts bounced to the leaseholder / attempts"},
	{Name: "kv.closedts_wait_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "read_p50_ms, read_p99_ms on ycsb_a_global", Def: "self time of closedts.wait spans"},
	{Name: "kv.latch_wait_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p99_ms on tpcc_mix3", Def: "self time of latch.wait spans"},
	{Name: "kv.intent_wait_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p99_ms on tpcc_mix3; read_p99_ms on ycsb_a_global", Def: "self time of intent.wait spans"},
	{Name: "kv.eval_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p99_ms on tpcc_mix3", Def: "self time of replica.eval spans"},
	{Name: "kv.ds_self_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p99_ms on failover_durable (backoff)", Def: "self time of ds.* spans: routing, retries, backoff"},
	{Name: "kv.lease_acquisitions", Unit: "count", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "leases acquired after a failover"},
	{Name: "kv.epoch_bumps", Unit: "count", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "liveness epoch increments (nodes declared dead)"},
	{Name: "kv.recovery_ms", Unit: "ms", Better: "lower", Clock: "virtual", Source: "run", Moves: failover, Def: "virtual duration of the victim's restart from disk"},
	{Name: "kv.replayed_entries", Unit: "count", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "raft entries replayed at restart"},
	{Name: "kv.splits", Unit: "count", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "size + load splits in the window"},
	{Name: "kv.lease_moves", Unit: "count", Better: "lower", Clock: "count", Source: "run", Moves: failover, Def: "allocator lease transfers in the window"},
	{Name: "kv.ds_get_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "one GetRequest through DistSender, 3 nodes in one region"},
	{Name: "kv.ds_batch16_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "one 16-get SendBatch, same cluster"},
	{Name: "kv.put_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath, Def: "one non-transactional PutRequest through DistSender and raft"},
	{Name: "kv.idle_events_per_range_s", Unit: "events/s", Better: "lower", Clock: "count", Source: "probe", Moves: evDiet, Def: "events per virtual second added by one idle range (32 empty ranges, 60 virtual s)"},
	// txn
	{Name: "txn.restarts_per_op", Unit: "count/op", Better: "lower", Clock: "count", Source: "run", Moves: "write_p99_ms, virt_ops_per_s on tpcc_mix3", Def: "coordinator restarts / ops"},
	{Name: "txn.abort_frac", Unit: "ratio", Better: "lower", Clock: "count", Source: "run", Moves: "write_p99_ms, virt_ops_per_s on tpcc_mix3", Def: "transactions aborted / begun"},
	{Name: "txn.commit_wait_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "run", Moves: "write_p50_ms on ycsb_a_global; must stay 0 on ycsb_b_rbr_local and tpcc_mix3", Def: "Coordinator.CommitWaitTotal / ops"},
	{Name: "txn.self_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "write_p50_ms on tpcc_mix3", Def: "self time of txn.* spans except commit wait"},
	{Name: "txn.rw2_commit_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: "wall_us_per_op on tpcc_mix3", Def: "one transaction reading 2 keys and writing 2, one region"},
	// sql
	{Name: "sql.stmts_per_op", Unit: "stmts/op", Better: "lower", Clock: "count", Source: "run", Moves: "wall_us_per_op on tpcc_mix3", Def: "SQL statements issued (retries included) / ops"},
	{Name: "sql.plan_cache_hit_frac", Unit: "ratio", Better: "higher", Clock: "count", Source: "run", Moves: fastPath, Def: "plan cache hits / lookups in the window"},
	{Name: "sql.self_ms_per_op", Unit: "ms/op", Better: "lower", Clock: "virtual", Source: "trace", Moves: "none: SQL execution costs no virtual time, so this must stay 0", Def: "self time of sql.* spans"},
	{Name: "sql.parse_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath + " (unprepared statements only)", Def: "sql.Parse of a point SELECT"},
	{Name: "sql.plan_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath + ", then tpcc_mix3", Def: "planning one prepared point SELECT (plan-cache hit)"},
	{Name: "sql.point_read_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath + ", then tpcc_mix3", Def: "one prepared point SELECT end to end, one region"},
	{Name: "sql.insert_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: "wall_us_per_op, allocs_per_op on tpcc_mix3", Def: "one prepared single-row INSERT end to end, one region"},
	// obs
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Clock: "wall", Source: "trace", Moves: "no end-to-end metric (timed repetitions trace nothing): the tracing budget", Def: "window host time of the traced repetition / of the timed repetition with the same inputs"},
	{Name: "obs.spans_per_op", Unit: "spans/op", Better: "lower", Clock: "count", Source: "trace", Moves: "obs.trace_overhead_ratio", Def: "spans recorded under bench.op roots / ops"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: "obs.trace_overhead_ratio", Def: "start, tag twice and finish one child span"},
	// hlc
	{Name: "hlc.now_ns", Unit: "ns", Better: "lower", Clock: "wall", Source: "probe", Moves: fastPath + " (small)", Def: "Clock.Now"},
	// host
	{Name: "host.gc_cycles_per_kop", Unit: "cycles/kop", Better: "lower", Clock: "host", Source: "run", Moves: "wall_us_per_op on every workload", Def: "GC cycles in the window per 1 000 ops"},
	{Name: "host.rep_spread", Unit: "ratio", Better: "lower", Clock: "wall", Source: "run", Moves: "none: the noise floor a wall-clock claim must clear", Def: "(max-min)/median of wall_us_per_op over the timed repetitions"},
}

func init() {
	for _, l := range hostLayers {
		perLayer = append(perLayer, metricDef{
			Name: "host_share." + l, Unit: "ratio", Better: "lower", Clock: "host", Source: "prof",
			Moves: "explains wall_us_per_op: the layer a wall-clock claim must come from",
			Def:   "share of CPU samples whose innermost repo frame is in " + l,
		})
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Min, Max and Spread ((max-min)/median) describe the timed
	// repetitions; they are equal to Value, and zero, for exact metrics.
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}
