package sql

import (
	"fmt"
	"strconv"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// execExplainAnalyze executes the inner statement under a dedicated trace
// root and renders the plan annotated with trace-derived actuals: rows,
// per-attempt RPCs and retries, WAN links crossed, latch/closed-timestamp/
// intent wait time, Raft quorum trips, and the commit phases with their
// virtual-time durations. The statement's effects are real (as in
// CockroachDB, EXPLAIN ANALYZE runs the statement); only the rendering
// differs. Tracing is switched on for the duration if it was off — span
// recording is passive over virtual time, so this cannot change the
// statement's behavior or latency.
func (s *Session) execExplainAnalyze(p *sim.Proc, st *ExplainAnalyze) (*Result, error) {
	tr := s.Cluster.Tracer
	if !tr.Enabled() {
		tr.SetEnabled(true)
		defer tr.SetEnabled(false)
	}
	sp, done := tr.StartRootIn(p, "sql.analyze")
	s.lastPlanCache = ""
	start := p.Now()
	inner, execErr := s.execDML(p, st.Stmt)
	elapsed := p.Now().Sub(start)
	done()
	if execErr != nil {
		return nil, execErr
	}
	trace := tr.Collect(sp.Ctx().Trace)
	spans := spansUnder(trace, sp)

	// Aggregate the span forest into per-kind counts and durations.
	var (
		batches, kvReqs, rpcs, retries    int64
		wanRPCs                           int64
		quorumTrips, wanQuorumTrips       int64
		latchWait, closedWait, intentWait sim.Duration
		phases                            = map[string]sim.Duration{}
		phaseCount                        = map[string]int64{}
		proveWrites                       int64
	)
	for _, span := range spans {
		switch span.Name {
		case "ds.send":
			batches++
			// Each per-range batch carries >= 1 request; the "reqs" tag is
			// set only on multi-request batches.
			kvReqs++
			if v, ok := span.Tag("reqs"); ok {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 1 {
					kvReqs += n - 1
				}
			}
		case "ds.rpc":
			rpcs++
			if _, failed := span.Tag("err"); failed {
				retries++
			}
		case "net.rpc":
			if wan, ok := span.Tag("wan"); ok && wan == "true" {
				wanRPCs++
			}
		case "raft.replicate":
			quorumTrips++
			if v, ok := span.Tag("wan_acks"); ok {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					wanQuorumTrips += n
				}
			}
		case "latch.wait":
			latchWait += span.Duration()
		case "closedts.wait":
			closedWait += span.Duration()
		case "intent.wait":
			intentWait += span.Duration()
		case "txn.stage", "txn.prove", "txn.commitwait", "txn.refresh", "txn.resolve":
			phases[span.Name] += span.Duration()
			phaseCount[span.Name]++
			if span.Name == "txn.prove" {
				if v, ok := span.Tag("writes"); ok {
					if n, err := strconv.ParseInt(v, 10, 64); err == nil {
						proveWrites += n
					}
				}
			}
		}
	}

	res := &Result{Columns: []string{"field", "value"}}
	add := func(f, v string) { res.Rows = append(res.Rows, []Datum{f, v}) }
	add("statement", Fingerprint(st.Stmt))
	// For reads, splice in the static plan the optimizer chose.
	if sel, ok := st.Stmt.(*Select); ok && !IsVirtualTable(sel.Table) {
		if t, db, err := s.table(sel.Table); err == nil {
			if plan, err := s.planRead(t, db, sel.Where, sel.Limit); err == nil {
				add("index", plan.index.Name)
				add("partitions", fmt.Sprintf("%v", plan.regions))
				add("locality optimized search", fmt.Sprintf("%v", plan.los))
			}
		}
	}
	if s.lastPlanCache != "" {
		add("plan cache", s.lastPlanCache)
	}
	add("rows", fmt.Sprintf("%d", len(inner.Rows)))
	add("rows affected", fmt.Sprintf("%d", inner.RowsAffected))
	add("execution time", elapsed.String())
	add("kv requests", fmt.Sprintf("%d", kvReqs))
	add("kv batches", fmt.Sprintf("%d", batches))
	add("kv rpcs", fmt.Sprintf("%d", rpcs))
	add("kv retries", fmt.Sprintf("%d", retries))
	add("wan rpcs", fmt.Sprintf("%d", wanRPCs))
	add("raft quorum trips", fmt.Sprintf("%d", quorumTrips))
	add("inter-region quorum trips", fmt.Sprintf("%d", wanQuorumTrips))
	add("latch wait", latchWait.String())
	add("closed-ts wait", closedWait.String())
	add("intent wait", intentWait.String())
	// Commit phases render in protocol order; absent phases are elided
	// except commit wait, whose zero is itself the headline claim for
	// REGIONAL tables (§4.4: only GLOBAL transactions commit-wait).
	if phaseCount["txn.stage"] > 0 {
		add("commit: stage writes", phases["txn.stage"].String())
	}
	if phaseCount["txn.prove"] > 0 {
		add("commit: prove writes", fmt.Sprintf("%s (%d writes)", phases["txn.prove"], proveWrites))
	}
	add("commit wait", phases["txn.commitwait"].String())
	if phaseCount["txn.refresh"] > 0 {
		add("refresh", phases["txn.refresh"].String())
	}
	if phaseCount["txn.resolve"] > 0 {
		add("resolve intents", "async")
	}
	res.RowsAffected = len(res.Rows)
	return res, nil
}

// spansUnder returns root and every descendant of root in t, in creation
// order. When tracing was already on, the collected trace can contain
// spans outside this statement (the enclosing sql.exec root); walking the
// parent chain keeps the aggregation scoped to the analyzed statement.
func spansUnder(t *obs.Trace, root *obs.Span) []*obs.Span {
	if t == nil || root == nil {
		return nil
	}
	in := map[obs.SpanID]bool{root.Context.Span: true}
	var out []*obs.Span
	// Spans append in creation order and parents precede children, so one
	// forward pass finds the full subtree.
	for _, s := range t.Spans {
		if in[s.Context.Span] || in[s.Parent] {
			in[s.Context.Span] = true
			out = append(out, s)
		}
	}
	return out
}
