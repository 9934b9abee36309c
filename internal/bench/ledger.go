package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
)

// ledgerRow is one run the ledger counts: a name and the run, which returns
// its cluster and the transactions it committed.
type ledgerRow struct {
	name string
	run  func() (*cluster.Cluster, int, error)
}

// ledgerRows are the ledger's runs: the Fig. 3 GLOBAL variant at quick
// scale, and the quick Fig. 6 point at seed 602 with 4 and 26 regions.
var ledgerRows = []ledgerRow{
	{"fig3", func() (*cluster.Cluster, int, error) {
		y, c, err := fig3Run(100, 250*sim.Millisecond, Quick(), "LOCALITY GLOBAL", false, false)
		if err != nil {
			return nil, 0, err
		}
		n := 0
		for _, rec := range y.ReadLat {
			n += rec.Count()
		}
		for _, rec := range y.WriteLat {
			n += rec.Count()
		}
		return c, n, nil
	}},
	{"fig6-4", fig6LedgerRun(4)},
	{"fig6-26", fig6LedgerRun(26)},
}

func fig6LedgerRun(regions int) func() (*cluster.Cluster, int, error) {
	return func() (*cluster.Cluster, int, error) {
		res, c, err := fig6Run(602, Quick(), regions, false)
		if err != nil {
			return nil, 0, err
		}
		return c, res.txns, nil
	}
}

// Ledger runs each named row (all of ledgerRows when names is empty) and
// writes what its layers counted, whole-run totals that include schema setup
// and the data load, as "row counter total per_txn" lines: the simulation's
// events and parks; the network's messages by payload type, local and WAN;
// the Raft messages by kind, without and with entries; the commands proposed
// by kind; and, at the end, the replicas and the Raft entries they retain.
// A counter that stayed zero is left out. Every count is a function of the
// seed. The two "host." lines, wall time and HeapInuse when the run ends, are
// not: a diff of the ledger leaves them out.
func Ledger(w io.Writer, names []string) error {
	rows := ledgerRows
	if len(names) > 0 {
		rows = nil
		for _, name := range names {
			found := false
			for _, r := range ledgerRows {
				if r.name == name {
					rows, found = append(rows, r), true
				}
			}
			if !found {
				return fmt.Errorf("ledger: unknown row %q", name)
			}
		}
	}
	for _, row := range rows {
		runtime.GC()
		start := time.Now()
		c, txns, err := row.run()
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("ledger %s: %w", row.name, err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeledgerRow(w, row.name, c, txns)
		fmt.Fprintf(w, "%s host.wall_s %.1f\n", row.name, wall.Seconds())
		fmt.Fprintf(w, "%s host.heap_inuse_mb %.0f\n", row.name, float64(ms.HeapInuse)/(1<<20))
	}
	return nil
}

func writeledgerRow(w io.Writer, name string, c *cluster.Cluster, txns int) {
	line := func(counter string, n int64) {
		if n != 0 {
			fmt.Fprintf(w, "%s %s %d %.2f\n", name, counter, n, float64(n)/float64(max(txns, 1)))
		}
	}
	fmt.Fprintf(w, "%s txns %d\n", name, txns)
	line("sim.events", c.Sim.Events())
	line("sim.parks", c.Sim.Parks())
	line("simnet.msgs", c.Net.MessagesSent)
	byType := c.Net.SentByType()
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		line("simnet.msgs.local."+t, byType[t][0])
		line("simnet.msgs.wan."+t, byType[t][1])
	}
	var sum kv.Counts
	for _, id := range c.Topo.Nodes() {
		s := c.Stores[id].Counts()
		sum.Replicas += s.Replicas
		sum.Retained += s.Retained
		for k := range sum.Proposed {
			sum.Proposed[k] += s.Proposed[k]
		}
		for k := range sum.RaftSent {
			sum.RaftSent[k][0] += s.RaftSent[k][0]
			sum.RaftSent[k][1] += s.RaftSent[k][1]
		}
	}
	for k := range sum.RaftSent {
		kind := raft.MsgKind(k).String()
		line("raft.msgs.empty."+kind, sum.RaftSent[k][0])
		line("raft.msgs.entries."+kind, sum.RaftSent[k][1])
	}
	for k, n := range sum.Proposed {
		line("kv.proposed."+kv.CommandKind(k).String(), n)
	}
	line("kv.replicas", sum.Replicas)
	line("raft.retained_entries", sum.Retained)
}
