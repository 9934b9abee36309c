package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
)

// ledgerRow is one run the ledger counts: a name and the run, which returns
// its cluster and the transactions it committed. A profiled row also counts
// the objects each layer allocated and the bytes each layer retains (see
// byLayer).
type ledgerRow struct {
	name     string
	run      func() (*cluster.Cluster, int, error)
	profiled bool
}

// ledgerRows are the ledger's runs: the Fig. 3 GLOBAL variant at quick
// scale, and the quick Fig. 6 point at seed 602 with 4 and 26 regions.
var ledgerRows = []ledgerRow{
	{name: "fig3", run: func() (*cluster.Cluster, int, error) {
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
	{"fig6-4", fig6LedgerRun(4), true},
	{"fig6-26", fig6LedgerRun(26), false},
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
// not: a diff of the ledger leaves them out. The 4-region row is profiled:
// it also prints an "alloc." line per layer, the objects the run allocated,
// and a "retain." line per layer, the bytes in use when the run ends, its
// cluster still reachable, less what the same stacks held in use when it
// started; both attribute a stack to the package of its innermost mrdb
// frame. These are exact counts of one run but move with the Go runtime and
// map layouts, so they are held within a tolerance rather than diffed.
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
		var before map[[32]uintptr]stackMem
		rate := runtime.MemProfileRate
		if row.profiled {
			// Every allocation from here on is recorded.
			runtime.MemProfileRate = 1
			before = memProfile()
		}
		runtime.GC()
		start := time.Now()
		c, txns, err := row.run()
		wall := time.Since(start)
		if err != nil {
			runtime.MemProfileRate = rate
			return fmt.Errorf("ledger %s: %w", row.name, err)
		}
		var allocs, retained map[string]int64
		if row.profiled {
			after := memProfile()
			runtime.KeepAlive(c) // what the cluster holds is in use at the read
			allocs = byLayer(before, after, func(m stackMem) int64 { return m.objects })
			retained = byLayer(before, after, func(m stackMem) int64 { return m.inuse })
			runtime.MemProfileRate = rate
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeledgerRow(w, row.name, c, txns)
		writeLayerRows(w, row.name, "alloc.", allocs, txns)
		writeLayerRows(w, row.name, "retain.", retained, txns)
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

// stackMem is what the memory profile holds for one stack: the objects it
// allocated so far and the bytes of them still in use.
type stackMem struct{ objects, inuse int64 }

// memProfile returns the memory profile by stack, as of two garbage
// collections it runs first: a collection publishes the allocations made
// before it, and the profile's frees can lag one more cycle.
func memProfile() map[[32]uintptr]stackMem {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]stackMem, n)
	for _, r := range recs[:n] {
		m := out[r.Stack0]
		m.objects += r.AllocObjects
		m.inuse += r.InUseBytes()
		out[r.Stack0] = m
	}
	return out
}

// byLayer attributes what of(after) exceeds of(before), stack by stack, to
// the package of each stack's innermost mrdb frame ("main" for a command's
// own code, "runtime" for a stack without one): an object a runtime or
// standard-library function allocates on a layer's behalf is the layer's,
// and so is a chunk the slab package carves for it.
func byLayer(before, after map[[32]uintptr]stackMem, of func(stackMem) int64) map[string]int64 {
	layers := map[string]int64{}
	for stack, m := range after {
		n := of(m) - of(before[stack])
		if n == 0 {
			continue
		}
		pcs := stack[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		layer := "runtime"
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			if l, ok := mrdbPackage(f.Function); ok && l != "slab" {
				layer = l
				break
			}
			if !more {
				break
			}
		}
		layers[layer] += n
	}
	return layers
}

// mrdbPackage returns the last element of the package path of fn, a
// function name as the runtime prints it, when the package is mrdb's.
func mrdbPackage(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "main", true
	}
	if !strings.HasPrefix(fn, "mrdb/") {
		return "", false
	}
	last := fn[strings.LastIndexByte(fn, '/')+1:]
	return last[:strings.IndexByte(last, '.')], true
}

// writeLayerRows prints one row's lines of a per-layer count, by layer name:
// the counter is the prefix and the layer.
func writeLayerRows(w io.Writer, name, prefix string, layers map[string]int64, txns int) {
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(w, "%s %s%s %d %.2f\n", name, prefix, l, layers[l], float64(layers[l])/float64(max(txns, 1)))
	}
}
