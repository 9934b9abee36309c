package txn_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestCommitAllocatesNothingOfItsOwn: a parallel commit of k pipelined
// writes costs the same objects at k = 4 and k = 32, with or without a
// commit refresh, but for the chunks it carves. Its EndTxn request and
// prove state are fields of the transaction; its proofs and resolutions are
// carved from its coordinator's short chunks (slab.Short), and the lists
// that carry them are built on the stacks of the prove and resolve procs,
// which run bodies bound once per coordinator and answer on their stacks;
// and the leaseholder carves a resolution command's keys from its replica's
// short chunks. A refresh makes one array of requests, whatever its span
// count. The count covers the commit and its resolution, everything the
// simulation runs meanwhile, as a mean over many commits: a chunk's
// allocation lands in one commit of many, and at k = 32 a commit carves
// about one chunk more than at k = 4 (its proofs and resolutions, the
// resolution commands' key lists and the versions the resolutions write),
// so the counts may differ by less than one and a half objects. The means
// are pinned to ±0.1 besides. They were 13.44, 16.85, 18.80 and 22.05 (k = 4
// and 32, without and with the refresh) while a commit made its EndTxn
// request, its prove closure, error and future, its proof and resolution
// lists and request chunks, a resolve closure and a refresh request per
// span, its prove and resolve procs answered past 16 writes in lists of
// their own, and the leaseholder gathered past 16 keys of a resolution, and
// copied them, into lists of its own; and 3.72, 5.10, 5.95 and 7.31 while
// the proof and resolution lists were carved from the coordinator's chunks
// and a refresh sent one RPC per span, each from a proc of its own.
//
// The transaction reads four keys, whatever k, all on one range: a refresh
// sends them as one RPC, whose leaseholder evaluates each on a proc of its
// own, which costs about two objects per refresh at both k.
func TestCommitAllocatesNothingOfItsOwn(t *testing.T) {
	h := newHarness(t, 1)
	got := map[string]float64{}
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		for _, refresh := range []bool{false, true} {
			for _, k := range []int{4, 32} {
				name := fmt.Sprintf("k=%d refresh=%v", k, refresh)
				got[name] = meanCommitAllocs(t, p, co, name, k, refresh)
			}
		}
	})
	for _, refresh := range []bool{false, true} {
		small, large := got[fmt.Sprintf("k=4 refresh=%v", refresh)], got[fmt.Sprintf("k=32 refresh=%v", refresh)]
		if math.Abs(large-small) >= 1.5 {
			t.Errorf("a commit (refresh %v) allocates %.2f objects at 4 writes and %.2f at 32, want the same within one and a half", refresh, small, large)
		}
	}
	for name, want := range map[string]float64{
		"k=4 refresh=false": 3.59, "k=32 refresh=false": 4.57,
		"k=4 refresh=true": 6.40, "k=32 refresh=true": 7.79,
	} {
		if math.Abs(got[name]-want) > 0.1 {
			t.Errorf("a commit (%s) allocates %.2f objects, want %.2f ± 0.1", name, got[name], want)
		}
	}
}

// meanCommitAllocs returns the mean objects a commit of k pipelined writes,
// and its resolution, allocates. Each run's transaction reads four keys and
// writes k others of its own, made before the count; with refresh, another
// transaction reads the keys about to be written first, so the writes are
// pushed above it and the commit refreshes the four reads. The writes
// replicate before the commit, so no proof waits on a write's latch (a
// wait costs the leaseholder objects per key).
func meanCommitAllocs(t *testing.T, p *sim.Proc, co *txn.Coordinator, name string, k int, refresh bool) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var total uint64
	for run := -1; run < runs; run++ { // run -1 warms up
		reads, writes := make([]mvcc.Key, 4), make([]mvcc.KeyValue, k)
		must := make([]bool, k)
		for i := range reads {
			reads[i] = mvcc.Key(fmt.Sprintf("k/%s/%03d/r%02d", name, run, i))
		}
		for i := range writes {
			writes[i] = mvcc.KeyValue{Key: mvcc.Key(fmt.Sprintf("k/%s/%03d/w%02d", name, run, i)), Value: mvcc.Value("v")}
			must[i] = true
		}
		out := make([]mvcc.Value, len(reads))
		tx := co.Begin(0)
		if err := tx.GetParallel(p, reads, out); err != nil {
			t.Fatal(err)
		}
		if refresh {
			other := co.Begin(0)
			written := make([]mvcc.Key, k)
			for i := range writes {
				written[i] = writes[i].Key
			}
			if err := other.GetParallel(p, written, make([]mvcc.Value, k)); err != nil {
				t.Fatal(err)
			}
			if err := other.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		// Conditional writes are sent at once: the commit proves them all.
		if err := tx.PutParallel(p, writes, must); err != nil {
			t.Fatal(err)
		}
		if pushed := tx.ReadTimestamp().Less(tx.WriteTimestamp()); pushed != refresh {
			t.Fatalf("%s: the writes were pushed: %v, want %v", name, pushed, refresh)
		}
		p.Sleep(sim.Second) // the writes replicate
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second) // the resolution lands everywhere
		runtime.ReadMemStats(&after)
		if run >= 0 {
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / runs
}

// TestLateResolutionResolvesItsOwnKeys: two transactions of one coordinator
// start their resolutions at one instant, so both are in flight at once,
// one resolving its intents as aborted and the other as committed. Each
// resolves only its own keys: every intent is gone, and each key reads its
// own transaction's outcome. A resolve body that took the newest
// resolution queued rather than its own would resolve the second
// transaction's keys twice and leave the first one's intents in place.
func TestLateResolutionResolvesItsOwnKeys(t *testing.T) {
	h := newHarness(t, 3)
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		aborted, committed := keysOf("k/late/a1", "k/late/a2"), keysOf("k/late/c1", "k/late/c2")
		write := func(keys []mvcc.Key) *txn.Txn {
			tx := co.Begin(0)
			kvs := make([]mvcc.KeyValue, len(keys))
			for i, k := range keys {
				kvs[i] = mvcc.KeyValue{Key: k, Value: mvcc.Value("v")}
			}
			if err := tx.PutParallel(p, kvs, []bool{true, true}); err != nil {
				t.Fatal(err)
			}
			return tx
		}
		a, c := write(aborted), write(committed)
		p.Sleep(sim.Second) // the pipelined writes replicate, as a commit's proofs wait for
		reg := co.Store.Registry
		reg.Abort(a.ID())
		commitTS := c.WriteTimestamp()
		if err := reg.TryCommit(c.ID(), commitTS); err != nil {
			t.Fatal(err)
		}
		a.StartResolve(p, mvcc.Aborted, hlc.Timestamp{})
		c.StartResolve(p, mvcc.Committed, commitTS)
		p.Sleep(sim.Second)
		at := co.Store.Clock.Now()
		h.checkResolved(t, aborted, at, func(int) string { return "" })
		h.checkResolved(t, committed, at, func(int) string { return "v" })
	})
}
