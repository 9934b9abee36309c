package txn_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestLateEvaluationWritesOnlyItsOwnKeys: a transaction's batch reaches its
// leaseholder and queues there behind another transaction's lock; the
// gateway is then cut off from the leaseholder, so every attempt times out
// and the batch fails, and the transaction goes on sending batches once the
// cut heals. When the lock is released, the leaseholder's evaluation of the
// first batch — left running by its timed-out attempt — resumes, and it
// must lock and write the key that batch was sent with. A request struct
// handed out again for a later batch would have it write that batch's key
// instead.
func TestLateEvaluationWritesOnlyItsOwnKeys(t *testing.T) {
	h := newHarness(t, 1)
	lh := h.desc.Leaseholder
	gw := h.c.GatewayFor(simnet.EuropeW2)
	h.run(t, func(p *sim.Proc) {
		holder := h.coord(simnet.USEast1).Begin(0)
		if _, err := holder.GetForUpdate(p, mvcc.Key("k/a")); err != nil {
			t.Fatal(err)
		}
		tx := h.coord(simnet.EuropeW2).Begin(0)
		if err := tx.Put(p, mvcc.Key("k/a"), mvcc.Value("late")); err != nil {
			t.Fatal(err)
		}
		failed := sim.NewFuture[error](h.c.Sim)
		h.c.Sim.Spawn("txn/first-batch", func(fp *sim.Proc) {
			// The pending write of k/a rides this read and queues on the lock.
			_, err := tx.Get(fp, mvcc.Key("k/b"))
			failed.Set(err)
		})
		p.Sleep(sim.Second)
		h.c.Net.Partition(gw, lh)
		if err := failed.Wait(p); err == nil {
			t.Fatal("setup: the batch cut off from its leaseholder succeeded")
		}
		h.c.Net.Heal(gw, lh)
		for _, k := range []string{"k/c", "k/d", "k/e"} {
			if err := tx.Put(p, mvcc.Key(k), mvcc.Value("later")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Get(p, mvcc.Key(k+"/read")); err != nil {
				t.Fatalf("a batch after the heal: %v", err)
			}
		}
		if err := holder.Commit(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second) // the late evaluation runs and replicates
		rep, ok := h.c.Stores[lh].Replica(h.desc.RangeID)
		if !ok {
			t.Fatalf("setup: n%d lost its replica", lh)
		}
		meta, ok := rep.EngineForBulkLoad().GetIntent(mvcc.Key("k/a"))
		if !ok || meta.ID != tx.ID() {
			t.Errorf("k/a's intent after the late evaluation: %+v (found %v), want the transaction's: the evaluation wrote another key", meta, ok)
		}
		tx.Abort(p)
	})
}

// TestTxnBookkeepingDoesNotScaleWithKeys pins what a transaction that reads
// k keys of one range as one batch and writes k other keys of it as one
// batch costs in objects, end to end, at k = 4 and k = 32. The transaction
// owns the keys it is given, so it copies none; its requests come from
// slabs, one chunk per batch; its request and response lists live on the
// sender's stack up to 16 entries (the 32-key batches allocate theirs); its
// replies are values; its reads, writes and pending writes grow once per
// batch, into arrays carved from its coordinator's chunks; and its commit
// allocates nothing of its own (TestCommitAllocatesNothingOfItsOwn). What
// still scales with k is made outside the transaction, per key: a
// proposal per write (its Raft entries and the envelopes and messages that
// carry them to each follower; its command and its future come from
// chunks), and the replica's evaluation procs. The counts cover everything
// the simulation runs meanwhile, less what an idle window of the same
// length makes, and are means pinned to ±0.1 (quietAllocs). The count
// starts from a quiet cluster, at a fixed offset into the period of its
// timers, after as many transactions as it counts: when it started right
// after seven, it read 34.75 and 272.62, and 27.76 and 277.46 with 107
// more before it (the free lists of Raft envelopes and network flights
// held what the warm-up left, and the Raft traffic of a window depends on
// where it falls among the heartbeats); an idle window made no objects.
// The runs cycle through eight key sets, each written once before the
// count: with a fresh set per run, the leaseholder's key-table map grew in
// the count, and where its tables split moves with the map's hash seed
// (273.07 ± 0.1 failed in about a third of fresh processes). The count
// started seven runs later than it did then, so the numbers before are of
// another window. With a fresh set per run they were 38.23 and 263.85
// while a latch wait made a condition, its waiter list and the entry's
// list entry; 43.86 and 273.07 while a replica took a request's evaluator
// by an assertion to an interface type, whose call-site cache the runtime
// fills at random. At 32 keys it was 256.23 while a commit carved the lists
// that carry its proofs and resolutions from its coordinator's chunks. They
// were 53.61 and 284.91 while a commit made its EndTxn request, its
// prove closure, error and future, its proof and resolution lists and
// request chunks and a resolve closure, its prove and resolve procs answered
// past 16 writes in lists of their own, and a leaseholder gathered past 16
// keys of a resolution, and copied them, into lists of its own;
// 56.39 and 286.93 while its lists grew into arrays of their own;
// 62.26 and 320.88 while the transaction's record was an object
// of its own, its anchor key a copy of its own and a leaseholder made a
// string of each key for its key-table entry (one per newly written key);
// 64.15 and 324 while a read queueing on a write's latch made a
// string of its key, and 68.2 and 356 while a leaseholder made a string of a key for its
// latch and another for its lock per write. Rounded down, they were 97 and
// 524 while every proposal boxed its command and took a future of its own, a resolution built its own TxnMeta and key
// list, and every replica grew a version slice per written key; 115
// and 622 while every reply boxed its kind, SendBatch returned the
// transaction a fresh result slice and the transaction record was an object
// of its own; 140 and 794 while the transaction copied every key it read or
// buffered and built one request, proof and resolution per key.
func TestTxnBookkeepingDoesNotScaleWithKeys(t *testing.T) {
	h := newHarness(t, 1)
	got := map[int]float64{}
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.USEast1)
		for _, k := range []int{4, 32} {
			// The runs cycle through key sets of their own, each written
			// by quietAllocs' warm-up before the count, so a run meets only
			// intents resolved several runs before and the count adds no
			// key-table entry (the window lasts as long as with a fresh
			// set per run).
			const runs, sets = 100, 8
			reads, writes := make([]mvcc.Key, k), make([][]mvcc.KeyValue, sets)
			for i := range reads {
				reads[i] = mvcc.Key(fmt.Sprintf("k/%d/%02d/r", k, i))
			}
			for r := range writes {
				writes[r] = make([]mvcc.KeyValue, k)
				for i := range writes[r] {
					writes[r][i] = mvcc.KeyValue{Key: mvcc.Key(fmt.Sprintf("k/%d/%02d/w%03d", k, i, r)), Value: mvcc.Value("v")}
				}
			}
			out := make([]mvcc.Value, k)
			run := 0
			readWrite := func() {
				if err := co.Run(p, func(tx *txn.Txn) error {
					if err := tx.GetParallel(p, reads, out); err != nil {
						return err
					}
					return tx.PutParallel(p, writes[run%sets], nil)
				}); err != nil {
					t.Fatal(err)
				}
				run++
			}
			got[k] = quietAllocs(p, runs, readWrite)
			p.Sleep(sim.Second)
		}
	})
	for k, want := range map[int]float64{4: 15.69, 32: 255.73} {
		if math.Abs(got[k]-want) > 0.1 {
			t.Errorf("a transaction of %d reads and %d writes allocates %.2f objects, want %.1f ± 0.1", k, k, got[k], want)
		}
	}
}

// timerPeriod is a common multiple of the periods of every timer a cluster
// runs on its own (the closed-timestamp side transport's 100 ms, Raft's
// 400 ms heartbeats, liveness's 1 s heartbeats, the store loop's 5 s
// turns), and timerOffset a point in it that no store-loop turn is near.
const (
	timerPeriod = 10 * sim.Second
	timerOffset = 2500 * sim.Millisecond
)

// quietAllocs is testing.AllocsPerRun without its rounding down, and
// without what the cluster makes on its own: the mean objects per call of
// f over runs calls, less those an idle window as long as the calls, one
// timerPeriod later, makes. It first makes runs calls and lets the
// cluster go quiet until timerOffset into the next period, so the count
// starts with the free lists (Raft envelopes, network flights) holding
// what such a burst leaves them, and meets the timers at the same offsets,
// however long the test ran before. A pin on the mean holds to ±0.1 where
// the rounded count would flip at a whole number; a count that grows a Go
// map moves with the map's hash seed, one table split in a few hundred
// transactions, so a pinned window must not add map entries.
func quietAllocs(p *sim.Proc, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	p.Sleep(timerPeriod - sim.Duration(int64(p.Now())%int64(timerPeriod)) + timerOffset)
	start := p.Now()
	busy := mallocs(func() {
		for i := 0; i < runs; i++ {
			f()
		}
	})
	window := p.Now().Sub(start)
	p.Sleep(start.Add(timerPeriod).Sub(p.Now()))
	idle := mallocs(func() { p.Sleep(window) })
	return float64(busy-idle) / float64(runs)
}

// mallocs returns the objects allocated while fn runs.
func mallocs(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}
