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
// replies are values; and its reads, writes and pending writes grow once per
// batch. What still scales with k is made outside the transaction, per key: a
// key-table entry's string per newly written key, which names its lock and
// latch, a proposal per write (its Raft entries and the envelopes and messages that
// carry them to each follower; its command and its future come from
// chunks), and the replica's evaluation procs. The counts cover everything
// the simulation runs meanwhile, and are means pinned to ±0.1 (meanAllocs).
// They were 64.15 and 324 while a read queueing on a write's latch made a
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
			// Every run writes keys of its own, made before the count, so no
			// run meets the intents of the one before.
			const runs = 100
			reads, writes := make([]mvcc.Key, k), make([][]mvcc.KeyValue, runs+1)
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
					return tx.PutParallel(p, writes[run], nil)
				}); err != nil {
					t.Fatal(err)
				}
				run++
			}
			got[k] = meanAllocs(runs, readWrite)
			p.Sleep(sim.Second)
		}
	})
	for k, want := range map[int]float64{4: 62.26, 32: 320.88} {
		if math.Abs(got[k]-want) > 0.1 {
			t.Errorf("a transaction of %d reads and %d writes allocates %.2f objects, want %.1f ± 0.1", k, k, got[k], want)
		}
	}
}

// meanAllocs is testing.AllocsPerRun without its rounding down: the mean
// objects per call of f over runs calls, after one warm-up. The count is
// exact but for the key table's map, whose growth moves with its hash
// seed by a few objects per hundred transactions, so a pin on the mean
// holds to ±0.1 where the rounded count would flip at a whole number.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
