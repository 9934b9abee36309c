package sql

import (
	"math"
	"runtime"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestFirstHitAdoptsEachProbeOnce: a locality-optimized SELECT from
// us-east1 whose two tuples miss there and hit in europe-west2 and
// asia-northeast1 sends both remote probes at once, each on its own proc
// through the one transaction. The gateway is cut off from both remote
// leaseholders for a second, so each probe's DistSender sends its batch
// again after the other probe built and sent its own. Each probe must read
// its own keys — neither the requests of one nor the list that carries them
// are ever the other's — so the statement returns both rows,
// and the transaction adopts each probe's reads once: its commit, pushed by
// another session's read of the row it updates, refreshes the two local
// misses, the four remote reads and the update's one read, seven spans.
func TestFirstHitAdoptsEachProbeOnce(t *testing.T) {
	h := newSQLHarness(963)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		us, eu := h.sessions[simnet.USEast1], h.sessions[simnet.EuropeW2]
		insertHomed(t, p, us, map[int]simnet.Region{1: simnet.EuropeW2, 3: simnet.USEast1, 5: simnet.AsiaNE1})
		users, _, err := us.table("users")
		if err != nil {
			t.Fatal(err)
		}
		var remote []simnet.NodeID
		for _, r := range []simnet.Region{simnet.EuropeW2, simnet.AsiaNE1} {
			desc, err := h.c.Catalog.Lookup(IndexPrefix(users, users.Primary().ID, r))
			if err != nil {
				t.Fatal(err)
			}
			remote = append(remote, desc.Leaseholder)
			h.c.Net.PartitionOneWay(us.Gateway, desc.Leaseholder)
		}
		h.c.Sim.Spawn("heal", func(hp *sim.Proc) {
			hp.Sleep(sim.Second)
			for _, lh := range remote {
				h.c.Net.HealOneWay(us.Gateway, lh)
			}
		})
		h.c.Tracer.SetEnabled(true)
		var rows string
		err = us.RunTxn(p, func(tx *txn.Txn) error {
			res, err := us.ExecTxn(p, tx, `SELECT id, name FROM users WHERE id IN (1, 5)`)
			if err != nil {
				return err
			}
			rows = rowSet(res.Rows)
			mustExec(t, p, eu, `SELECT name FROM users WHERE id = 3`)
			_, err = us.ExecTxn(p, tx, `UPDATE users SET name = 'user-3b' WHERE id = 3`)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := "[1 user-1] [5 user-5]"; rows != want {
			t.Errorf("the SELECT read %s, want %s", rows, want)
		}
		var refreshed []string
		for _, tr := range h.c.Tracer.Traces() {
			for _, sp := range tr.Spans {
				if sp.Name == "txn.refresh" {
					n, _ := sp.Tag("spans")
					refreshed = append(refreshed, n)
				}
			}
		}
		if len(refreshed) != 1 || refreshed[0] != "7" {
			t.Errorf("refreshes of the transaction's reads: %v spans, want one of 7", refreshed)
		}
	})
}

// TestWriteStatementAllocs pins what the benchmark's TPC-C writes cost in
// objects, end to end on a three-region cluster: a prepared INSERT of an
// order line and a prepared UPDATE of a stock row, each in its own RunTxn,
// on REGIONAL BY ROW tables whose region is computed from the warehouse
// (region_from_warehouse), from the gateway of the rows' region. The write
// path runs on session scratch: the row maps come from the session's pool,
// the expression context, the uniqueness check, the rows and the writes are
// statement scratch, the computed region is a memoized boxed name, and a
// row value is allocated once at its exact size. What is left is what the
// statement hands on or what the replicas keep: its keys and values, the
// transaction and its record, the request slabs, the replies, proposals and
// MVCC versions; the keys come from the session's chunks, and a replica
// names a key's latch, lock and read with one string. The counts cover
// everything the simulation runs meanwhile and are means pinned to ±0.1
// (meanAllocs). As means they were 32.82 and 25.46 while a read queueing on a
// write's latch made a string of its key, and 34.75 and 30.55 while every index key was an
// allocation of its own and a leaseholder made a string of a key for its
// latch and its lock per write. Rounded down, they were 46 and 44 while every
// proposal boxed its command and took a future of its own, a resolution
// built its own TxnMeta and key list, every version slice grew per key and
// a wait on an intent formatted a span tag with no span to record it (the
// UPDATE waits on its predecessor's intent in about four runs of ten);
// 53 and 55 while every reply
// boxed its kind, SendBatch returned the transaction a fresh result slice,
// every transaction record was an object of its own and the UPDATE's lookup
// lists were fresh slices; 78 and 69 while the
// transaction copied every key it read or buffered and built a request per
// key, and the write path built its maps, slices and boxed region per row
// and grew each row value as it encoded it.
func TestWriteStatementAllocs(t *testing.T) {
	h := newSQLHarness(964)
	var insert, update float64
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE tpcc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "tpcc"
		region := func(col string) string {
			return "crdb_region crdb_internal_region AS (region_from_warehouse(" + col + ")) STORED"
		}
		mustExec(t, p, s, `CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount FLOAT, `+region("ol_w_id")+`, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd INT, `+region("s_w_id")+`, PRIMARY KEY (s_w_id, s_i_id)) LOCALITY REGIONAL BY ROW`)
		// Warehouse 2 maps to us-east1, the third region in name order.
		mustExec(t, p, s, `INSERT INTO stock (s_w_id, s_i_id, s_quantity, s_ytd) VALUES (2, 7, 50, 0)`)
		p.Sleep(sim.Second)
		ins := s.MustPrepare(`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`)
		upd := s.MustPrepare(`UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`)
		const runs = 100
		orders := make([]Datum, 2*(runs+1)) // boxed before the count: the benchmark's arguments are its own
		for i := range orders {
			orders[i] = int64(1000 + i)
		}
		next := 0
		insertArgs := []Datum{int64(2), int64(1), nil, int64(1), int64(7), int64(5), 2.5}
		updateArgs := []Datum{int64(45), int64(5), int64(2), int64(7)}
		runTxn := func(ps *Prepared, args []Datum) func() {
			return func() {
				if err := s.RunTxn(p, func(tx *txn.Txn) error {
					_, err := s.ExecPreparedTxn(p, tx, ps, args...)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		insertOne := runTxn(ins, insertArgs)
		doInsert := func() {
			insertArgs[2] = orders[next]
			next++
			insertOne()
		}
		doUpdate := runTxn(upd, updateArgs)
		doInsert() // the statements' shapes, the pools, the range caches
		doUpdate()
		insert = meanAllocs(runs, doInsert)
		update = meanAllocs(runs, doUpdate)
		p.Sleep(sim.Second)
	})
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"a prepared INSERT in RunTxn", insert, 31.81},
		{"a prepared UPDATE in RunTxn", update, 25.02},
	} {
		if math.Abs(c.got-c.want) > 0.1 {
			t.Errorf("%s allocates %.2f objects, want %.2f ± 0.1", c.what, c.got, c.want)
		}
	}
}

// meanAllocs is testing.AllocsPerRun without its rounding down: the mean
// objects per call of f over runs calls, after one warm-up. A statement's
// keys come from its session's chunks, so a chunk's allocation lands in
// one run of many, and a pin on the mean holds to ±0.1 where the rounded
// count would flip at a whole number.
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
