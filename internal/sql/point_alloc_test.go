package sql

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// A point read allocates what it returns: a SELECT decodes only the columns
// it returns, its lookup tuples and lookup lists are session scratch, its
// reply is a value in its caller's space and its transaction record is no
// object of its own.

// TestPointSelectAllocs pins what the benchmark's REGIONAL BY ROW operations
// cost in objects, end to end on a three-region cluster: a prepared SELECT of
// one column by primary key with locality-optimized search on, from the
// us-east1 gateway, and the prepared UPDATE of one column by primary key
// that the benchmark's writes run. A local hit is one round trip to the
// gateway's own partition, at 5.04 objects for the SELECT and 18.60 for the
// UPDATE. A remote miss misses there, then probes both remote partitions and
// returns on europe-west2's hit while asia-northeast1's probe is still in
// flight (its objects land in the next execution's count), at 23.46 and
// 36.26: each probe's reads wait in a txn.Probe of their own until the
// statement adopts them, so a probe that loses the race leaves the
// transaction alone. Index keys are carved from the session's chunks, and a
// leaseholder names a key with one key-table entry, so a chunk lands in
// one run of many: the counts cover everything the simulation runs
// meanwhile and are means pinned to ±0.1 (meanAllocs). As means they were
// 6.0, 27.2, 23.6 and 46.8 while every index key was an allocation of its
// own and a leaseholder made a string of a key for its latch, its lock and
// its timestamp-cache entry. Rounded down, they were 6, 25, 28 and 51
// while every proposal boxed its command and took a future of its own, a
// resolution built its own TxnMeta and key list, every version slice grew
// per key and the Raft timers re-armed with a closure per fire; 11, 31, 37 and 61 while the statement's
// lookup lists were fresh slices, every reply boxed its kind, SendBatch
// returned the transaction a fresh result slice and every transaction record
// was an object of its own; 14 and 44 (the SELECTs)
// while the transaction copied every key it read, built each batch's
// request list on the heap and returned a fresh value slice per read, 14
// and 43
// while a probe read through the transaction itself, 18 and 55
// while every KV round trip made its RPC record, that record's two
// callbacks, a boxed envelope and a reply of its own, 19 and 58
// while a replica ran a lone request through its fan-out's closure, 34 and 75
// while every string column of the row was decoded, the lookup tuples of an
// LOS plan were fresh slices, the fetcher was boxed, the projection and the
// transaction's first read span allocated, the statement tag was formatted
// without a span to record it, every transaction record made a wait
// condition and the reply was boxed by value.
func TestPointSelectAllocs(t *testing.T) {
	h := newSQLHarness(960)
	var local, remote, localUpd, remoteUpd float64
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE ycsb PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "ycsb"
		mustExec(t, p, s, `CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, field0 STRING, field1 STRING) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `INSERT INTO usertable (ycsb_key, field0, field1, crdb_region) VALUES
			('user-local', 'v0', 'v1', 'us-east1'), ('user-remote', 'w0', 'w1', 'europe-west2')`)
		p.Sleep(sim.Second)
		ps := s.MustPrepare(`SELECT field0 FROM usertable WHERE ycsb_key = $1`)
		read := func(args []Datum, want string) func() {
			return func() {
				res, err := s.ExecPrepared(p, ps, args...)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != want {
					t.Fatalf("SELECT field0 of %v = %v, want %s", args[0], res.Rows, want)
				}
			}
		}
		upd := s.MustPrepare(`UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1`)
		update := func(args []Datum) func() {
			return func() {
				if _, err := s.ExecPrepared(p, upd, args...); err != nil {
					t.Fatal(err)
				}
			}
		}
		localRead := read([]Datum{"user-local"}, "v0")
		remoteRead := read([]Datum{"user-remote"}, "w0")
		localUpdate := update([]Datum{"user-local", "v0"})
		remoteUpdate := update([]Datum{"user-remote", "w0"})
		localRead() // the statements' shapes, the pools, the range caches
		remoteRead()
		localUpdate()
		remoteUpdate()
		p.Sleep(sim.Second)
		local = meanAllocs(100, localRead)
		remote = meanAllocs(100, remoteRead)
		p.Sleep(sim.Second) // the last remote probe lands
		localUpd = meanAllocs(100, localUpdate)
		remoteUpd = meanAllocs(100, remoteUpdate)
		p.Sleep(sim.Second)
	})
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"a local point SELECT", local, 5.04},
		{"a remote point SELECT", remote, 23.46},
		{"a local point UPDATE", localUpd, 18.60},
		{"a remote point UPDATE", remoteUpd, 36.26},
	} {
		if math.Abs(c.got-c.want) > 0.1 {
			t.Errorf("%s allocates %.2f objects, want %.2f ± 0.1", c.what, c.got, c.want)
		}
	}
}

// TestDecodeRowIntoColumnSubset: decoding a column subset yields exactly the
// subset's entries of the full decode, for every type and for NULL, and
// skips the rest; a column the row lacks stays absent.
func TestDecodeRowIntoColumnSubset(t *testing.T) {
	row := map[ColumnID]Datum{1: "key", 2: nil, 3: int64(-7), 4: 2.5, 5: true, 6: "tail", 9: "last"}
	val := EncodeRow(row)
	full := map[ColumnID]Datum{}
	if err := DecodeRowInto(full, val, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, row) {
		t.Fatalf("full decode = %v, want %v", full, row)
	}
	for _, cols := range [][]ColumnID{{}, {1}, {6}, {9}, {2, 5}, {3, 4, 9}, {7}, {6, 1}, {1, 2, 3, 4, 5, 6, 9}} {
		got := map[ColumnID]Datum{}
		if err := DecodeRowInto(got, val, cols); err != nil {
			t.Fatalf("cols %v: %v", cols, err)
		}
		want := map[ColumnID]Datum{}
		for _, id := range cols {
			if v, ok := row[id]; ok {
				want[id] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cols %v: decoded %v, want %v", cols, got, want)
		}
	}
	if err := DecodeRowInto(map[ColumnID]Datum{}, val[:len(val)-2], []ColumnID{1}); err == nil {
		t.Error("a truncated row decoded without error when its damaged column was skipped")
	}
}

// TestColumnSubsetDecodeParity: every read returns exactly what it returns
// when each row is decoded whole, as a prepared statement (its first
// execution derives the shape, its second reuses it) and ad hoc, from every
// gateway: a primary-key point lookup, unique secondary indexes that store
// the row and that do not, SELECT *, a WHERE clause whose filter reads an
// unprojected column, AS OF SYSTEM TIME, scans with and without a filter,
// and a multi-tuple IN on a REGIONAL BY ROW table with remote tuples. The
// whole-row arm is the prepared shape with its column set cleared. Each case
// also names the columns its rows decode to, "all" for every column.
func TestColumnSubsetDecodeParity(t *testing.T) {
	h := newSQLHarness(961)
	h.run(t, func(p *sim.Proc) {
		s := h.setupEquivalence(t, p)
		mustExec(t, p, s, `CREATE TABLE mixed (id INT PRIMARY KEY, tag STRING UNIQUE, qty INT, price FLOAT, ok BOOL, note STRING) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `INSERT INTO mixed (id, tag, qty, price, ok, note, crdb_region) VALUES
			(1, 't1', 10, 1.5, true, 'n1', 'us-east1'),
			(2, 't2', -3, 0.25, false, NULL, 'europe-west2'),
			(3, 't3', 0, 9.75, true, 'n3', 'asia-northeast1')`)
		p.Sleep(2 * sim.Second) // AS OF SYSTEM TIME '-1s' sees every row
		cases := []struct {
			table, text, decodes string
		}{
			{"users", `SELECT name FROM users WHERE id = 2`, "[name]"},
			{"mixed", `SELECT note, qty FROM mixed WHERE id = 2`, "[note qty]"},
			{"mixed", `SELECT price, ok FROM mixed WHERE id = 3`, "[price ok]"},
			{"users", `SELECT id, name FROM users WHERE email = 'u3@x.com'`, "[id name]"},
			{"mixed", `SELECT ok FROM mixed WHERE tag = 't1'`, "[ok]"},
			{"dup_codes", `SELECT v FROM dup_codes WHERE code = 'b'`, "[v]"},
			{"users", `SELECT * FROM users WHERE id = 3`, "all"},
			{"mixed", `SELECT * FROM mixed WHERE id IN (1, 2)`, "all"},
			{"users", `SELECT email FROM users WHERE id = 1 AND name = 'user-1'`, "all"},
			{"users", `SELECT email FROM users WHERE id IN (1, 4) AND name = 'user-4'`, "all"},
			{"mixed", `SELECT note FROM mixed WHERE id = 1 AND qty = 11`, "all"},
			{"users", `SELECT name FROM users AS OF SYSTEM TIME '-1s' WHERE id IN (1, 2, 3)`, "[name]"},
			{"mixed", `SELECT price FROM mixed AS OF SYSTEM TIME '-1s' WHERE tag = 't2'`, "[price]"},
			{"users", `SELECT name FROM users`, "[name]"},
			{"mixed", `SELECT qty, note FROM mixed LIMIT 2`, "[qty note]"},
			{"users", `SELECT id FROM users WHERE name = 'user-5'`, "all"},
			{"users", `SELECT name, id FROM users WHERE id IN (1, 2, 3, 5, 6, 99)`, "[name id]"},
			{"mixed", `SELECT tag FROM mixed WHERE id IN (3, 2, 7)`, "[tag]"},
		}
		render := func(res *Result) string {
			return fmt.Sprintf("%v %v", res.Columns, res.Rows)
		}
		for _, r := range h.c.Regions() {
			gs := h.sessions[r]
			for _, c := range cases {
				tbl, _, err := gs.table(c.table)
				if err != nil {
					t.Fatal(err)
				}
				ps := gs.MustPrepare(c.text)
				miss := render(mustExecPrepared(t, p, gs, ps))
				delta := shapeDelta(h.catalog)
				hit := render(mustExecPrepared(t, p, gs, ps))
				if hits, _ := delta(); hits != 1 {
					t.Fatalf("%s: second execution made %d hits, want 1", c.text, hits)
				}
				decodes := "all"
				if cols := ps.read.cols; cols != nil {
					var names []string
					for _, id := range cols {
						col, _ := tbl.ColumnByID(id)
						names = append(names, col.Name)
					}
					decodes = fmt.Sprint(names)
				}
				ps.read.cols = nil
				whole := render(mustExecPrepared(t, p, gs, ps))
				adHoc := render(mustExec(t, p, gs, c.text))
				if decodes != c.decodes {
					t.Errorf("%s: rows decode to %s, want %s", c.text, decodes, c.decodes)
				}
				if miss != whole || hit != whole || adHoc != whole {
					t.Errorf("gateway %s, %s: column-subset reads differ from whole-row decoding\n  miss: %s\n   hit: %s\nad hoc: %s\n whole: %s",
						r, c.text, miss, hit, adHoc, whole)
				}
			}
		}
	})
}

// productOfOld is the lookup-tuple product as bindRead built it with fresh
// slices before the tuples moved to session scratch: first column slowest,
// an error once a prefix exceeds 1024 tuples, nil for an empty product.
func productOfOld(sets [][]Datum) ([][]Datum, error) {
	tuples := [][]Datum{nil}
	for _, vals := range sets {
		var next [][]Datum
		for _, tu := range tuples {
			for _, v := range vals {
				next = append(next, append(append([]Datum(nil), tu...), v))
			}
		}
		tuples = next
		if len(tuples) > 1024 {
			return nil, fmt.Errorf("sql: IN list product too large")
		}
	}
	return tuples, nil
}

// TestBindReadTupleOrder: bindRead's one tuple path, building the product in
// session scratch, returns the tuples the fresh-slice product returned, in
// the same order, for IN lists over one to three columns, the same error
// past 1024 tuples (also when a later column's set is empty) and no tuples
// for an empty set. A second bind reuses the scratch and is as right.
func TestBindReadTupleOrder(t *testing.T) {
	h := newPlanHarness(t)
	s := h.session
	ints := func(vals ...int64) []Datum {
		out := make([]Datum, len(vals))
		for i, v := range vals {
			out[i] = v
		}
		return out
	}
	seq := func(n int) []Datum {
		out := make([]Datum, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	names := []string{"a", "b", "c"}
	for _, sets := range [][][]Datum{
		{ints(7)},
		{ints(3, 1, 2)},
		{ints(1), ints(2)},
		{ints(1, 2), ints(5, 6, 7)},
		{ints(4, 3, 2), ints(9)},
		{ints(1, 2), ints(3), ints(4, 5, 6)},
		{{"x", "y"}, ints(1, 2), {true, nil}},
		{seq(32), seq(32)},
		{seq(8), seq(8), seq(16)},
		{seq(33), seq(32)},
		{seq(2000), {}},
		{seq(8), seq(8), seq(17)},
		{{}},
		{ints(1, 2), {}},
		{{}, seq(2000)},
		{ints(1, 2), {}, ints(3, 4)},
	} {
		cr := &cachedRead{colNames: names[:len(sets)], mode: modeUnpartitioned}
		cons := map[string][]Datum{}
		for i, set := range sets {
			cons[names[i]] = set
		}
		want, wantErr := productOfOld(sets)
		for pass := 0; pass < 2; pass++ {
			plan, err := s.bindRead(cr, nil, cons, 0)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%d-column product of %d sets: error %v, want %v", len(sets), len(sets), err, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if (plan.lookups == nil) != (want == nil) || fmt.Sprint(plan.lookups) != fmt.Sprint(want) {
				t.Errorf("pass %d, sets %v: lookups %v, want %v", pass, sets, plan.lookups, want)
			}
		}
	}
}

// TestLateProbeLeavesNextStatementAlone: a locality-optimized multi-tuple
// SELECT returns on its nearer remote partition's hits while its probe of
// the farther one is still in flight, and the session at once runs the
// same prepared statement with other tuples, which refill the lookup
// scratch. Both statements return their own rows, and so does a third after
// the late probe has landed. A probe reads lists of its own: a first-hit
// read whose farther probe finds its row after the statement returned
// writes that row into the probe's rows, not the session's, and no probe is
// handed keys of the session's scratch.
func TestLateProbeLeavesNextStatementAlone(t *testing.T) {
	h := newSQLHarness(962)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		us := h.sessions[simnet.USEast1]
		insertHomed(t, p, us, map[int]simnet.Region{
			1: simnet.EuropeW2, 2: simnet.EuropeW2, 3: simnet.USEast1, 4: simnet.EuropeW2, 5: simnet.AsiaNE1,
		})
		ps := us.MustPrepare(`SELECT id, name FROM users WHERE id IN ($1, $2)`)
		exec := func(a, b int64) string {
			res, err := us.ExecPrepared(p, ps, a, b)
			if err != nil {
				t.Fatal(err)
			}
			return rowSet(res.Rows)
		}
		exec(3, 5) // derive the statement's shape and warm the range caches
		p.Sleep(sim.Second)

		toEU := h.c.Topo.RegionRTT(simnet.USEast1, simnet.EuropeW2)
		toAsia := h.c.Topo.RegionRTT(simnet.USEast1, simnet.AsiaNE1)
		start := p.Now()
		first := exec(1, 2)
		if d := p.Now().Sub(start); d >= toAsia || d < toEU*9/10 {
			t.Fatalf("the first SELECT took %v: want europe-west2's round trip (%v), shorter than asia-northeast1's (%v)", d, toEU, toAsia)
		}
		second := exec(3, 4)
		if want := "[1 user-1] [2 user-2]"; first != want {
			t.Errorf("first SELECT read %s, want %s", first, want)
		}
		if want := "[3 user-3] [4 user-4]"; second != want {
			t.Errorf("second SELECT, run while the first's asia-northeast1 probe was in flight, read %s, want %s", second, want)
		}
		p.Sleep(toAsia)
		if got, want := exec(5, 1), "[1 user-1] [5 user-5]"; got != want {
			t.Errorf("third SELECT read %s, want %s", got, want)
		}

		users, _, err := us.table("users")
		if err != nil {
			t.Fatal(err)
		}
		const delay = sim.Second
		f := &lateFetcher{t: t, s: us, near: IndexPrefix(users, users.Primary().ID, simnet.EuropeW2), delay: delay,
			row: EncodeRow(map[ColumnID]Datum{1: int64(9), 3: "user-9"})}
		plan := &readPlan{t: users, index: users.Primary(), lookups: [][]Datum{{int64(9)}},
			regions: []simnet.Region{simnet.USEast1, simnet.EuropeW2, simnet.AsiaNE1}, los: true}
		rows, err := us.fetchRows(p, f, plan)
		if err != nil || len(rows) != 1 || rows[0].region != simnet.EuropeW2 {
			t.Fatalf("first-hit read through the late fetcher: %+v, %v; want europe-west2's row", rows, err)
		}
		us.releaseRows(rows)
		scratch := slices.Clone(us.lookupRowScratch[:cap(us.lookupRowScratch)])
		p.Sleep(2 * delay) // asia-northeast1's probe finds the row
		if got, want := fmt.Sprint(us.lookupRowScratch[:cap(us.lookupRowScratch)]), fmt.Sprint(scratch); got != want {
			t.Errorf("a probe that landed after its statement wrote into the session's lookup rows: %s, were %s", got, want)
		}
		if f.probes != 2 {
			t.Errorf("the first-hit read sent %d probes, want 2", f.probes)
		}
	})
}

// lateFetcher serves a first-hit read of one table without a cluster: a batch
// the statement reads on its own proc misses, a probe of the partition whose
// keys start with near finds every key at once, and any other probe finds
// every key after delay, as row. It fails the test when a probe is handed
// keys of the session's scratch.
type lateFetcher struct {
	t      *testing.T
	s      *Session
	near   mvcc.Key
	delay  sim.Duration
	row    mvcc.Value
	probes int
}

func (f *lateFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	if p.Name() != "sql/probe" {
		return nil
	}
	f.probes++
	if within(keys, f.s.lookupKeyScratch) {
		f.t.Errorf("a first-hit probe was handed the session's lookup keys")
	}
	if !bytes.HasPrefix(keys[0], f.near) {
		p.Sleep(f.delay)
	}
	for i := range vals {
		vals[i] = f.row
	}
	return nil
}

func (f *lateFetcher) scan(*sim.Proc, mvcc.Key, mvcc.Key, int) ([]mvcc.KeyValue, error) {
	return nil, errors.New("lateFetcher: no scans")
}

// within reports whether s starts inside the array behind scratch.
func within[T any](s, scratch []T) bool {
	if len(s) == 0 {
		return false
	}
	full := scratch[:cap(scratch)]
	for i := range full {
		if &full[i] == &s[0] {
			return true
		}
	}
	return false
}
