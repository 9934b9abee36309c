package sql

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
	"mrdb/internal/txn"
)

// sameString reports whether d is a string whose bytes are memo's own.
func sameString(d, memo Datum) bool {
	a, ok := d.(string)
	b, _ := memo.(string)
	return ok && a == b && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestRegionColumnDecodesToTheBoxedName: a full-row decode of a REGIONAL BY
// ROW row makes nothing for its crdb_region column, whose Datum is the
// session's boxed name of that region, and a SELECT returns that same
// Datum. A name the database's region list lacks still decodes to its
// string. After ALTER DATABASE … ADD REGION the memo holds the new list, and
// the name it now holds decodes to its boxed Datum.
func TestRegionColumnDecodesToTheBoxedName(t *testing.T) {
	h := newSQLHarness(967)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE rd PRIMARY REGION "us-east1" REGIONS "europe-west2"`)
		s.Database = "rd"
		mustExec(t, p, s, `CREATE TABLE t (k INT PRIMARY KEY, v INT) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `INSERT INTO t (k, v, crdb_region) VALUES (1, 10, 'europe-west2')`)
		tbl, _, err := s.table("t")
		if err != nil {
			t.Fatal(err)
		}
		key := encodeIndexKey(new(slab.Of[byte]), tbl, tbl.Primary(), simnet.EuropeW2, []Datum{int64(1)}, 0)
		var stored mvcc.Value
		if err := s.RunTxn(p, func(tx *txn.Txn) error {
			stored, err = tx.Get(p, key)
			return err
		}); err != nil || stored == nil {
			t.Fatalf("reading row 1: %v, %v", stored, err)
		}
		names := s.regionNames()
		memo := func(r simnet.Region) Datum {
			i := slices.IndexFunc(names, func(d Datum) bool { return d == string(r) })
			if i < 0 {
				t.Fatalf("the memo %v lacks %s", names, r)
			}
			return names[i]
		}
		decode := func(val mvcc.Value) Datum {
			vals, err := s.decodeRowPooled(tbl, val, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.putRowMap(vals)
			return vals[tbl.RegionColumn]
		}

		if got := decode(stored); !sameString(got, memo(simnet.EuropeW2)) {
			t.Errorf("row 1's crdb_region decodes to %v, not the memo's boxed name", got)
		}
		if n := testing.AllocsPerRun(100, func() { decode(stored) }); n != 0 {
			t.Errorf("a full-row decode of row 1 makes %v objects, want 0", n)
		}
		res := mustExec(t, p, s, `SELECT crdb_region FROM t WHERE k = 1`)
		if len(res.Rows) != 1 || !sameString(res.Rows[0][0], memo(simnet.EuropeW2)) {
			t.Errorf("SELECT crdb_region returned %v, not the memo's boxed name", res.Rows)
		}

		// A value naming a region outside the database's list.
		asia := s.indexEntry(tbl, tbl.Primary(), simnet.AsiaNE1, map[ColumnID]Datum{
			tbl.Primary().Cols[0]: int64(2), tbl.RegionColumn: string(simnet.AsiaNE1)}, true).Value
		got := decode(asia)
		if got != string(simnet.AsiaNE1) {
			t.Fatalf("a name outside the memo decodes to %v, want %s", got, simnet.AsiaNE1)
		}
		for _, d := range names {
			if sameString(got, d) {
				t.Fatalf("a name outside the memo decodes to the memo's %v", d)
			}
		}

		mustExec(t, p, s, `ALTER DATABASE rd ADD REGION "asia-northeast1"`)
		if names = s.regionNames(); len(names) != 3 {
			t.Fatalf("after ADD REGION the memo holds %v, want three regions", names)
		}
		if got := decode(asia); !sameString(got, memo(simnet.AsiaNE1)) {
			t.Errorf("after ADD REGION asia-northeast1 decodes to %v, not the memo's boxed name", got)
		}
		if got := decode(stored); !sameString(got, memo(simnet.EuropeW2)) {
			t.Errorf("after ADD REGION row 1's crdb_region decodes to %v, not the new memo's boxed name", got)
		}
	})
}

// TestCarvedRowValuesOutliveTheirChunk: the row values one statement's
// writes carry, index entries that store the row and ones that hold only
// the primary key, are exactly as long as their capacity, so appending to
// one cannot reach another. The session encodes them after a thousand
// other rows, so they sit in a chunk of full size; a transaction writes
// them and commits, and the session then encodes about ten thousand more
// rows, several chunks' worth. The values the statement was handed read the same afterwards, and
// every replica of the range reads each row back: the carver never hands
// out a byte twice.
func TestCarvedRowValuesOutliveTheirChunk(t *testing.T) {
	h := newSQLHarness(968)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE vc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "vc"
		mustExec(t, p, s, `CREATE TABLE kv (k INT PRIMARY KEY, v STRING, w INT)`)
		mustExec(t, p, s, `CREATE INDEX kv_w ON kv (w)`)
		p.Sleep(sim.Second)
		tbl, _, err := s.table("kv")
		if err != nil {
			t.Fatal(err)
		}
		kc, _ := tbl.Column("k")
		vc, _ := tbl.Column("v")
		wc, _ := tbl.Column("w")
		row := func(k int64, v string) map[ColumnID]Datum {
			return map[ColumnID]Datum{kc.ID: k, vc.ID: v, wc.ID: k % 7}
		}
		for i := int64(0); i < 1000; i++ { // the carver's chunks reach their full size
			s.rowKVs(nil, tbl, "", row(-1-i, "x"))
		}
		var writes []mvcc.KeyValue
		for k := int64(10); k < 14; k++ {
			writes = s.rowKVs(writes, tbl, "", row(k, fmt.Sprint("value-", k)))
		}
		want := make([][]byte, len(writes))
		for i, w := range writes {
			if cap(w.Value) != len(w.Value) {
				t.Errorf("write %d's value has capacity %d beside length %d", i, cap(w.Value), len(w.Value))
			}
			want[i] = bytes.Clone(w.Value)
		}
		if err := s.RunTxn(p, func(tx *txn.Txn) error {
			return tx.PutParallel(p, writes, nil)
		}); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 10_000; i++ {
			for _, e := range s.rowKVs(nil, tbl, "", row(1000+i, "x")) {
				if cap(e.Value) != len(e.Value) {
					t.Fatalf("row %d's value has capacity %d beside length %d", 1000+i, cap(e.Value), len(e.Value))
				}
			}
		}
		for i, w := range writes {
			if !bytes.Equal(w.Value, want[i]) {
				t.Errorf("after 10000 more rows write %d's value reads %q, want %q", i, w.Value, want[i])
			}
		}
		p.Sleep(sim.Second) // every replica applies the writes and their resolution
		for i, w := range writes {
			desc, err := h.c.Catalog.Lookup(w.Key)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range desc.Replicas() {
				r, ok := h.c.Stores[id].Replica(desc.RangeID)
				if !ok {
					t.Fatalf("n%d has no replica of r%d", id, desc.RangeID)
				}
				got, _, err := r.EngineForBulkLoad().Get(w.Key, hlc.MaxTimestamp, mvcc.GetOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("n%d reads write %d as %q, want %q", id, i, got, want[i])
				}
			}
		}
	})
}
