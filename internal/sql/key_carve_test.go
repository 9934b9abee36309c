package sql

import (
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
	"mrdb/internal/txn"
)

// TestCarvedKeysOutliveTheirChunk: a transaction reads two rows and writes
// four through keys its session carved, as a point lookup and an INSERT
// carve them, and its writes go out with its next read, so every
// follower's log holds their Raft commands before they apply. The session
// then carves more than two chunks' worth of other keys at once. The keys
// the transaction's read set, its intents and the Raft commands hold read
// the same afterwards, the transaction commits, and every replica of the
// range applies the four rows at their own keys with no intent left: the
// carver never hands out a byte twice.
func TestCarvedKeysOutliveTheirChunk(t *testing.T) {
	h := newSQLHarness(966)
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE kc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		s.Database = "kc"
		mustExec(t, p, s, `CREATE TABLE kv (k INT PRIMARY KEY, v STRING)`)
		mustExec(t, p, s, `INSERT INTO kv (k, v) VALUES (1, 'one'), (2, 'two')`)
		p.Sleep(sim.Second)
		tbl, _, err := s.table("kv")
		if err != nil {
			t.Fatal(err)
		}
		kc, _ := tbl.Column("k")
		vc, _ := tbl.Column("v")
		row := func(k int64, v string) map[ColumnID]Datum { return map[ColumnID]Datum{kc.ID: k, vc.ID: v} }
		regions := []simnet.Region{""}
		_, reads := s.lookupKeys(tbl, tbl.Primary(), regions, [][]Datum{{int64(1)}, {int64(2)}})
		_, next := s.lookupKeys(tbl, tbl.Primary(), regions, [][]Datum{{int64(3)}})
		var writes []mvcc.KeyValue
		for k := int64(10); k < 14; k++ {
			writes = s.rowKVs(writes, tbl, "", row(k, fmt.Sprint("v", k)))
		}
		held := func() []string {
			var out []string
			for _, k := range reads {
				out = append(out, string(k))
			}
			for _, w := range writes {
				out = append(out, string(w.Key))
			}
			return out
		}
		want := held()
		err = s.RunTxn(p, func(tx *txn.Txn) error {
			if err := tx.GetParallel(p, reads, make([]mvcc.Value, len(reads))); err != nil {
				return err
			}
			if err := tx.PutParallel(p, writes, nil); err != nil {
				return err
			}
			if _, err := tx.Get(p, next[0]); err != nil { // sends the writes
				return err
			}
			carved := 0
			for i := int64(0); carved <= 2*8<<10; i++ {
				for _, e := range s.rowKVs(nil, tbl, "", row(1000+i, "x")) {
					carved += len(e.Key)
				}
			}
			if got := held(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after %d more bytes of keys the transaction's keys read %q, want %q", carved, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second) // every replica applies the writes and their resolution
		for i, w := range writes {
			k := int64(10 + i)
			desc, err := h.c.Catalog.Lookup(w.Key)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range desc.Replicas() {
				r, ok := h.c.Stores[id].Replica(desc.RangeID)
				if !ok {
					t.Fatalf("n%d has no replica of r%d", id, desc.RangeID)
				}
				e, key := r.EngineForBulkLoad(), encodeIndexKey(new(slab.Of[byte]), tbl, tbl.Primary(), "", []Datum{k}, 0)
				if _, intent := e.GetIntent(key); intent {
					t.Errorf("n%d's row %d still has an intent", id, k)
					continue
				}
				got, _, err := e.Get(key, hlc.MaxTimestamp, mvcc.GetOptions{})
				if err != nil {
					t.Fatal(err)
				}
				vals, err := DecodeRow(got, new(DatumCarve))
				if err != nil || vals[vc.ID] != fmt.Sprint("v", k) {
					t.Errorf("n%d's row %d reads %v (%v), want v%d", id, k, vals, err, k)
				}
			}
		}
	})
}
