package sql

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
)

// TestFirstHitStateLivesUntilTheLastOneOut: a first-hit read's state is
// carved from its session's chunks, and the last one out — the statement
// returning or its last probe landing — clears it.
//
// A probe that lands after its statement returned, and after the session ran
// enough first-hit reads to start new chunks of every carve, still reads the
// keys it was handed and finds its value slots as it left them, then fills
// them with what it read: no carve is handed out twice. (A carver that
// refills a used chunk hands the slow probe's keys and slots to later reads.)
// Each of those later reads, whose probes all land before it returns, and a
// SELECT through the cluster whose two tuples hit in different remote
// regions, return their rows intact after the clear, which leaves alone the
// found rows that the returned rows alias. (A clear that empties them returns
// rows without values.)
func TestFirstHitStateLivesUntilTheLastOneOut(t *testing.T) {
	h := newSQLHarness(965)
	h.run(t, func(p *sim.Proc) {
		h.setupMovr(t, p)
		us := h.sessions[simnet.USEast1]
		insertHomed(t, p, us, map[int]simnet.Region{1: simnet.EuropeW2, 3: simnet.USEast1, 5: simnet.AsiaNE1})
		ps := us.MustPrepare(`SELECT id, name FROM users WHERE id IN ($1, $2)`)
		for run := 0; run < 2; run++ { // the first derives the shape
			res, err := us.ExecPrepared(p, ps, int64(1), int64(5))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowSet(res.Rows), "[1 user-1] [5 user-5]"; got != want {
				t.Errorf("a SELECT whose probes both landed before it returned read %s, want %s", got, want)
			}
		}

		users, _, err := us.table("users")
		if err != nil {
			t.Fatal(err)
		}
		// Every read looks up four ids at once: 2 000 keys and value slots,
		// 3 000 rows and 500 runs and firstHits after the slow one, several
		// 8 KiB chunks of each carve.
		const tuples, reads = 4, 500
		f := &slowProbeFetcher{t: t, eu: IndexPrefix(users, users.Primary().ID, simnet.EuropeW2),
			rows: map[string]mvcc.Value{}, delay: sim.Second}
		var keys, vals slab.Of[byte]
		for id := int64(0); id < tuples*(reads+1); id++ {
			key := encodeIndexKey(&keys, users, users.Primary(), simnet.EuropeW2, []Datum{id}, 0)
			f.rows[string(key)] = encodeRow(&vals, map[ColumnID]Datum{1: id, 3: fmt.Sprintf("user-%d", id)}, nil)
		}
		f.late = encodeRow(&vals, map[ColumnID]Datum{1: int64(-1), 3: "late"}, nil)
		read := func(first int64) {
			lookups := make([][]Datum, tuples)
			for i := range lookups {
				lookups[i] = []Datum{first + int64(i)}
			}
			plan := &readPlan{t: users, index: users.Primary(), lookups: lookups,
				regions: []simnet.Region{simnet.USEast1, simnet.EuropeW2, simnet.AsiaNE1}, los: true}
			rows, err := us.fetchRows(p, f, plan)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range rows {
				got = append(got, fmt.Sprintf("%v %v %s", row.vals[1], row.vals[3], row.region))
			}
			want := make([]string, tuples)
			for i := range want {
				want[i] = fmt.Sprintf("%d user-%d %s", first+int64(i), first+int64(i), simnet.EuropeW2)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("the first-hit read of ids %d-%d returned %v, want %v", first, first+tuples-1, got, want)
			}
			us.releaseRows(rows)
		}
		read(0) // its asia-northeast1 probe is the slow one
		for r := int64(1); r <= reads; r++ {
			read(r * tuples)
		}
		p.Sleep(2 * f.delay)
		if f.slow != reads+1 || !f.landed {
			t.Fatalf("asia-northeast1 was probed %d times (landed late: %v), want %d", f.slow, f.landed, reads+1)
		}
		read(0)
	})
}

// slowProbeFetcher serves first-hit reads of users without a cluster: a
// batch the statement reads on its own proc misses, a probe of europe-west2
// finds each key's row in rows, and a probe of asia-northeast1 misses, but
// for the first, which holds its keys for delay and then finds late for
// each. The slow probe fails the test when its keys or its value slots
// changed while it waited.
type slowProbeFetcher struct {
	t      *testing.T
	eu     mvcc.Key
	rows   map[string]mvcc.Value
	late   mvcc.Value
	delay  sim.Duration
	slow   int  // asia-northeast1 probes so far
	landed bool // the slow probe filled its slots
}

func (f *slowProbeFetcher) getBatch(p *sim.Proc, keys []mvcc.Key, vals []mvcc.Value) error {
	if p.Name() != "sql/probe" {
		return nil
	}
	if bytes.HasPrefix(keys[0], f.eu) {
		for i, key := range keys {
			vals[i] = f.rows[string(key)]
		}
		return nil
	}
	if f.slow++; f.slow > 1 {
		return nil
	}
	held := make([]string, len(keys))
	for i, key := range keys {
		held[i] = string(key)
	}
	p.Sleep(f.delay)
	for i, key := range keys {
		if string(key) != held[i] {
			f.t.Errorf("a late probe's key %d changed while it waited: %q, was %q", i, key, held[i])
		}
		if vals[i] != nil {
			f.t.Errorf("a late probe's value slot %d was written while it waited", i)
		}
		vals[i] = f.late
	}
	f.landed = true
	return nil
}

func (f *slowProbeFetcher) scan(*sim.Proc, [][2]mvcc.Key, int) ([][]mvcc.KeyValue, error) {
	return nil, errors.New("slowProbeFetcher: no scans")
}
