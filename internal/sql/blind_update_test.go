package sql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
	"mrdb/internal/txn"
)

// An UPDATE that needs nothing from its row (blindUpdate) is one conditional
// one-phase write per locality-optimized phase (updateWhereLive): the write
// commits where the row lives and lays nothing anywhere else.

// setupAcct creates, in movr, the REGIONAL BY ROW table acct (id, owner, n)
// and inserts a row with id i homed in homes[i], owned by "o<i>" with n = i.
func (h *sqlHarness) setupAcct(t *testing.T, p *sim.Proc, homes map[int]simnet.Region) *Session {
	t.Helper()
	s := h.setupMovr(t, p)
	mustExec(t, p, s, `CREATE TABLE acct (id INT PRIMARY KEY, owner STRING, n INT) LOCALITY REGIONAL BY ROW`)
	var vals []string
	for id := 1; id <= len(homes); id++ {
		vals = append(vals, fmt.Sprintf("(%d, 'o%d', %d, '%s')", id, id, id, homes[id]))
	}
	mustExec(t, p, s, `INSERT INTO acct (id, owner, n, crdb_region) VALUES `+strings.Join(vals, ", "))
	p.Sleep(sim.Second)
	return s
}

// acctKey returns the primary-index key of acct's row id in region's
// partition.
func (h *sqlHarness) acctKey(t *testing.T, id int64, region simnet.Region) mvcc.Key {
	t.Helper()
	tbl, ok := h.catalog.Table("movr", "acct")
	if !ok {
		t.Fatal("no table acct")
	}
	var keys slab.Of[byte]
	return encodeIndexKey(&keys, tbl, tbl.Primary(), region, []Datum{id}, 0)
}

// leaseholderOf returns the replica that holds the lease of key's range.
func (h *sqlHarness) leaseholderOf(t *testing.T, key mvcc.Key) *kv.Replica {
	t.Helper()
	desc, err := h.c.Catalog.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := h.c.Stores[desc.Leaseholder].Replica(desc.RangeID)
	if !ok {
		t.Fatalf("n%d holds no replica of r%d", desc.Leaseholder, desc.RangeID)
	}
	return r
}

// untouched reports what a statement left on key's leaseholder that a
// write laying nothing must not: a value, an intent or a lock.
func (h *sqlHarness) untouched(t *testing.T, key mvcc.Key) error {
	t.Helper()
	r := h.leaseholderOf(t, key)
	if val, _, err := r.EngineForBulkLoad().Get(key, hlc.MaxTimestamp, mvcc.GetOptions{}); err != nil || val != nil {
		return fmt.Errorf("holds %q (%v)", val, err)
	}
	if meta, ok := r.EngineForBulkLoad().GetIntent(key); ok {
		return fmt.Errorf("holds an intent of txn %d", meta.ID)
	}
	if holder := r.LockHolder(key); holder != 0 {
		return fmt.Errorf("is locked by txn %d", holder)
	}
	return nil
}

// TestRemoteBlindUpdateIsOneRemoteRound: from europe-west2, an UPDATE that
// needs nothing from its row finds a row homed in asia-northeast1 and writes
// it in about one round trip there: its gateway-partition write lays nothing,
// and the remote partitions' writes go out at once, the row's committing in
// one phase. It sends no read: three RPCs, no GetRequest. It used to read the
// row first (locally, then in both remote partitions) and send its one-phase
// write after, about two round trips. A row homed at the gateway takes one
// write to its leaseholder and a quorum round there.
func TestRemoteBlindUpdateIsOneRemoteRound(t *testing.T) {
	h := newSQLHarness(971)
	h.run(t, func(p *sim.Proc) {
		h.setupAcct(t, p, map[int]simnet.Region{1: simnet.AsiaNE1, 2: simnet.EuropeW2, 3: simnet.USEast1})
		eu := h.sessions[simnet.EuropeW2]
		update := eu.MustPrepare(`UPDATE acct SET owner = $1, n = $2 WHERE id = $3`)
		for id := int64(1); id <= 3; id++ { // warm the gateway's caches
			mustExec(t, p, eu, fmt.Sprintf(`SELECT owner FROM acct WHERE id = %d`, id))
		}
		// near allows for the network's jitter and the quorum round.
		near := func(d, rtt sim.Duration) bool { return d >= rtt*9/10 && d <= rtt*6/5 }
		run := func(id int64) (sim.Duration, int64) {
			t.Helper()
			start, sent := p.Now(), eu.Coord.Sender.Sent
			res, err := eu.ExecPrepared(p, update, fmt.Sprintf("new%d", id), int64(10*id), id)
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("UPDATE of %d: %+v (%v), want 1 row", id, res, err)
			}
			return p.Now().Sub(start), eu.Coord.Sender.Sent - sent
		}

		h.c.Tracer.SetEnabled(true)
		toAsia := h.c.Topo.RegionRTT(simnet.EuropeW2, simnet.AsiaNE1)
		if d, sent := run(1); !near(d, toAsia) || sent != 3 {
			t.Errorf("remote UPDATE took %v and %d RPCs, want about %v (one round trip to asia-northeast1) and 3", d, sent, toAsia)
		}
		for _, tr := range h.c.Tracer.Traces() {
			for _, sp := range tr.Spans {
				if req, _ := sp.Tag("req"); req == "*kv.GetRequest" {
					t.Errorf("the remote UPDATE read its row: %s on n%v", sp.Name, sp.Tags)
				}
			}
		}
		h.c.Tracer.SetEnabled(false)

		toLH, quorum, _ := eu.Coord.Sender.WriteRTTs(h.acctKey(t, 2, simnet.EuropeW2))
		if d, sent := run(2); !near(d, toLH+quorum) || sent != 1 {
			t.Errorf("local UPDATE took %v and %d RPCs, want about %v (to the leaseholder and a quorum round there) and 1", d, sent, toLH+quorum)
		}
		res := mustExec(t, p, eu, `SELECT id, owner, n, crdb_region FROM acct`)
		if got, want := rowSet(res.Rows), "[1 new1 10 asia-northeast1] [2 new2 20 europe-west2] [3 o3 3 us-east1]"; got != want {
			t.Errorf("rows %s, want %s", got, want)
		}
	})
}

// TestBlindUpdateOfMissingRow: an UPDATE that needs nothing from its row,
// of a key held nowhere, affects no row and leaves every partition as it was:
// no value, no intent, no lock.
func TestBlindUpdateOfMissingRow(t *testing.T) {
	h := newSQLHarness(972)
	h.run(t, func(p *sim.Proc) {
		h.setupAcct(t, p, map[int]simnet.Region{1: simnet.AsiaNE1})
		us := h.sessions[simnet.USEast1]
		res := mustExec(t, p, us, `UPDATE acct SET owner = 'x', n = 0 WHERE id = 99`)
		if res.RowsAffected != 0 {
			t.Errorf("UPDATE of a missing row affected %d rows, want 0", res.RowsAffected)
		}
		p.Sleep(sim.Second) // every write has landed
		for _, region := range h.c.Regions() {
			if err := h.untouched(t, h.acctKey(t, 99, region)); err != nil {
				t.Errorf("partition %s: the key %v", region, err)
			}
		}
		if res := mustExec(t, p, us, `SELECT id FROM acct WHERE id = 99`); len(res.Rows) != 0 {
			t.Errorf("the missing row reads %v", res.Rows)
		}
	})
}

// TestPushedBlindUpdateFallsBackOnce: a remote partition's write pushed above
// its read timestamp by another transaction's read declines, since the other
// partitions' keys it carries lie on other ranges: the gateway partition's
// miss under locality-optimized search, its sibling candidates' keys without
// it. The statement then reads its row and writes it, as an UPDATE that
// reads does, and updates the row once.
func TestPushedBlindUpdateFallsBackOnce(t *testing.T) {
	h := newSQLHarness(973)
	h.run(t, func(p *sim.Proc) {
		h.setupAcct(t, p, map[int]simnet.Region{1: simnet.AsiaNE1, 2: simnet.AsiaNE1})
		us, asia := h.sessions[simnet.USEast1], h.sessions[simnet.AsiaNE1]
		for _, c := range []struct {
			id  int64
			los bool
		}{{1, true}, {2, false}} {
			id, los := c.id, c.los
			us.LocalityOptimizedSearch = los
			r := h.leaseholderOf(t, h.acctKey(t, id, simnet.AsiaNE1))
			puts := r.Proposed[kv.CmdPut]
			// asia-northeast1 reads the row after the UPDATE began and before
			// its write arrives there.
			h.c.Sim.Spawn("reader", func(rp *sim.Proc) {
				rp.Sleep(20 * sim.Millisecond)
				mustExec(t, rp, asia, fmt.Sprintf(`SELECT owner FROM acct WHERE id = %d`, id))
			})
			start := p.Now()
			h.c.Tracer.SetEnabled(true)
			res := mustExec(t, p, us, fmt.Sprintf(`UPDATE acct SET owner = 'moved', n = 7 WHERE id = %d`, id))
			h.c.Tracer.SetEnabled(false)
			if res.RowsAffected != 1 {
				t.Errorf("LOS %v: UPDATE affected %d rows, want 1", los, res.RowsAffected)
			}
			// The UPDATE's own evaluations, in order: its writes, then, once
			// one declined, the reads of the path that reads first.
			var evals []string
			for _, tr := range h.c.Tracer.Traces() {
				if stmt, _ := tr.Root().Tag("stmt"); stmt != "Update" || tr.Root().Start < start {
					continue
				}
				for _, sp := range tr.Spans {
					if req, _ := sp.Tag("req"); sp.Name == "replica.eval" {
						evals = append(evals, fmt.Sprintf("%012d %s", sp.Start, req))
					}
				}
			}
			sort.Strings(evals)
			if len(evals) < 4 || !strings.HasSuffix(evals[0], "*kv.PutRequest") || !slices.ContainsFunc(evals, func(e string) bool { return strings.HasSuffix(e, "*kv.GetRequest") }) {
				t.Errorf("LOS %v: the UPDATE evaluated %v, want its one-phase writes, then its reads and write", los, evals)
			}
			p.Sleep(sim.Second)
			// One write of the row: the declined one-phase write laid nothing,
			// and the read-then-write path wrote once (an intent its commit
			// resolved, or a one-phase commit).
			if n := r.Proposed[kv.CmdPut] - puts; n != 1 {
				t.Errorf("LOS %v: the row's range proposed %d writes, want 1", los, n)
			}
			got := rowSet(mustExec(t, p, us, fmt.Sprintf(`SELECT owner, n FROM acct WHERE id = %d`, id)).Rows)
			if want := "[moved 7]"; got != want {
				t.Errorf("LOS %v: row reads %s, want %s", los, got, want)
			}
		}
	})
}

// TestUpdatesThatReadTheirRowKeepTheirPath: every other UPDATE reads its row
// before it writes and sends what it sent before: one that computes from the
// row (a locking read, a one-phase write), one of a table with a secondary
// index (the read, the new email's uniqueness probes, the writes and a
// two-phase commit), one of a table with a computed column, one with
// rehoming on, and any UPDATE inside a transaction, whose write waits for the
// commit.
func TestUpdatesThatReadTheirRowKeepTheirPath(t *testing.T) {
	h := newSQLHarness(974)
	h.run(t, func(p *sim.Proc) {
		s := h.setupAcct(t, p, map[int]simnet.Region{1: simnet.USEast1})
		mustExec(t, p, s, `CREATE TABLE crt (w INT PRIMARY KEY, v STRING, crdb_region crdb_internal_region AS (region_from_warehouse(w)) STORED) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, s, `INSERT INTO crt (w, v) VALUES (1, 'a')`)
		insertHomed(t, p, s, map[int]simnet.Region{1: simnet.USEast1})
		for _, c := range []struct {
			name, stmt string
			rehome     bool
			rpcs       int64
		}{
			{"computed from the row", `UPDATE acct SET owner = 'x', n = n + 1 WHERE id = 1`, false, 2},
			{"secondary index", `UPDATE users SET email = 'z@x.com', name = 'z' WHERE id = 1`, false, 8},
			{"computed column", `UPDATE crt SET v = 'b' WHERE w = 1`, false, 4},
			{"rehoming", `UPDATE acct SET owner = 'y', n = 5 WHERE id = 1`, true, 2},
		} {
			s.AutoRehoming = c.rehome
			var res *Result
			sent := sentBy(s, func() { res = mustExec(t, p, s, c.stmt) })
			if res.RowsAffected != 1 || sent != c.rpcs {
				t.Errorf("%s: %d rows in %d RPCs, want 1 row in %d", c.name, res.RowsAffected, sent, c.rpcs)
			}
		}
		s.AutoRehoming = false
		var sent int64
		if err := s.RunTxn(p, func(tx *txn.Txn) error {
			sent = sentBy(s, func() {
				if _, err := s.ExecTxn(p, tx, `UPDATE acct SET owner = 'w', n = 6 WHERE id = 1`); err != nil {
					t.Error(err)
				}
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sent != 1 {
			t.Errorf("an UPDATE in a transaction sent %d RPCs before its commit, want 1 (its locking read)", sent)
		}
		got := rowSet(mustExec(t, p, s, `SELECT owner, n FROM acct WHERE id = 1`).Rows)
		if want := "[w 6]"; got != want {
			t.Errorf("row reads %s, want %s", got, want)
		}
	})
}
