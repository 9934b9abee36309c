package sql

import (
	"errors"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// An INSERT's uniqueness check of a key the INSERT itself writes (its own
// partition of every unique index, §4.1) is not a read: it is that write's
// MustNotExist condition, checked by the leaseholder against the key's
// newest version. These tests pin what the condition must and must not
// reject, on the one-phase, pipelined and declined-1PC paths, and that a
// re-sent write never trips over itself.

// setupKVT is setupMovr plus kvt, a one-index REGIONAL BY TABLE table homed
// in us-east1: a one-row auto-commit INSERT into it is a single write, so it
// takes the one-phase-commit path.
func (h *sqlHarness) setupKVT(t *testing.T, p *sim.Proc) *Session {
	t.Helper()
	s := h.setupMovr(t, p)
	mustExec(t, p, s, `CREATE TABLE kvt (k INT PRIMARY KEY, v STRING)`)
	p.Sleep(300 * sim.Millisecond)
	return s
}

// kvtRow returns the index entries of the kvt row (k, v).
func (h *sqlHarness) kvtRow(t *testing.T, k int64, v string) []mvcc.KeyValue {
	t.Helper()
	tbl, ok := h.catalog.Table("movr", "kvt")
	if !ok {
		t.Fatal("no table kvt")
	}
	kc, _ := tbl.Column("k")
	vc, _ := tbl.Column("v")
	return new(Session).rowKVs(nil, tbl, "", map[ColumnID]Datum{kc.ID: k, vc.ID: v})
}

// otherVoter returns a voter of the range holding key that is not its
// leaseholder.
func (h *sqlHarness) otherVoter(t *testing.T, key mvcc.Key) (*kv.RangeDescriptor, simnet.NodeID) {
	t.Helper()
	desc, err := h.c.Catalog.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range desc.Voters {
		if v != desc.Leaseholder {
			return desc, v
		}
	}
	t.Fatalf("r%d has no voter besides its leaseholder", desc.RangeID)
	return nil, 0
}

// TestInsertDuplicateErrorText: a duplicate fails with the same text whether
// the INSERT is auto-commit (its condition then fails either in the one-phase
// commit or in the statement's write batch) or runs in an explicit
// transaction, and the failed statement leaves nothing behind.
func TestInsertDuplicateErrorText(t *testing.T) {
	h := newSQLHarness(601)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		mustExec(t, p, s, `INSERT INTO kvt (k, v) VALUES (1, 'a')`)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)
		for _, c := range []struct{ stmt, want string }{
			{`INSERT INTO kvt (k, v) VALUES (1, 'b')`,
				`sql: duplicate key value violates unique constraint "primary" (region )`},
			{`INSERT INTO users (id, email, name) VALUES (1, 'b@x.com', 'bob')`,
				`sql: duplicate key value violates unique constraint "primary" (region us-east1)`},
			{`INSERT INTO users (id, email, name) VALUES (2, 'a@x.com', 'bob')`,
				`sql: duplicate key value violates unique constraint "users_email_key" (region us-east1)`},
		} {
			if _, err := s.Exec(p, c.stmt); err == nil || err.Error() != c.want {
				t.Errorf("auto-commit %s: %v, want %q", c.stmt, err, c.want)
			}
			tx := s.Coord.Begin(0)
			_, err := s.ExecTxn(p, tx, c.stmt)
			tx.Abort(p)
			if err == nil || err.Error() != c.want {
				t.Errorf("explicit transaction %s: %v, want %q", c.stmt, err, c.want)
			}
		}
		if res := mustExec(t, p, s, `SELECT v FROM kvt WHERE k = 1`); len(res.Rows) != 1 || res.Rows[0][0] != "a" {
			t.Errorf("kvt row 1 after the duplicates: %v", res.Rows)
		}
		if res := mustExec(t, p, s, `SELECT id FROM users`); len(res.Rows) != 1 {
			t.Errorf("users after the duplicates: %v, want only id 1", res.Rows)
		}
		// The email entry of the failed row 1 duplicate landed in the same
		// batch as the failed primary entry; it must not survive.
		if res := mustExec(t, p, s, `SELECT id FROM users WHERE email = 'b@x.com'`); len(res.Rows) != 0 {
			t.Errorf("a failed INSERT left an index entry: %v", res.Rows)
		}
	})
}

// TestInsertConditionWithinTransaction: the transaction's own intent
// satisfies the condition at the leaseholder, so the coordinator must reject
// an INSERT of a key an earlier statement wrote live — but not of one it
// deleted.
func TestInsertConditionWithinTransaction(t *testing.T) {
	h := newSQLHarness(602)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		tx := s.Coord.Begin(0)
		mustExecTxn(t, p, s, tx, `INSERT INTO kvt (k, v) VALUES (5, 'first')`)
		_, err := s.ExecTxn(p, tx, `INSERT INTO kvt (k, v) VALUES (5, 'second')`)
		tx.Abort(p)
		if want := `sql: duplicate key value violates unique constraint "primary" (region )`; err == nil || err.Error() != want {
			t.Errorf("INSERT k; INSERT k: %v, want %q", err, want)
		}

		tx = s.Coord.Begin(0)
		mustExecTxn(t, p, s, tx, `INSERT INTO kvt (k, v) VALUES (6, 'first')`)
		mustExecTxn(t, p, s, tx, `DELETE FROM kvt WHERE k = 6`)
		mustExecTxn(t, p, s, tx, `INSERT INTO kvt (k, v) VALUES (6, 'again')`)
		mustExecTxn(t, p, s, tx, `INSERT INTO users (id, email, name) VALUES (7, 'u7@x.com', 'first')`)
		mustExecTxn(t, p, s, tx, `DELETE FROM users WHERE id = 7`)
		mustExecTxn(t, p, s, tx, `INSERT INTO users (id, email, name) VALUES (7, 'u7@x.com', 'again')`)
		if err := tx.Commit(p); err != nil {
			t.Fatalf("INSERT k; DELETE k; INSERT k: %v", err)
		}
		if res := mustExec(t, p, s, `SELECT v FROM kvt WHERE k = 6`); len(res.Rows) != 1 || res.Rows[0][0] != "again" {
			t.Errorf("kvt row 6: %v", res.Rows)
		}
		if res := mustExec(t, p, s, `SELECT name FROM users WHERE email = 'u7@x.com'`); len(res.Rows) != 1 || res.Rows[0][0] != "again" {
			t.Errorf("users row 7: %v", res.Rows)
		}
	})
}

// TestInsertPartlyAppliedCannotCommit: an INSERT whose condition fails after
// its other index entries landed is half applied; the transaction can only
// abort, and aborting it removes what landed.
func TestInsertPartlyAppliedCannotCommit(t *testing.T) {
	h := newSQLHarness(603)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)
		tx := s.Coord.Begin(0)
		if _, err := s.ExecTxn(p, tx, `INSERT INTO users (id, email, name) VALUES (2, 'a@x.com', 'bob')`); err == nil {
			t.Fatal("duplicate email accepted")
		}
		if err := tx.Commit(p); err == nil {
			t.Error("a transaction with a half-applied INSERT committed")
		}
		if res := mustExec(t, p, s, `SELECT id FROM users WHERE id = 2`); len(res.Rows) != 0 {
			t.Errorf("half-applied row visible: %v", res.Rows)
		}
	})
}

// TestInsertDeletedOrAbortedKey: only a live value fails the condition — a
// committed tombstone and an aborted writer's intent do not.
func TestInsertDeletedOrAbortedKey(t *testing.T) {
	h := newSQLHarness(604)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		mustExec(t, p, s, `INSERT INTO kvt (k, v) VALUES (10, 'old')`)
		mustExec(t, p, s, `DELETE FROM kvt WHERE k = 10`)
		if _, err := s.Exec(p, `INSERT INTO kvt (k, v) VALUES (10, 'new')`); err != nil {
			t.Errorf("INSERT over a committed delete: %v", err)
		}

		// A writer whose transaction was aborted (by a push, or because its
		// coordinator went away) but whose intent nobody resolved yet.
		abandoned := s.Coord.Begin(0)
		if _, err := s.ExecTxn(p, abandoned, `INSERT INTO kvt (k, v) VALUES (11, 'abandoned')`); err != nil {
			t.Fatal(err)
		}
		s.Coord.Store.Registry.Abort(abandoned.ID())
		if _, err := s.Exec(p, `INSERT INTO kvt (k, v) VALUES (11, 'new')`); err != nil {
			t.Errorf("INSERT over an aborted writer's intent: %v", err)
		}
		for _, k := range []string{"10", "11"} {
			if res := mustExec(t, p, s, `SELECT v FROM kvt WHERE k = `+k); len(res.Rows) != 1 || res.Rows[0][0] != "new" {
				t.Errorf("kvt row %s: %v", k, res.Rows)
			}
		}
	})
}

// TestConcurrentInsertsOfOneKey: of two INSERTs of one key racing from two
// gateways, exactly one commits — on the one-phase path (kvt) and on the
// pipelined two-phase path (users, two index entries per row).
func TestConcurrentInsertsOfOneKey(t *testing.T) {
	h := newSQLHarness(605)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		east2 := NewSession(h.c, h.catalog, h.c.GatewayFor(simnet.USEast1))
		east2.Database = "movr"
		for _, c := range []struct {
			a, b   *Session
			stmtA  string
			stmtB  string
			verify string
		}{
			{s, h.sessions[simnet.EuropeW2],
				`INSERT INTO kvt (k, v) VALUES (20, 'east')`, `INSERT INTO kvt (k, v) VALUES (20, 'europe')`,
				`SELECT v FROM kvt WHERE k = 20`},
			{s, east2,
				`INSERT INTO users (id, email, name) VALUES (30, 'one@x.com', 'one')`,
				`INSERT INTO users (id, email, name) VALUES (30, 'two@x.com', 'two')`,
				`SELECT name FROM users WHERE id = 30`},
		} {
			var errA, errB error
			wg := sim.NewWaitGroup(h.c.Sim)
			wg.Add(2)
			h.c.Sim.Spawn("insert-a", func(wp *sim.Proc) { defer wg.Done(); _, errA = c.a.Exec(wp, c.stmtA) })
			h.c.Sim.Spawn("insert-b", func(wp *sim.Proc) { defer wg.Done(); _, errB = c.b.Exec(wp, c.stmtB) })
			wg.Wait(p)
			if (errA == nil) == (errB == nil) {
				t.Errorf("%s | %s: errors %v and %v, want exactly one to commit", c.stmtA, c.stmtB, errA, errB)
			}
			if res := mustExec(t, p, s, c.verify); len(res.Rows) != 1 {
				t.Errorf("%s: %v, want one row", c.verify, res.Rows)
			}
		}
	})
}

// TestConditionalWriteReplayedAfterNotLeaseholder: the DistSender re-sends a
// whole sub-batch when any request in it fails with NotLeaseholder, so a
// conditional write meets the intent its own first attempt laid. It must
// succeed. Here the sibling write of the batch queues on another
// transaction's lock while the lease moves, and fails over to the new
// leaseholder with the conditional write beside it.
func TestConditionalWriteReplayedAfterNotLeaseholder(t *testing.T) {
	h := newSQLHarness(606)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		co := s.Coord
		holder := co.Begin(0)
		if err := holder.PutParallel(p, h.kvtRow(t, 2, "holder"), nil); err != nil {
			t.Fatal(err)
		}
		// The holder's write waits for its transaction's next batch: a read
		// lays its intent before the lease moves.
		if _, err := holder.Get(p, h.kvtRow(t, 3, "")[0].Key); err != nil {
			t.Fatal(err)
		}
		rowA, rowB := h.kvtRow(t, 1, "a"), h.kvtRow(t, 2, "b")
		desc, target := h.otherVoter(t, rowA[0].Key)

		tx := co.Begin(0)
		var putErr error
		wg := sim.NewWaitGroup(h.c.Sim)
		wg.Add(1)
		h.c.Sim.Spawn("insert", func(wp *sim.Proc) {
			defer wg.Done()
			putErr = tx.PutParallel(wp, append(rowA, rowB...), []bool{true, false})
		})
		p.Sleep(20 * sim.Millisecond) // row 1 is laid; row 2 queues on the holder's lock
		hints := co.Sender.LeaseholderHints
		if err := h.c.Admin.TransferLease(p, desc.RangeID, target); err != nil {
			t.Fatal(err)
		}
		if err := holder.Commit(p); err != nil {
			t.Fatal(err)
		}
		wg.Wait(p)
		if co.Sender.LeaseholderHints == hints {
			t.Fatal("the batch was never re-sent: the scenario did not happen")
		}
		if putErr != nil {
			t.Fatalf("re-sent conditional write: %v", putErr)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		res := mustExec(t, p, s, `SELECT k, v FROM kvt`)
		if len(res.Rows) != 2 || res.Rows[0][1] != "a" || res.Rows[1][1] != "b" {
			t.Errorf("rows after the replay: %v", res.Rows)
		}
	})
}

// TestOnePCReplayIsNotADuplicate: a one-phase commit whose first attempt
// applied but whose reply was lost is re-sent as is; it finds its own
// committed value and must report that commit, not a duplicate.
func TestOnePCReplayIsNotADuplicate(t *testing.T) {
	h := newSQLHarness(607)
	h.run(t, func(p *sim.Proc) {
		s := h.setupKVT(t, p)
		row := h.kvtRow(t, 1, "a")[0]
		ktx := kv.GatewayTxn(s.Coord.Store, row.Key, 0)
		req := &kv.PutRequest{
			Key: row.Key, Value: row.Value, Timestamp: ktx.Meta.WriteTimestamp, Txn: &ktx,
			MustNotExist: true, Commit1PC: true, ReadFromTS: ktx.ReadTimestamp,
		}
		first := s.Coord.Sender.Send(p, req)
		if first.Err != nil || !first.Put.Committed {
			t.Fatalf("first attempt: %+v", first)
		}
		again := s.Coord.Sender.Send(p, req)
		if again.Err != nil || !again.Put.Committed || again.Put.WriteTimestamp != first.Put.WriteTimestamp {
			t.Fatalf("re-sent attempt: %+v (err %v), want the first attempt's commit at %s",
				again.Put, again.Err, first.Put.WriteTimestamp)
		}
		// Another transaction's INSERT of the key is still a duplicate.
		if _, err := s.Exec(p, `INSERT INTO kvt (k, v) VALUES (1, 'b')`); err == nil {
			t.Error("duplicate of a one-phase-committed key accepted")
		}
	})
}

// TestDeclinedOnePCKeepsCondition: a one-phase commit the leaseholder
// declines falls back to the pipelined path, which must carry the condition.
// The transaction read another range, and a GLOBAL table write is pushed
// into the future, so the leaseholder declines; before the fallback write
// arrives the lease moves (taking the declined attempt's lock with it) and a
// rival INSERT of the key commits. The fallback must then fail, not
// overwrite the rival's row.
func TestDeclinedOnePCKeepsCondition(t *testing.T) {
	h := newSQLHarness(608)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		eu := h.sessions[simnet.EuropeW2]
		tx := eu.Coord.Begin(0)
		tx.AllowOnePC = true
		if _, err := eu.ExecTxn(p, tx, `SELECT name FROM users WHERE id = 1 AND crdb_region = 'europe-west2'`); err != nil {
			t.Fatal(err)
		}
		if _, err := eu.ExecTxn(p, tx, `INSERT INTO promo_codes (code, description) VALUES ('X', 'mine')`); err != nil {
			t.Fatal(err)
		}
		tbl, _ := h.catalog.Table("movr", "promo_codes")
		desc, target := h.otherVoter(t, IndexPrefix(tbl, tbl.Primary().ID, ""))

		var commitErr, rivalErr error
		wg := sim.NewWaitGroup(h.c.Sim)
		wg.Add(2)
		h.c.Sim.Spawn("commit", func(wp *sim.Proc) { defer wg.Done(); commitErr = tx.Commit(wp) })
		// The 1PC attempt reaches the us-east1 leaseholder half an 87 ms
		// round trip later and is declined; its fallback arrives one round
		// trip after that.
		p.Sleep(50 * sim.Millisecond)
		if err := h.c.Admin.TransferLease(p, desc.RangeID, target); err != nil {
			t.Fatal(err)
		}
		h.c.Sim.Spawn("rival", func(wp *sim.Proc) {
			defer wg.Done()
			_, rivalErr = s.Exec(wp, `INSERT INTO promo_codes (code, description) VALUES ('X', 'theirs')`)
		})
		wg.Wait(p)
		if rivalErr != nil {
			t.Fatalf("rival INSERT: %v (the interleaving did not happen)", rivalErr)
		}
		var cf *kv.ConditionFailedError
		if !errors.As(commitErr, &cf) {
			t.Errorf("declined 1PC fell back without its condition: commit err %v", commitErr)
		}
		var got string
		if err := s.RunTxn(p, func(rtx *txn.Txn) error {
			res, err := s.ExecTxn(p, rtx, `SELECT description FROM promo_codes WHERE code = 'X'`)
			if err == nil && len(res.Rows) == 1 {
				got, _ = res.Rows[0][0].(string)
			}
			return err
		}); err != nil || got != "theirs" {
			t.Errorf("promo X = %q (%v), want the rival's row", got, err)
		}
	})
}

// TestFailedInsertLeavesNoIntents: a multi-range, multi-row INSERT whose
// first row is a duplicate lays the other rows' index entries before the
// failure comes back; the transaction must record every write that landed
// so that its abort resolves them all.
func TestFailedInsertLeavesNoIntents(t *testing.T) {
	h := newSQLHarness(609)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'alice')`)
		_, err := s.Exec(p, `INSERT INTO users (id, email, name, crdb_region) VALUES
			(1, 'z@x.com', 'dup', 'us-east1'), (2, '2@x.com', 'b', 'europe-west2'), (3, '3@x.com', 'c', 'asia-northeast1')`)
		if err == nil {
			t.Fatal("duplicate row accepted")
		}
		p.Sleep(2 * sim.Second) // asynchronous resolution replicates everywhere
		for _, desc := range h.c.Catalog.All() {
			for _, id := range desc.Replicas() {
				rep, ok := h.c.Stores[id].Replica(desc.RangeID)
				if !ok {
					continue
				}
				if n := rep.EngineForBulkLoad().IntentCount(); n != 0 {
					t.Errorf("r%d on n%d holds %d intents after the failed INSERT", desc.RangeID, id, n)
				}
			}
		}
	})
}
