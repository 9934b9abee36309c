package sql

import (
	"strings"
	"testing"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/slab"
)

// An UPDATE that changes a unique column runs the same global uniqueness
// checks (§4.1) as an INSERT: its own partition through the write's
// MustNotExist condition, the other partitions through one batched read.
// These tests pin what such an UPDATE must reject and accept.

const emailDuplicate = `sql: duplicate key value violates unique constraint "users_email_key"`

// execBoth runs stmt auto-commit and in an explicit transaction that is
// rolled back, and returns both errors.
func execBoth(p *sim.Proc, s *Session, stmt string) (autoErr, txnErr error) {
	_, autoErr = s.Exec(p, stmt)
	tx := s.Coord.Begin(0)
	_, txnErr = s.ExecTxn(p, tx, stmt)
	tx.Abort(p)
	return autoErr, txnErr
}

// wantEmails checks the email of every users row, by primary key.
func wantEmails(t *testing.T, p *sim.Proc, s *Session, want map[int64]string) {
	t.Helper()
	res := mustExec(t, p, s, `SELECT id, email FROM users`)
	if len(res.Rows) != len(want) {
		t.Errorf("users rows = %v, want %v", res.Rows, want)
	}
	for _, row := range res.Rows {
		if id, _ := row[0].(int64); want[id] != row[1] {
			t.Errorf("users row %d: email %v, want %q", id, row[1], want[id])
		}
	}
}

// TestUpdateDuplicateSamePartition: an UPDATE to a value another row of the
// same partition holds fails with INSERT's duplicate-key text.
func TestUpdateDuplicateSamePartition(t *testing.T) {
	h := newSQLHarness(611)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a'), (2, 'b@x.com', 'b')`)
		want := emailDuplicate + ` (region us-east1)`
		autoErr, txnErr := execBoth(p, s, `UPDATE users SET email = 'a@x.com' WHERE id = 2`)
		for _, err := range []error{autoErr, txnErr} {
			if err == nil || err.Error() != want {
				t.Errorf("UPDATE to a taken email: %v, want %q", err, want)
			}
		}
		wantEmails(t, p, s, map[int64]string{1: "a@x.com", 2: "b@x.com"})
	})
}

// TestUpdateDuplicateRemotePartition: on a REGIONAL BY ROW table the value
// may be held by a row homed in another partition; the remote probe finds it.
func TestUpdateDuplicateRemotePartition(t *testing.T) {
	h := newSQLHarness(612)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name, crdb_region) VALUES
			(1, 'a@x.com', 'a', 'europe-west2'), (2, 'b@x.com', 'b', 'us-east1')`)
		want := emailDuplicate + ` (region europe-west2)`
		autoErr, txnErr := execBoth(p, s, `UPDATE users SET email = 'a@x.com' WHERE id = 2`)
		for _, err := range []error{autoErr, txnErr} {
			if err == nil || err.Error() != want {
				t.Errorf("UPDATE to an email taken in another partition: %v, want %q", err, want)
			}
		}
		wantEmails(t, p, s, map[int64]string{1: "a@x.com", 2: "b@x.com"})
	})
}

// TestUpdateTwoRowsToOneValue: one statement setting two rows to the same
// value fails, whether the rows share a partition or not.
func TestUpdateTwoRowsToOneValue(t *testing.T) {
	h := newSQLHarness(613)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name, crdb_region) VALUES
			(1, 'a@x.com', 'a', 'us-east1'), (2, 'b@x.com', 'b', 'us-east1'), (3, 'c@x.com', 'c', 'europe-west2')`)
		for _, stmt := range []string{
			`UPDATE users SET email = 'z@x.com' WHERE id IN (1, 2)`,
			`UPDATE users SET email = 'z@x.com' WHERE id IN (1, 3)`,
		} {
			autoErr, txnErr := execBoth(p, s, stmt)
			for _, err := range []error{autoErr, txnErr} {
				if err == nil || !strings.HasPrefix(err.Error(), emailDuplicate) {
					t.Errorf("%s: %v, want %q", stmt, err, emailDuplicate)
				}
			}
		}
		wantEmails(t, p, s, map[int64]string{1: "a@x.com", 2: "b@x.com", 3: "c@x.com"})
	})
}

// TestUpdateSwapFails: rows are checked one at a time, so a swap of two
// rows' unique values in one statement fails on the first row, which meets
// the second row's old value.
func TestUpdateSwapFails(t *testing.T) {
	h := newSQLHarness(614)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a'), (2, 'b@x.com', 'b')`)
		autoErr, txnErr := execBoth(p, s,
			`UPDATE users SET email = CASE WHEN id = 1 THEN 'b@x.com' ELSE 'a@x.com' END WHERE id IN (1, 2)`)
		for _, err := range []error{autoErr, txnErr} {
			if err == nil || !strings.HasPrefix(err.Error(), emailDuplicate) {
				t.Errorf("swap: %v, want %q", err, emailDuplicate)
			}
		}
		wantEmails(t, p, s, map[int64]string{1: "a@x.com", 2: "b@x.com"})
	})
}

// TestUpdateUniqueToItself: setting a unique column to its own value is not
// a duplicate, also right after the same transaction inserted the row.
func TestUpdateUniqueToItself(t *testing.T) {
	h := newSQLHarness(615)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a')`)
		mustExec(t, p, s, `UPDATE users SET email = email, name = 'a2' WHERE id = 1`)

		tx := s.Coord.Begin(0)
		mustExecTxn(t, p, s, tx, `INSERT INTO users (id, email, name) VALUES (2, 'b@x.com', 'b')`)
		mustExecTxn(t, p, s, tx, `UPDATE users SET email = email WHERE id = 2`)
		mustExecTxn(t, p, s, tx, `UPDATE users SET email = 'b@x.com' WHERE id = 2`)
		if err := tx.Commit(p); err != nil {
			t.Fatalf("INSERT; UPDATE SET email = email: %v", err)
		}
		wantEmails(t, p, s, map[int64]string{1: "a@x.com", 2: "b@x.com"})
		res := mustExec(t, p, s, `SELECT id FROM users WHERE email = 'b@x.com'`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
			t.Errorf("email lookup after SET email = email: %v", res.Rows)
		}
	})
}

// TestUpdateRehomingKeepsUniqueEntry: a rehoming UPDATE moves a row with a
// unique email to the gateway's partition; the row's own old entry is not a
// duplicate, and the email index finds the row in its new home.
func TestUpdateRehomingKeepsUniqueEntry(t *testing.T) {
	h := newSQLHarness(616)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'm@x.com', 'm')`)
		eu := h.sessions[simnet.EuropeW2]
		eu.AutoRehoming = true
		mustExec(t, p, eu, `UPDATE users SET name = 'moved' WHERE id = 1`)
		res := mustExec(t, p, eu, `SELECT id, crdb_region FROM users WHERE email = 'm@x.com'`)
		if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) || res.Rows[0][1] != "europe-west2" {
			t.Errorf("email lookup after rehoming: %v", res.Rows)
		}
		mustExec(t, p, eu, `UPDATE users SET email = 'm2@x.com' WHERE id = 1`)
		wantEmails(t, p, s, map[int64]string{1: "m2@x.com"})
	})
}

// TestUpdateOwnPartitionNotRead: an UPDATE that changes a unique column
// probes the other partitions, but not its own: the new entry's write
// carries the check as its condition, as an INSERT's does.
func TestUpdateOwnPartitionNotRead(t *testing.T) {
	h := newSQLHarness(617)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a')`)
		tbl, _ := h.catalog.Table("movr", "users")
		var email *Index
		for _, idx := range tbl.Indexes {
			if idx.Name == "users_email_key" {
				email = idx
			}
		}
		if email == nil {
			t.Fatal("no index users_email_key")
		}
		gets := map[simnet.Region]int{}
		for _, span := range tracedSpans(h, p, func() { mustExec(t, p, s, `UPDATE users SET email = 'new@x.com' WHERE id = 1`) }) {
			if typ, _ := span.Tag("req"); span.Name != "ds.send" || typ != "*kv.GetRequest" {
				continue
			}
			key, _ := span.Tag("key")
			for _, region := range h.c.Regions() {
				if key == string(encodeIndexKey(new(slab.Of[byte]), tbl, email, region, []Datum{"new@x.com"}, 0)) {
					gets[region]++
				}
			}
		}
		if gets[simnet.USEast1] != 0 {
			t.Errorf("the UPDATE read its own partition's new email key %d times, want 0", gets[simnet.USEast1])
		}
		for _, region := range []simnet.Region{simnet.EuropeW2, simnet.AsiaNE1} {
			if gets[region] != 1 {
				t.Errorf("probes of %s's new email key = %d, want 1", region, gets[region])
			}
		}
		wantEmails(t, p, s, map[int64]string{1: "new@x.com"})
	})
}

// tracedSpans runs fn with tracing on under a fresh root span and returns
// every span recorded beneath it.
func tracedSpans(h *sqlHarness, p *sim.Proc, fn func()) []*obs.Span {
	tr := h.c.Tracer
	tr.SetEnabled(true)
	defer tr.SetEnabled(false)
	sp, done := tr.StartRootIn(p, "test.root")
	fn()
	done()
	return spansUnder(tr.Collect(sp.Ctx().Trace), sp)
}
