package sql

import (
	"sort"
	"testing"

	"mrdb/internal/sim"
)

// TestNonUniqueIndexEqualityFindsEveryRow: a non-unique secondary index
// entry's key ends in the primary-key columns, so an equality on the
// indexed column alone names a key prefix, not a key. The planner must not
// send it as a point lookup (which read the bare prefix and found nothing);
// both rows sharing the name come back, inside an explicit transaction and
// outside one.
func TestNonUniqueIndexEqualityFindsEveryRow(t *testing.T) {
	h := newSQLHarness(203)
	h.run(t, func(p *sim.Proc) {
		s := h.setupMovr(t, p)
		mustExec(t, p, s, `CREATE INDEX i ON users (name)`)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'n')`)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (2, 'b@x.com', 'n')`)
		mustExec(t, p, s, `INSERT INTO users (id, email, name) VALUES (3, 'c@x.com', 'm')`)
		ids := func(res *Result) []int64 {
			var out []int64
			for _, row := range res.Rows {
				out = append(out, row[0].(int64))
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		const q = `SELECT id FROM users WHERE name = 'n'`
		if got := ids(mustExec(t, p, s, q)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Errorf("outside a transaction: ids %v, want [1 2]", got)
		}
		tx := s.Coord.Begin(0)
		got := ids(mustExecTxn(t, p, s, tx, q))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Errorf("inside a transaction: ids %v, want [1 2]", got)
		}
	})
}
