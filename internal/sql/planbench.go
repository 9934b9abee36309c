package sql

import "fmt"

// PlanForBench runs the planning path for one prepared DML statement with
// the given placeholder arguments, without executing it: SELECT, UPDATE and
// DELETE go through the plan cache's read planner, INSERT through the
// cached column-resolution path. It exists so `go run ./benchmark` can
// measure planning throughput — the work the plan cache amortizes — in
// isolation: in the macro workloads statement execution is dominated by the
// simulated replication and network layers, which the cache leaves
// bit-identical.
func (s *Session) PlanForBench(ps *Prepared, args ...Datum) error {
	if len(args) != ps.numArgs {
		return fmt.Errorf("sql: prepared statement wants %d args, got %d", ps.numArgs, len(args))
	}
	s.bindPrepared(ps, args)
	defer s.unbindPrepared()
	switch st := ps.Stmt.(type) {
	case *Select:
		t, db, err := s.table(st.Table)
		if err != nil {
			return err
		}
		_, err = s.planReadCached(st, t, db, st.Where, st.Limit)
		return err
	case *Update:
		t, db, err := s.table(st.Table)
		if err != nil {
			return err
		}
		_, err = s.planReadCached(st, t, db, st.Where, 0)
		return err
	case *Delete:
		t, db, err := s.table(st.Table)
		if err != nil {
			return err
		}
		_, err = s.planReadCached(st, t, db, st.Where, 0)
		return err
	case *Insert:
		t, _, err := s.table(st.Table)
		if err != nil {
			return err
		}
		if ci := s.insertPlan(st, t); ci != nil {
			return nil
		}
		// Cache off or uncacheable: resolve columns as execInsert's slow
		// path would.
		for _, name := range st.Columns {
			if _, ok := t.Column(name); !ok {
				return fmt.Errorf("sql: unknown column %s", name)
			}
		}
		return nil
	}
	return fmt.Errorf("sql: cannot plan %T", ps.Stmt)
}
