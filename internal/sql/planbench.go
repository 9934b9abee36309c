package sql

import "fmt"

// PlanForBench runs the planning path for one prepared DML statement with
// the given placeholder arguments, without executing it: SELECT, UPDATE and
// DELETE go through the plan cache's read planner, INSERT through its
// shape lookup. It exists so `go run ./benchmark` can measure planning
// throughput — the work the plan cache amortizes — in isolation: in the
// macro workloads statement execution is dominated by the simulated
// replication and network layers, which the cache leaves bit-identical.
func (s *Session) PlanForBench(ps *Prepared, args ...Datum) error {
	if len(args) != ps.numArgs {
		return fmt.Errorf("sql: prepared statement wants %d args, got %d", ps.numArgs, len(args))
	}
	s.bindPrepared(ps, args)
	defer s.unbindPrepared()
	var table string
	var where *Where
	limit := 0
	switch st := ps.Stmt.(type) {
	case *Select:
		table, where, limit = st.Table, st.Where, st.Limit
	case *Update:
		table, where = st.Table, st.Where
	case *Delete:
		table, where = st.Table, st.Where
	case *Insert:
		t, _, err := s.table(st.Table)
		if err != nil {
			return err
		}
		_, err = s.insertPlan(st, t)
		return err
	default:
		return fmt.Errorf("sql: cannot plan %T", ps.Stmt)
	}
	t, db, err := s.table(table)
	if err != nil {
		return err
	}
	_, err = s.planReadCached(ps.Stmt, t, db, where, limit)
	return err
}
