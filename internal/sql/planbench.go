package sql

import "fmt"

// PlanForBench runs the planning path for one prepared DML statement with
// the given placeholder arguments, without executing it: SELECT, UPDATE and
// DELETE bind values to the statement's read shape, INSERT loads its insert
// shape. It exists so `go run ./benchmark` can measure planning throughput —
// the work a prepared statement's shape saves — in isolation: in the macro
// workloads statement execution is dominated by the simulated replication
// and network layers, which reusing a shape leaves bit-identical.
func (s *Session) PlanForBench(ps *Prepared, args ...Datum) error {
	if err := s.bind(ps, args); err != nil {
		return err
	}
	defer func() { s.phArgs = nil }()
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
		_, err = s.insertShape(ps, t)
		return err
	default:
		return fmt.Errorf("sql: cannot plan %T", ps.Stmt)
	}
	t, db, err := s.table(table)
	if err != nil {
		return err
	}
	_, err = s.planPrepared(ps, t, db, where, limit)
	return err
}
