package sql

import (
	"fmt"

	"mrdb/internal/sim"
	"mrdb/internal/txn"
)

// Prepared statements: parse and fingerprint a DML statement once, then
// execute it repeatedly with placeholder arguments. Combined with the plan
// cache this takes parsing, fingerprinting and plan-shape work off the hot
// path entirely — each execution binds values into a cached plan.

// Prepared is a parsed, fingerprinted DML statement with $n placeholders.
type Prepared struct {
	Stmt Statement
	fp   string
	// numArgs is the highest placeholder index referenced.
	numArgs int
	// res is the reusable result buffer; ExecPrepared returns it (or a view
	// of it), so a result is valid only until the next execution of the
	// same Prepared.
	res Result
}

// NumArgs returns how many placeholder arguments each execution takes.
func (ps *Prepared) NumArgs() int { return ps.numArgs }

// Prepare parses and prepares one DML statement for repeated execution.
func (s *Session) Prepare(sqlText string) (*Prepared, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return s.PrepareStmt(stmt)
}

// MustPrepare is Prepare that panics on error; for tests and workloads.
func (s *Session) MustPrepare(sqlText string) *Prepared {
	ps, err := s.Prepare(sqlText)
	if err != nil {
		panic(fmt.Sprintf("sql: %v", err))
	}
	return ps
}

// PrepareStmt prepares an already-parsed DML statement.
func (s *Session) PrepareStmt(stmt Statement) (*Prepared, error) {
	switch stmt.(type) {
	case *Insert, *Select, *Update, *Delete:
	default:
		return nil, fmt.Errorf("sql: cannot prepare %T (DML only)", stmt)
	}
	return &Prepared{
		Stmt:    stmt,
		fp:      Fingerprint(stmt),
		numArgs: maxPlaceholder(stmt),
	}, nil
}

// ExecPrepared executes a prepared statement with the given placeholder
// arguments. Semantics match ExecStmt (auto-commit transaction with
// retries, root trace span, statement statistics under the prepared
// fingerprint); only the per-execution parse/fingerprint work and the
// result allocation are gone.
func (s *Session) ExecPrepared(p *sim.Proc, ps *Prepared, args ...Datum) (*Result, error) {
	if len(args) != ps.numArgs {
		return nil, fmt.Errorf("sql: prepared statement wants %d args, got %d", ps.numArgs, len(args))
	}
	s.bindPrepared(ps, args)
	fp := ps.fp
	if isVirtualStmt(ps.Stmt) {
		fp = ""
	}
	res, err := s.runStmt(p, ps.Stmt, fp, func() (*Result, error) { return s.execDML(p, ps.Stmt) })
	s.unbindPrepared()
	return res, err
}

// ExecPreparedTxn executes a prepared statement inside the given
// transaction: no statistics record, no root span — the enclosing RunTxn
// carries the trace.
func (s *Session) ExecPreparedTxn(p *sim.Proc, tx *txn.Txn, ps *Prepared, args ...Datum) (*Result, error) {
	if len(args) != ps.numArgs {
		return nil, fmt.Errorf("sql: prepared statement wants %d args, got %d", ps.numArgs, len(args))
	}
	s.bindPrepared(ps, args)
	res, err := s.execDMLInTxn(p, tx, ps.Stmt)
	s.unbindPrepared()
	return res, err
}

func (s *Session) bindPrepared(ps *Prepared, args []Datum) {
	s.phArgs = args
	s.curFP = ps.fp
	s.curRes = &ps.res
}

func (s *Session) unbindPrepared() {
	s.phArgs = nil
	s.curFP = ""
	s.curRes = nil
}

// maxPlaceholder returns the highest $n index in a statement.
func maxPlaceholder(stmt Statement) int {
	max := 0
	see := func(e Expr) {
		walkExpr(e, func(e Expr) {
			if ph, ok := e.(*Placeholder); ok && ph.Idx > max {
				max = ph.Idx
			}
		})
	}
	seeWhere := func(w *Where) {
		if w == nil {
			return
		}
		for _, c := range w.Conds {
			for _, v := range c.Vals {
				see(v)
			}
		}
	}
	switch st := stmt.(type) {
	case *Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				see(e)
			}
		}
	case *Select:
		seeWhere(st.Where)
		if st.AsOf != nil {
			for _, e := range []Expr{st.AsOf.Exact, st.AsOf.MinTimestamp, st.AsOf.MaxStaleness} {
				if e != nil {
					see(e)
				}
			}
		}
	case *Update:
		for _, a := range st.Set {
			see(a.Val)
		}
		seeWhere(st.Where)
	case *Delete:
		seeWhere(st.Where)
	}
	return max
}
