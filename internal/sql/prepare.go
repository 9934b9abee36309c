package sql

import (
	"fmt"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// Prepared statements: every DML statement runs as one. Prepare parses and
// fingerprints a statement once for repeated execution with placeholder
// arguments; an ad-hoc statement (Exec, ExecTxn) is a one-shot Prepared.
// The statement owns its shape (DESIGN §13): the first execution derives
// it, and later ones bind values to it for as long as the catalog version,
// the session's database and the gateway region are the ones it was
// derived under.

// Prepared is a parsed, fingerprinted DML statement with $n placeholders.
type Prepared struct {
	Stmt Statement
	// fp is the statement-statistics key; empty for a virtual table.
	fp string
	// numArgs is the highest placeholder index referenced.
	numArgs int
	// res is the reusable result buffer; ExecPrepared returns it (or a view
	// of it), so a result is valid only until the next execution of the
	// same Prepared.
	res Result

	// The statement's shape — read for SELECT, UPDATE and DELETE, insert
	// for INSERT — and what it was derived under.
	read    *cachedRead
	insert  *cachedInsert
	derived shapeKey
}

// shapeKey is what a shape depends on beyond its statement: the catalog
// version (every schema, locality, region and zone-config change moves it),
// the database the statement's table names resolve in, and the gateway
// region, which orders a search and picks a duplicate index. The statement
// fixes the rest, WHERE-clause arities included.
type shapeKey struct {
	version uint64
	db      string
	region  simnet.Region
}

// NumArgs returns how many placeholder arguments each execution takes.
func (ps *Prepared) NumArgs() int { return ps.numArgs }

// newPrepared prepares a DML statement; any other statement gives nil.
func newPrepared(stmt Statement) *Prepared {
	switch stmt.(type) {
	case *Insert, *Select, *Update, *Delete:
	default:
		return nil
	}
	ps := &Prepared{Stmt: stmt, numArgs: maxPlaceholder(stmt)}
	if !isVirtualStmt(stmt) {
		ps.fp = Fingerprint(stmt)
	}
	return ps
}

// Prepare parses and prepares one DML statement for repeated execution.
func (s *Session) Prepare(sqlText string) (*Prepared, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	ps := newPrepared(stmt)
	if ps == nil {
		return nil, fmt.Errorf("sql: cannot prepare %T (DML only)", stmt)
	}
	return ps, nil
}

// MustPrepare is Prepare that panics on error; for tests and workloads.
func (s *Session) MustPrepare(sqlText string) *Prepared {
	ps, err := s.Prepare(sqlText)
	if err != nil {
		panic(fmt.Sprintf("sql: %v", err))
	}
	return ps
}

// ExecPrepared executes a prepared statement with the given placeholder
// arguments in its own transaction, with automatic retries. When cluster
// tracing is enabled it is the root of the request path's trace (see
// runStmt), and a statement against a real table folds into the statement
// statistics under its fingerprint.
func (s *Session) ExecPrepared(p *sim.Proc, ps *Prepared, args ...Datum) (*Result, error) {
	if err := s.bind(ps, args); err != nil {
		return nil, err
	}
	res, err := s.runStmt(p, ps.Stmt, ps.fp, func() (*Result, error) { return s.execDML(p, ps) })
	s.phArgs = nil
	return res, err
}

// ExecPreparedTxn executes a prepared statement inside the given
// transaction: no statistics record, no root span — the enclosing RunTxn
// carries the trace.
func (s *Session) ExecPreparedTxn(p *sim.Proc, tx *txn.Txn, ps *Prepared, args ...Datum) (*Result, error) {
	if err := s.bind(ps, args); err != nil {
		return nil, err
	}
	res, err := s.execDMLInTxn(p, tx, ps)
	s.phArgs = nil
	return res, err
}

// bind makes args the values of ps's placeholders until the execution
// clears them.
func (s *Session) bind(ps *Prepared, args []Datum) error {
	if len(args) != ps.numArgs {
		return fmt.Errorf("sql: statement wants %d placeholder args, got %d", ps.numArgs, len(args))
	}
	s.phArgs = args
	return nil
}

// result returns ps's result buffer, emptied for refill.
func (ps *Prepared) result() *Result {
	ps.res.Rows = ps.res.Rows[:0]
	ps.res.RowsAffected = 0
	return &ps.res
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
