package sql

import (
	"fmt"
	"strings"
)

// Fingerprint renders a DML statement in canonical form with literals
// normalized to "_", so executions of the same statement shape share one
// entry in the statement-statistics registry regardless of their concrete
// values. Multi-row VALUES lists collapse to the first row's shape, and IN
// lists collapse to a single placeholder, matching how CockroachDB
// fingerprints statements for crdb_internal.statement_statistics.
func Fingerprint(stmt Statement) string {
	var b strings.Builder
	switch st := stmt.(type) {
	case *Insert:
		if st.Upsert {
			b.WriteString("UPSERT INTO ")
		} else {
			b.WriteString("INSERT INTO ")
		}
		b.WriteString(st.Table)
		if len(st.Columns) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(st.Columns, ", "))
			b.WriteString(")")
		}
		b.WriteString(" VALUES (")
		if len(st.Rows) > 0 {
			for i, e := range st.Rows[0] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(fingerprintExpr(e))
			}
		}
		b.WriteString(")")
		if len(st.Rows) > 1 {
			b.WriteString(", ...")
		}
	case *Select:
		b.WriteString("SELECT ")
		if st.Columns == nil {
			b.WriteString("*")
		} else {
			b.WriteString(strings.Join(st.Columns, ", "))
		}
		b.WriteString(" FROM ")
		b.WriteString(st.Table)
		if st.AsOf != nil {
			b.WriteString(" AS OF SYSTEM TIME _")
		}
		fingerprintWhere(&b, st.Where)
		if st.Limit > 0 {
			b.WriteString(" LIMIT _")
		}
	case *Update:
		b.WriteString("UPDATE ")
		b.WriteString(st.Table)
		b.WriteString(" SET ")
		for i, a := range st.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Col)
			b.WriteString(" = ")
			b.WriteString(fingerprintExpr(a.Val))
		}
		fingerprintWhere(&b, st.Where)
	case *Delete:
		b.WriteString("DELETE FROM ")
		b.WriteString(st.Table)
		fingerprintWhere(&b, st.Where)
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql.")
	}
	return b.String()
}

func fingerprintWhere(b *strings.Builder, w *Where) {
	if w == nil || len(w.Conds) == 0 {
		return
	}
	b.WriteString(" WHERE ")
	for i, c := range w.Conds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Col)
		if c.Op == OpIn {
			b.WriteString(" IN (_)")
		} else {
			b.WriteString(" = ")
			b.WriteString(fingerprintExpr(c.Vals[0]))
		}
	}
}

// fingerprintExpr renders an expression with literals replaced by "_".
// Column references and function names stay, since they change the plan.
func fingerprintExpr(e Expr) string {
	switch ex := e.(type) {
	case *Lit:
		return "_"
	case *Placeholder:
		// Placeholders fingerprint like literals, so a prepared statement
		// shares its statement statistics with its ad-hoc form.
		return "_"
	case *ColRef:
		return ex.Name
	case *FuncCall:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = fingerprintExpr(a)
		}
		return ex.Name + "(" + strings.Join(args, ", ") + ")"
	case *BinaryExpr:
		return fingerprintExpr(ex.L) + " " + ex.Op + " " + fingerprintExpr(ex.R)
	case *CaseExpr:
		return "CASE"
	}
	return "_"
}
