package sqltext

import (
	"fmt"
	"strings"
)

// String renders statements back to parseable SQL. Printing is used by the
// isolation query-rewriter (§VI-A), by debugging tools, and by the parser
// round-trip property tests.

// ident prints an identifier so that the lexer reads it back as that
// identifier: bare when it lexes as one, else in double quotes — a
// keyword, or a name holding a byte an identifier cannot.
func ident(name string) string {
	if lexesAsIdent(name) {
		return name
	}
	return `"` + name + `"`
}

// lexesAsIdent reports whether the lexer reads name, bare, as the
// identifier name.
func lexesAsIdent(name string) bool {
	if name == "" || !isIdentStart(rune(name[0])) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentPart(rune(name[i])) {
			return false
		}
	}
	_, kw := keyword(name)
	return !kw
}

// idents prints a list of identifiers, comma-separated.
func idents(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = ident(n)
	}
	return strings.Join(out, ", ")
}

func (s *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(ident(s.Name))
	sb.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(ident(c.Name))
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.Unique {
			sb.WriteString(" UNIQUE")
		}
		if c.NotNull && !c.PrimaryKey {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

func (s *DropTable) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + ident(s.Name)
	}
	return "DROP TABLE " + ident(s.Name)
}

func (s *DropView) String() string {
	if s.IfExists {
		return "DROP VIEW IF EXISTS " + ident(s.Name)
	}
	return "DROP VIEW " + ident(s.Name)
}

func (s *CreateIndex) String() string {
	u, ine := "", ""
	if s.Unique {
		u = "UNIQUE "
	}
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return fmt.Sprintf("CREATE %sINDEX %s%s ON %s (%s)", u, ine, ident(s.Name), ident(s.Table), idents(s.Columns))
}

func (s *CreateView) String() string {
	m := ""
	if s.Materialized {
		m = "MATERIALIZED "
	}
	return fmt.Sprintf("CREATE %sVIEW %s AS %s", m, ident(s.Name), s.Query.String())
}

func (s *CreateTrigger) String() string {
	return fmt.Sprintf("CREATE TRIGGER %s AFTER %s ON %s CALL '%s'", ident(s.Name), s.Event, ident(s.Table), strings.ReplaceAll(s.Handler, "'", "''"))
}

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(ident(s.Table))
	if len(s.Columns) > 0 {
		sb.WriteString(" (")
		sb.WriteString(idents(s.Columns))
		sb.WriteByte(')')
	}
	if s.Query != nil {
		sb.WriteByte(' ')
		sb.WriteString(s.Query.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

func (s *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	sb.WriteString(ident(s.Table))
	sb.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(ident(a.Column))
		sb.WriteString(" = ")
		sb.WriteString(a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	return sb.String()
}

func (s *Delete) String() string {
	if s.Where != nil {
		return fmt.Sprintf("DELETE FROM %s WHERE %s", ident(s.Table), s.Where.String())
	}
	return "DELETE FROM " + ident(s.Table)
}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && it.Table != "":
			sb.WriteString(ident(it.Table))
			sb.WriteString(".*")
		case it.Star:
			sb.WriteByte('*')
		default:
			sb.WriteString(it.Expr.String())
			if it.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(ident(it.Alias))
			}
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM ")
		sb.WriteString(s.From.String())
		for _, j := range s.Joins {
			switch j.Kind {
			case "CROSS":
				sb.WriteString(", ")
				sb.WriteString(j.Right.String())
			case "LEFT":
				sb.WriteString(" LEFT JOIN ")
				sb.WriteString(j.Right.String())
				sb.WriteString(" ON ")
				sb.WriteString(j.On.String())
			default:
				sb.WriteString(" JOIN ")
				sb.WriteString(j.Right.String())
				sb.WriteString(" ON ")
				sb.WriteString(j.On.String())
			}
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(s.Limit.String())
	}
	if s.Offset != nil {
		sb.WriteString(" OFFSET ")
		sb.WriteString(s.Offset.String())
	}
	if s.AsOf != nil {
		sb.WriteString(" AS OF ")
		sb.WriteString(s.AsOf.String())
	}
	return sb.String()
}

func (t *TableRef) String() string {
	var base string
	if t.Subquery != nil {
		base = "(" + t.Subquery.String() + ")"
	} else {
		base = ident(t.Table)
	}
	if t.Alias != "" {
		return base + " AS " + ident(t.Alias)
	}
	return base
}

func (s *Explain) String() string { return "EXPLAIN " + s.Stmt.String() }

func (*Begin) String() string    { return "BEGIN" }
func (*Commit) String() string   { return "COMMIT" }
func (*Rollback) String() string { return "ROLLBACK" }

// ------------------------------------------------------------ expressions

func (e *Literal) String() string { return e.Value.SQLLiteral() }

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return ident(e.Table) + "." + ident(e.Column)
	}
	return ident(e.Column)
}

func (e *Param) String() string { return "?" }

func (e *Unary) String() string {
	// The whole unary expression is parenthesized so that reparsing cannot
	// rebind it (e.g. `NOT a = b` binds NOT over the comparison).
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(-" + e.X.String() + ")"
}

func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e *FuncCall) String() string {
	name := e.Name
	if name != "COUNT" { // the one keyword the parser reads as a function
		name = ident(name)
	}
	if e.Star {
		return name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return name + "(" + d + strings.Join(args, ", ") + ")"
}

func (e *InExpr) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteString(e.X.String())
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Query != nil {
		sb.WriteString(e.Query.String())
	} else {
		for i, x := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(x.String())
		}
	}
	sb.WriteString("))")
	return sb.String()
}

func (e *IsNull) String() string {
	if e.Not {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

func (e *Like) String() string {
	if e.Not {
		return "(" + e.X.String() + " NOT LIKE " + e.Pattern.String() + ")"
	}
	return "(" + e.X.String() + " LIKE " + e.Pattern.String() + ")"
}

func (e *Between) String() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", e.X.String(), n, e.Lo.String(), e.Hi.String())
}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteByte(' ')
		sb.WriteString(e.Operand.String())
	}
	for _, w := range e.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.Cond.String())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Result.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (e *Subquery) String() string { return "(" + e.Query.String() + ")" }

func (e *Exists) String() string {
	if e.Not {
		return "(NOT EXISTS (" + e.Query.String() + "))"
	}
	return "EXISTS (" + e.Query.String() + ")"
}
