package sqltext

import (
	"strings"

	"ediflow/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	Kind() Kind
	String() string
}

// Kind names a statement's type by its leading keywords, as the
// statement prints them: "SELECT", "CREATE TABLE". An executor
// dispatches on it, and an error names a statement by its Keyword
// without printing the statement.
type Kind string

// Statement kinds.
const (
	KindCreateTable   Kind = "CREATE TABLE"
	KindDropTable     Kind = "DROP TABLE"
	KindDropView      Kind = "DROP VIEW"
	KindCreateIndex   Kind = "CREATE INDEX"
	KindCreateView    Kind = "CREATE VIEW"
	KindCreateTrigger Kind = "CREATE TRIGGER"
	KindInsert        Kind = "INSERT"
	KindUpdate        Kind = "UPDATE"
	KindDelete        Kind = "DELETE"
	KindSelect        Kind = "SELECT"
	KindExplain       Kind = "EXPLAIN"
	KindBegin         Kind = "BEGIN"
	KindCommit        Kind = "COMMIT"
	KindRollback      Kind = "ROLLBACK"
)

// Keyword is the statement's first keyword: CREATE for CREATE TABLE.
func (k Kind) Keyword() string {
	kw, _, _ := strings.Cut(string(k), " ")
	return kw
}

// DDL reports whether a statement of kind k changes the schema.
func (k Kind) DDL() bool {
	switch k {
	case KindCreateTable, KindDropTable, KindCreateIndex, KindCreateView, KindDropView, KindCreateTrigger:
		return true
	}
	return false
}

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// ---------------------------------------------------------------- statements

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Kind
	PrimaryKey bool
	Unique     bool
	NotNull    bool
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// DropView is DROP VIEW [IF EXISTS] name.
type DropView struct {
	Name     string
	IfExists bool
}

// CreateIndex is CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (cols...).
type CreateIndex struct {
	Name        string
	IfNotExists bool
	Table       string
	Columns     []string
	Unique      bool
}

// CreateView is CREATE [MATERIALIZED] VIEW name AS select.
// All views in this engine are materialized and incrementally maintained.
type CreateView struct {
	Name         string
	Materialized bool
	Query        *Select
}

// CreateTrigger is CREATE TRIGGER name AFTER op ON table CALL 'handler'.
// The handler name refers to a Go callback registered with the database.
type CreateTrigger struct {
	Name    string
	Event   string // INSERT, UPDATE or DELETE
	Table   string
	Handler string
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...) | INSERT INTO table SELECT ...
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *Select // non-nil for INSERT ... SELECT
}

// Assignment is one column = expr in an UPDATE SET list.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET assignments [WHERE cond].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Delete is DELETE FROM table [WHERE cond].
type Delete struct {
	Table string
	Where Expr
}

// SelectItem is one projected expression, possibly aliased; Star marks
// `*` or `t.*`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for t.*
}

// TableRef is one entry of a FROM clause: a base table or a subquery, with
// an optional alias, chained with JOINs.
type TableRef struct {
	Table    string
	Subquery *Select
	Alias    string
}

// JoinClause is one JOIN step after the first FROM entry.
type JoinClause struct {
	Kind  string // "INNER", "LEFT", "CROSS"
	Right TableRef
	On    Expr // nil for CROSS
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a full SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr
	AsOf     Expr // AS OF <seq>: read as of an MVCC commit-seq; nil = latest
}

// Explain is EXPLAIN SELECT/UPDATE/DELETE: report the access paths the
// planner would choose, without executing the statement.
type Explain struct {
	Stmt Statement
}

// Begin, Commit, Rollback control transactions.
type Begin struct{}

// Commit commits the current transaction.
type Commit struct{}

// Rollback aborts the current transaction.
type Rollback struct{}

func (*CreateTable) Kind() Kind   { return KindCreateTable }
func (*DropTable) Kind() Kind     { return KindDropTable }
func (*DropView) Kind() Kind      { return KindDropView }
func (*CreateIndex) Kind() Kind   { return KindCreateIndex }
func (*CreateView) Kind() Kind    { return KindCreateView }
func (*CreateTrigger) Kind() Kind { return KindCreateTrigger }
func (*Insert) Kind() Kind        { return KindInsert }
func (*Update) Kind() Kind        { return KindUpdate }
func (*Delete) Kind() Kind        { return KindDelete }
func (*Select) Kind() Kind        { return KindSelect }
func (*Explain) Kind() Kind       { return KindExplain }
func (*Begin) Kind() Kind         { return KindBegin }
func (*Commit) Kind() Kind        { return KindCommit }
func (*Rollback) Kind() Kind      { return KindRollback }

// --------------------------------------------------------------- expressions

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// ColumnRef is a possibly table-qualified column reference.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// Param is a positional `?` parameter; Index is assigned left-to-right
// starting at 0 during parsing.
type Param struct {
	Index int
}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-" or "NOT"
	X  Expr
}

// Binary is a binary operation: + - * / % = != < <= > >= AND OR ||.
type Binary struct {
	Op   string
	L, R Expr
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool
	Distinct bool
}

// InExpr is x [NOT] IN (list...) or x [NOT] IN (SELECT ...).
type InExpr struct {
	X     Expr
	Not   bool
	List  []Expr
	Query *Select
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Like is x [NOT] LIKE pattern (SQL %/_ wildcards).
type Like struct {
	X       Expr
	Not     bool
	Pattern Expr
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// Subquery is a scalar subquery (SELECT ...) used as an expression.
type Subquery struct {
	Query *Select
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Not   bool
	Query *Select
}

func (*Literal) expr()   {}
func (*ColumnRef) expr() {}
func (*Param) expr()     {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*FuncCall) expr()  {}
func (*InExpr) expr()    {}
func (*IsNull) expr()    {}
func (*Like) expr()      {}
func (*Between) expr()   {}
func (*CaseExpr) expr()  {}
func (*Subquery) expr()  {}
func (*Exists) expr()    {}

// WalkExpr visits the expression in slot p and all its sub-expressions
// (pre-order), passing each visit the slot that holds the node, so a
// visitor may replace it in place; the walk then goes on into the
// replacement. The visitor returns false to prune the subtree. A query
// nested in the expression is not entered: Queries reaches those.
func WalkExpr(p *Expr, visit func(*Expr) bool) {
	if *p == nil || !visit(p) {
		return
	}
	switch x := (*p).(type) {
	case *Unary:
		WalkExpr(&x.X, visit)
	case *Binary:
		WalkExpr(&x.L, visit)
		WalkExpr(&x.R, visit)
	case *FuncCall:
		for i := range x.Args {
			WalkExpr(&x.Args[i], visit)
		}
	case *InExpr:
		WalkExpr(&x.X, visit)
		for i := range x.List {
			WalkExpr(&x.List[i], visit)
		}
	case *IsNull:
		WalkExpr(&x.X, visit)
	case *Like:
		WalkExpr(&x.X, visit)
		WalkExpr(&x.Pattern, visit)
	case *Between:
		WalkExpr(&x.X, visit)
		WalkExpr(&x.Lo, visit)
		WalkExpr(&x.Hi, visit)
	case *CaseExpr:
		WalkExpr(&x.Operand, visit)
		for i := range x.Whens {
			WalkExpr(&x.Whens[i].Cond, visit)
			WalkExpr(&x.Whens[i].Result, visit)
		}
		WalkExpr(&x.Else, visit)
	}
}

// Exprs visits each expression slot of s that holds an expression: the
// items, each JOIN's ON, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT,
// OFFSET and AS OF. It does not enter FROM subqueries or nested queries.
func (s *Select) Exprs(fn func(*Expr)) {
	visit := func(p *Expr) {
		if *p != nil {
			fn(p)
		}
	}
	for i := range s.Items {
		visit(&s.Items[i].Expr)
	}
	for i := range s.Joins {
		visit(&s.Joins[i].On)
	}
	visit(&s.Where)
	for i := range s.GroupBy {
		visit(&s.GroupBy[i])
	}
	visit(&s.Having)
	for i := range s.OrderBy {
		visit(&s.OrderBy[i].Expr)
	}
	visit(&s.Limit)
	visit(&s.Offset)
	visit(&s.AsOf)
}

// Queries calls fn once for every SELECT that st holds: the statement
// itself, a view's or INSERT's query, FROM subqueries and the queries
// nested in any expression (ON, SET, VALUES and DML WHERE included).
// Inner queries come before the query that holds them, so fn may add
// subqueries of its own to the query it is given without their being
// visited.
func Queries(st Statement, fn func(*Select)) {
	in := func(p *Expr) {
		WalkExpr(p, func(p *Expr) bool {
			switch x := (*p).(type) {
			case *Subquery:
				Queries(x.Query, fn)
			case *Exists:
				Queries(x.Query, fn)
			case *InExpr:
				if x.Query != nil {
					Queries(x.Query, fn)
				}
			}
			return true
		})
	}
	switch s := st.(type) {
	case *Select:
		if s.From != nil && s.From.Subquery != nil {
			Queries(s.From.Subquery, fn)
		}
		for _, j := range s.Joins {
			if j.Right.Subquery != nil {
				Queries(j.Right.Subquery, fn)
			}
		}
		s.Exprs(in)
		fn(s)
	case *Insert:
		for _, row := range s.Rows {
			for i := range row {
				in(&row[i])
			}
		}
		if s.Query != nil {
			Queries(s.Query, fn)
		}
	case *Update:
		for i := range s.Set {
			in(&s.Set[i].Value)
		}
		in(&s.Where)
	case *Delete:
		in(&s.Where)
	case *CreateView:
		Queries(s.Query, fn)
	case *Explain:
		Queries(s.Stmt, fn)
	}
}

// HasAggregate reports whether the expression in slot p contains an
// aggregate function call. It takes the slot so that the walk moves no
// expression to the heap.
func HasAggregate(p *Expr) bool {
	found := false
	WalkExpr(p, func(p *Expr) bool {
		if f, ok := (*p).(*FuncCall); ok && IsAggregateName(f.Name) {
			found = true
		}
		return !found
	})
	return found
}

// IsAggregateName reports whether name is an aggregate function.
func IsAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
