package sqltext

import (
	"math/rand"
	"strings"
	"testing"

	"ediflow/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b.c FROM t WHERE x >= 3.5 AND name = 'o''brien' -- comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	if len(toks) != 16 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Errorf("first token: %+v", toks[0])
	}
	if toks[15].Kind != TokString || toks[15].Text != "o'brien" {
		t.Errorf("string token: %+v", toks[15])
	}
	_ = kinds
}

func TestLexerComments(t *testing.T) {
	toks, err := Tokenize("/* block\ncomment */ SELECT 1")
	if err != nil || len(toks) != 2 {
		t.Fatalf("toks=%v err=%v", toks, err)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Error("bad char must error")
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := Tokenize("1 2.5 3e10 4.2E-3")
	if err != nil || len(toks) != 4 {
		t.Fatalf("toks=%v err=%v", toks, err)
	}
	for _, tk := range toks {
		if tk.Kind != TokNumber {
			t.Errorf("not a number: %+v", tk)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE IF NOT EXISTS users (
		id INT PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		score FLOAT,
		active BOOL UNIQUE
	)`).(*CreateTable)
	if st.Name != "users" || !st.IfNotExists || len(st.Columns) != 4 {
		t.Fatalf("%+v", st)
	}
	if !st.Columns[0].PrimaryKey || st.Columns[0].Type != types.KindInt {
		t.Errorf("pk column: %+v", st.Columns[0])
	}
	if !st.Columns[1].NotNull || st.Columns[1].Type != types.KindString {
		t.Errorf("name column: %+v", st.Columns[1])
	}
	if !st.Columns[3].Unique {
		t.Errorf("unique column: %+v", st.Columns[3])
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").(*Insert)
	if st.Table != "t" || len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Fatalf("%+v", st)
	}
	if lit := st.Rows[1][1].(*Literal); !lit.Value.IsNull() {
		t.Errorf("expected NULL literal: %+v", lit)
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := mustParse(t, "INSERT INTO t2 SELECT a, b FROM t1 WHERE a > 0").(*Insert)
	if st.Query == nil || st.Query.Where == nil {
		t.Fatalf("%+v", st)
	}
}

func TestParseInsertParams(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (?, ?)").(*Insert)
	p0 := st.Rows[0][0].(*Param)
	p1 := st.Rows[0][1].(*Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Errorf("param indices: %d, %d", p0.Index, p1.Index)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	del := mustParse(t, "DELETE FROM t").(*Delete)
	if del.Where != nil {
		t.Fatalf("%+v", del)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT DISTINCT u.name AS n, COUNT(*) AS c
		FROM users AS u JOIN orders o ON u.id = o.uid
		WHERE u.active = TRUE AND o.total > 10.5
		GROUP BY u.name HAVING COUNT(*) > 2
		ORDER BY c DESC, n LIMIT 10 OFFSET 5`).(*Select)
	if !st.Distinct || len(st.Items) != 2 || len(st.Joins) != 1 {
		t.Fatalf("%+v", st)
	}
	if st.Joins[0].Kind != "INNER" || st.Joins[0].On == nil {
		t.Errorf("join: %+v", st.Joins[0])
	}
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Error("group/having")
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Errorf("order: %+v", st.OrderBy)
	}
	if st.Limit == nil || st.Offset == nil {
		t.Error("limit/offset")
	}
}

func TestParseCartesianProduct(t *testing.T) {
	st := mustParse(t, "SELECT * FROM r, s WHERE r.a = s.b").(*Select)
	if len(st.Joins) != 1 || st.Joins[0].Kind != "CROSS" {
		t.Fatalf("%+v", st.Joins)
	}
}

func TestParseLeftJoin(t *testing.T) {
	st := mustParse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.x").(*Select)
	if st.Joins[0].Kind != "LEFT" {
		t.Fatalf("%+v", st.Joins[0])
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	st := mustParse(t, "SELECT s.a FROM (SELECT a FROM t) AS s").(*Select)
	if st.From.Subquery == nil || st.From.Alias != "s" {
		t.Fatalf("%+v", st.From)
	}
	if _, err := Parse("SELECT a FROM (SELECT a FROM t)"); err == nil {
		t.Error("FROM subquery without alias must error")
	}
}

func TestParseIsolationRewriteShape(t *testing.T) {
	// The exact query shape from §VI-A of the paper.
	st := mustParse(t, "SELECT * FROM R WHERE tid NOT IN (SELECT tid FROM Rdelta WHERE pid = 3)").(*Select)
	in := st.Where.(*InExpr)
	if !in.Not || in.Query == nil {
		t.Fatalf("%+v", in)
	}
}

func TestParsePredicates(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND c LIKE 'x%' AND d NOT LIKE '_y' AND e BETWEEN 1 AND 10 AND f NOT BETWEEN 2 AND 3 AND g IN (1, 2, 3) AND h NOT IN (4)").(*Select)
	// Just check that it parses into a conjunction tree with all predicate types.
	found := map[string]bool{}
	WalkExpr(&st.Where, func(p *Expr) bool {
		switch x := (*p).(type) {
		case *IsNull:
			if x.Not {
				found["isnotnull"] = true
			} else {
				found["isnull"] = true
			}
		case *Like:
			if x.Not {
				found["notlike"] = true
			} else {
				found["like"] = true
			}
		case *Between:
			if x.Not {
				found["notbetween"] = true
			} else {
				found["between"] = true
			}
		case *InExpr:
			if x.Not {
				found["notin"] = true
			} else {
				found["in"] = true
			}
		}
		return true
	})
	for _, k := range []string{"isnull", "isnotnull", "like", "notlike", "between", "notbetween", "in", "notin"} {
		if !found[k] {
			t.Errorf("missing predicate %s", k)
		}
	}
}

func TestParseCase(t *testing.T) {
	st := mustParse(t, "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t").(*Select)
	ce := st.Items[0].Expr.(*CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil || ce.Operand != nil {
		t.Fatalf("%+v", ce)
	}
	st2 := mustParse(t, "SELECT CASE a WHEN 1 THEN 'one' END FROM t").(*Select)
	ce2 := st2.Items[0].Expr.(*CaseExpr)
	if ce2.Operand == nil {
		t.Fatalf("%+v", ce2)
	}
}

func TestParsePrecedence(t *testing.T) {
	st := mustParse(t, "SELECT 1 + 2 * 3").(*Select)
	b := st.Items[0].Expr.(*Binary)
	if b.Op != "+" {
		t.Fatalf("top op: %s", b.Op)
	}
	if inner := b.R.(*Binary); inner.Op != "*" {
		t.Fatalf("inner op: %s", inner.Op)
	}
	st = mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*Select)
	or := st.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("OR should be top: %s", or.Op)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE NOT a = 1 AND b = 2").(*Select)
	and := st.Where.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("AND should be top over NOT: %s", and.Op)
	}
	if _, ok := and.L.(*Unary); !ok {
		t.Fatalf("left should be NOT: %T", and.L)
	}
}

func TestParseStarVariants(t *testing.T) {
	st := mustParse(t, "SELECT *, t.*, t.a FROM t").(*Select)
	if !st.Items[0].Star || st.Items[0].Table != "" {
		t.Error("bare star")
	}
	if !st.Items[1].Star || st.Items[1].Table != "t" {
		t.Error("qualified star")
	}
	cr := st.Items[2].Expr.(*ColumnRef)
	if cr.Table != "t" || cr.Column != "a" {
		t.Error("qualified column")
	}
}

func TestParseViewTriggerIndex(t *testing.T) {
	v := mustParse(t, "CREATE MATERIALIZED VIEW mv AS SELECT a, COUNT(*) FROM t GROUP BY a").(*CreateView)
	if !v.Materialized || v.Name != "mv" {
		t.Fatalf("%+v", v)
	}
	tr := mustParse(t, "CREATE TRIGGER trg AFTER INSERT ON t CALL 'myhandler'").(*CreateTrigger)
	if tr.Event != "INSERT" || tr.Handler != "myhandler" {
		t.Fatalf("%+v", tr)
	}
	ix := mustParse(t, "CREATE UNIQUE INDEX i ON t (a, b)").(*CreateIndex)
	if !ix.Unique || ix.IfNotExists || len(ix.Columns) != 2 {
		t.Fatalf("%+v", ix)
	}
	ix = mustParse(t, "CREATE INDEX IF NOT EXISTS i ON t (a)").(*CreateIndex)
	if ix.Unique || !ix.IfNotExists || ix.Name != "i" || ix.Table != "t" {
		t.Fatalf("%+v", ix)
	}
	if _, err := Parse("CREATE INDEX IF EXISTS i ON t (a)"); err == nil {
		t.Fatal("IF EXISTS on CREATE INDEX parsed")
	}
}

func TestParseTxn(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseScript(t *testing.T) {
	sts, err := ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil || len(sts) != 3 {
		t.Fatalf("%v, %v", sts, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"INSERT INTO t VALUES (1",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a FROB)",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t WHERE a NOT 5",
		"SELECT * FROM t extra garbage ,",
		"CASE WHEN",
		"SELECT CASE END",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("x > 3 AND y = 'done'")
	if err != nil {
		t.Fatal(err)
	}
	if b := e.(*Binary); b.Op != "AND" {
		t.Fatalf("%+v", b)
	}
	if _, err := ParseExpr("x +"); err == nil {
		t.Error("bad expr must fail")
	}
}

func TestHasAggregate(t *testing.T) {
	e, _ := ParseExpr("1 + COUNT(*)")
	if !HasAggregate(&e) {
		t.Error("COUNT(*) is an aggregate")
	}
	e, _ = ParseExpr("UPPER(name)")
	if HasAggregate(&e) {
		t.Error("UPPER is not an aggregate")
	}
	e, _ = ParseExpr("SUM(x) / COUNT(x)")
	if !HasAggregate(&e) {
		t.Error("SUM is an aggregate")
	}
}

// Round-trip: parse → print → parse must yield an identical printed form.
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * FROM t",
		"SELECT a, b AS x FROM t WHERE (a = 1 AND b > 2.5) ORDER BY a DESC LIMIT 3",
		"SELECT COUNT(*), SUM(v) FROM t GROUP BY k HAVING COUNT(*) > 1",
		"SELECT * FROM r, s WHERE r.a = s.a",
		"SELECT u.name FROM users AS u JOIN orders AS o ON u.id = o.uid",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x",
		"SELECT * FROM t WHERE tid NOT IN (SELECT tid FROM d WHERE pid = 3)",
		"SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END FROM t",
		"SELECT * FROM t WHERE name LIKE 'x%' AND v BETWEEN 1 AND 5",
		"INSERT INTO t (a, b) VALUES (1, 'x''y')",
		"UPDATE t SET a = a + 1 WHERE b IS NOT NULL",
		"DELETE FROM t WHERE a IN (1, 2)",
		"CREATE TABLE t (a INT PRIMARY KEY, b STRING)",
		"CREATE INDEX i ON t (a, b)",
		"CREATE UNIQUE INDEX IF NOT EXISTS i ON t (a)",
		"CREATE MATERIALIZED VIEW v AS SELECT a FROM t",
		"CREATE TRIGGER g AFTER DELETE ON t CALL 'h'",
		"SELECT (SELECT COUNT(*) FROM u) AS total FROM t",
		"SELECT s.a FROM (SELECT a FROM t) AS s",
		"EXPLAIN SELECT * FROM t WHERE a = 1",
		"EXPLAIN UPDATE t SET a = 2 WHERE b IN (1, 2)",
		"EXPLAIN DELETE FROM t WHERE a = ?",
	}
	for _, src := range srcs {
		st1, err := Parse(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		printed := st1.String()
		st2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse %q (printed from %q): %v", printed, src, err)
			continue
		}
		if st2.String() != printed {
			t.Errorf("fixed point failed:\n  src:   %q\n  once:  %q\n  twice: %q", src, printed, st2.String())
		}
	}
}

// Property: randomly generated expressions survive print→parse→print.
func TestRandomExprRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return &Literal{Value: types.NewInt(int64(rng.Intn(100)))}
			case 1:
				return &Literal{Value: types.NewFloat(float64(rng.Intn(100)) + 0.5)}
			case 2:
				return &Literal{Value: types.NewString(strings.Repeat("a", rng.Intn(3)+1))}
			default:
				return &ColumnRef{Column: string(rune('a' + rng.Intn(26)))}
			}
		}
		switch rng.Intn(6) {
		case 0:
			return &Binary{Op: []string{"+", "-", "*", "=", "<", "AND", "OR"}[rng.Intn(7)], L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return &Unary{Op: "NOT", X: gen(depth - 1)}
		case 2:
			return &IsNull{X: gen(depth - 1), Not: rng.Intn(2) == 0}
		case 3:
			return &FuncCall{Name: "ABS", Args: []Expr{gen(depth - 1)}}
		case 4:
			return &InExpr{X: gen(depth - 1), List: []Expr{gen(0), gen(0)}, Not: rng.Intn(2) == 0}
		default:
			return gen(0)
		}
	}
	for i := 0; i < 200; i++ {
		e := gen(3)
		printed := e.String()
		re, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("iteration %d: cannot reparse %q: %v", i, printed, err)
		}
		if re.String() != printed {
			t.Fatalf("iteration %d: %q != %q", i, re.String(), printed)
		}
	}
}

func TestParseDropViewAndExists(t *testing.T) {
	dv := mustParse(t, "DROP VIEW IF EXISTS mv").(*DropView)
	if dv.Name != "mv" || !dv.IfExists {
		t.Fatalf("%+v", dv)
	}
	dv2 := mustParse(t, "DROP VIEW mv").(*DropView)
	if dv2.IfExists {
		t.Fatalf("%+v", dv2)
	}
	st := mustParse(t, "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)").(*Select)
	ex := st.Where.(*Exists)
	if ex.Not || ex.Query == nil {
		t.Fatalf("%+v", ex)
	}
	st = mustParse(t, "SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)").(*Select)
	if _, ok := st.Where.(*Unary); !ok {
		t.Fatalf("NOT EXISTS should parse as NOT over EXISTS: %T", st.Where)
	}
	// Round-trip fixed point.
	for _, src := range []string{
		"SELECT * FROM t WHERE EXISTS (SELECT a FROM u)",
		"DROP VIEW IF EXISTS mv",
	} {
		printed := mustParse(t, src).String()
		if again := mustParse(t, printed).String(); again != printed {
			t.Fatalf("fixed point: %q vs %q", printed, again)
		}
	}
	if _, err := Parse("DROP NOTHING x"); err == nil {
		t.Fatal("bad DROP must fail")
	}
	if _, err := Parse("SELECT EXISTS x"); err == nil {
		t.Fatal("EXISTS without subquery must fail")
	}
}

// Columns named like non-reserved keywords (the paper's schemas use
// "key"-style names) parse through the identifier allowlist.
func TestKeywordishColumnNames(t *testing.T) {
	st := mustParse(t, "CREATE TABLE kv (key STRING PRIMARY KEY, count INT)").(*CreateTable)
	if st.Columns[0].Name != "key" || st.Columns[1].Name != "count" {
		t.Fatalf("%+v", st.Columns)
	}
	sel := mustParse(t, "SELECT key, count FROM kv WHERE key = 'x'").(*Select)
	if len(sel.Items) != 2 {
		t.Fatalf("%+v", sel.Items)
	}
	up := mustParse(t, "UPDATE kv SET count = count + 1 WHERE key = 'x'").(*Update)
	if up.Set[0].Column != "count" {
		t.Fatalf("%+v", up)
	}
}

func TestParseExplain(t *testing.T) {
	st := mustParse(t, "EXPLAIN SELECT a FROM t WHERE a = 1")
	ex, ok := st.(*Explain)
	if !ok {
		t.Fatalf("got %T, want *Explain", st)
	}
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Fatalf("inner statement %T, want *Select", ex.Stmt)
	}
	if _, err := Parse("EXPLAIN INSERT INTO t (a) VALUES (1)"); err == nil {
		t.Error("EXPLAIN INSERT should be rejected")
	}
	if _, err := Parse("EXPLAIN"); err == nil {
		t.Error("bare EXPLAIN should be rejected")
	}
}
