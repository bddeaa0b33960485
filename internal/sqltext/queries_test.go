package sqltext

import (
	"reflect"
	"testing"

	"ediflow/internal/types"
)

// queriesFixtures name a SELECT in every place a statement can hold one.
var queriesFixtures = []string{
	"SELECT a FROM t",
	"SELECT (SELECT MAX(b) FROM u), a FROM t AS x WHERE a IN (SELECT c FROM v) GROUP BY a HAVING EXISTS (SELECT 1 FROM w) ORDER BY (SELECT 2) LIMIT (SELECT 3) OFFSET (SELECT 4)",
	"SELECT * FROM t JOIN u ON t.a = u.a AND t.a IN (SELECT k FROM s) LEFT JOIN (SELECT a FROM v) AS q ON q.a = t.a, w",
	"SELECT a FROM (SELECT a FROM (SELECT a FROM t) AS p WHERE a NOT IN (SELECT a FROM u)) AS q",
	"SELECT CASE WHEN EXISTS (SELECT 1 FROM t) THEN (SELECT 1) ELSE 0 END, abs((SELECT 2)) BETWEEN (SELECT 1) AND 3",
	"INSERT INTO t (a, b) VALUES ((SELECT MAX(a) FROM t), 1), (2, (SELECT 3))",
	"INSERT INTO t SELECT a FROM u WHERE a IN (SELECT a FROM v)",
	"UPDATE t SET a = (SELECT MAX(a) FROM u), b = 1 WHERE c IN (SELECT c FROM v)",
	"DELETE FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
	"CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a IN (SELECT a FROM u)",
	"EXPLAIN SELECT a FROM t WHERE a = (SELECT 1)",
	"SELECT a FROM t AS OF (SELECT 1)",
}

// selectKeywords counts the SELECT keywords of a text.
func selectKeywords(t *testing.T, src string) int {
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	n := 0
	for _, tok := range toks {
		if tok.Kind == TokKeyword && tok.Text == "SELECT" {
			n++
		}
	}
	return n
}

// checkQueries checks that Queries visits each SELECT of st once, inner
// queries first, and that st edited in place the ways the workflow
// layer edits it prints and re-parses to the edited tree.
func checkQueries(t *testing.T, st Statement) {
	printed := st.String()
	seen := map[*Select]bool{}
	Queries(st, func(s *Select) {
		if seen[s] {
			t.Fatalf("%s: a query visited twice", printed)
		}
		Queries(s, func(inner *Select) {
			if inner != s && !seen[inner] {
				t.Fatalf("%s: %s visited before its inner query %s", printed, s, inner)
			}
		})
		seen[s] = true
	})
	if want := selectKeywords(t, printed); len(seen) != want {
		t.Fatalf("%s: Queries visited %d queries, the text holds %d", printed, len(seen), want)
	}

	// A printed tree re-parses to itself; only then can an edit of it be
	// checked the same way.
	if again, err := Parse(printed); err != nil || !reflect.DeepEqual(again, st) {
		t.Fatalf("%s does not re-parse to its own tree (%v)", printed, err)
	}
	for name, edit := range map[string]func(Statement){"renamed": renameLike, "restricted": restrictLike} {
		edited, _ := Parse(printed)
		edit(edited)
		out := edited.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("%s %s as %s: %v", name, printed, out, err)
		}
		if !reflect.DeepEqual(again, edited) {
			t.Fatalf("%s %s as %s re-parses to %s", name, printed, out, again)
		}
	}
}

// renameLike renames every base table the way temporary relations are
// renamed, keeping the written name as the alias.
func renameLike(st Statement) {
	rename := func(tr *TableRef) {
		if tr.Subquery == nil {
			if tr.Alias == "" {
				tr.Alias = tr.Table
			}
			tr.Table = "tmp_1_" + tr.Table
		}
	}
	Queries(st, func(s *Select) {
		if s.From != nil {
			rename(s.From)
		}
		for i := range s.Joins {
			rename(&s.Joins[i].Right)
		}
	})
}

// restrictLike adds to each base table the two predicates of a §VI-A
// restriction, in WHERE or, for a LEFT JOIN's right side, in its ON.
func restrictLike(st Statement) {
	preds := func(tr *TableRef) []Expr {
		if tr.Subquery != nil {
			return nil
		}
		qual := tr.Alias
		if qual == "" {
			qual = tr.Table
		}
		one := &Literal{Value: types.NewInt(1)}
		return []Expr{
			&Binary{Op: "<=", L: &ColumnRef{Table: qual, Column: "_created"}, R: one},
			&InExpr{X: &ColumnRef{Table: qual, Column: "_tid"}, Not: true, Query: &Select{
				Items: []SelectItem{{Expr: &ColumnRef{Column: "tid"}}},
				From:  &TableRef{Table: "ef_del_" + tr.Table},
				Where: &Binary{Op: "=", L: &ColumnRef{Column: "pid"}, R: &Literal{Value: types.NewInt(1)}},
			}},
		}
	}
	and := func(p *Expr, cs []Expr) {
		for _, c := range cs {
			if *p == nil {
				*p = c
			} else {
				*p = &Binary{Op: "AND", L: *p, R: c}
			}
		}
	}
	Queries(st, func(s *Select) {
		if s.From != nil {
			and(&s.Where, preds(s.From))
		}
		for i := range s.Joins {
			if j := &s.Joins[i]; j.Kind == "LEFT" {
				and(&j.On, preds(&j.Right))
			} else {
				and(&s.Where, preds(&j.Right))
			}
		}
	})
}

func TestQueriesReachEverySelect(t *testing.T) {
	for _, src := range queriesFixtures {
		st := mustParse(t, src)
		// Each fixture round-trips, so checkQueries edits it too.
		if again := mustParse(t, st.String()); !reflect.DeepEqual(again, st) {
			t.Fatalf("%s does not re-parse to its tree", src)
		}
		checkQueries(t, st)
	}
}

func TestWalkExprReplacesInPlace(t *testing.T) {
	st := mustParse(t, "SELECT n, n + 1, f(n, m), (SELECT n FROM t) FROM u").(*Select)
	for i := range st.Items {
		WalkExpr(&st.Items[i].Expr, func(p *Expr) bool {
			if c, ok := (*p).(*ColumnRef); ok && c.Column == "n" {
				*p = &Literal{Value: types.NewInt(7)}
			}
			return true
		})
	}
	if got, want := st.String(), "SELECT 7, (7 + 1), F(7, m), (SELECT n FROM t) FROM u"; got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// FuzzQueries: for every text that parses, Queries visits each SELECT
// once, and the tree renamed or restricted in place prints and re-parses
// to itself.
func FuzzQueries(f *testing.F) {
	for _, s := range queriesFixtures {
		f.Add(s)
	}
	f.Add("SELECT 0.") // an integral FLOAT once printed as the INT 0
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Parse(st.String()); err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, st.String(), err)
		}
		checkQueries(t, st)
	})
}

// TestPrintedTextParses: a tree prints to text that parses back to it —
// identifiers the lexer would not read back bare are quoted, and a
// function name keeps every byte it lexed with. The first two inputs
// are FuzzQueries finds.
func TestPrintedTextParses(t *testing.T) {
	for _, src := range []string{
		`SELECT "!"`,
		"DELETE FROM A WHERE A00\xff\xff0(SELEC)",
		`SELECT "select", t."from" FROM "order" AS t WHERE "key" = 1`,
		`INSERT INTO "a b" ("c-d", "VALUES") VALUES (1, 2)`,
		`UPDATE "set" SET "where" = "select"(1)`,
		`CREATE INDEX "index" ON "t t" ("x y")`,
		`SELECT COUNT(*), count(x), "count"(x) FROM t`,
	} {
		st := mustParse(t, src)
		printed := st.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q: %v", src, printed, err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("%q prints as %q, which parses to %s", src, printed, again)
		}
	}
}
