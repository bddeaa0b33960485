package sqltext

import (
	"reflect"
	"strings"
	"testing"

	"ediflow/internal/types"
)

func TestShapeLifts(t *testing.T) {
	user := types.NewBytes([]byte("user"))
	for _, tc := range []struct {
		src      string
		args     []types.Value
		want     string
		wantArgs []types.Value
	}{
		{"INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, TRUE)", nil,
			"INSERT INTO t (a, b) VALUES (?, ?), (?, ?)",
			[]types.Value{types.NewInt(1), types.NewString("x"), types.Null, types.NewBool(true)}},
		// The caller's '?' keep their values, in placeholder order.
		{"INSERT INTO t VALUES (?, 2.5, ?), (FALSE, ?, 'it''s')", []types.Value{user, user, user},
			"INSERT INTO t VALUES (?, ?, ?), (?, ?, ?)",
			[]types.Value{user, types.NewFloat(2.5), user, types.NewBool(false), user, types.NewString("it's")}},
		// Numbers convert as the parser converts them.
		{"insert into t values (1e3, 9223372036854775808, 7)", nil,
			"insert into t values (?, ?, ?)",
			[]types.Value{types.NewFloat(1000), types.NewFloat(9223372036854775808), types.NewInt(7)}},
		// Only whole elements: -5, 1 + 2, f(3) and (4) stay.
		{"INSERT INTO t VALUES (-5, 1 + 2, f(3), (4), 6)", nil,
			"INSERT INTO t VALUES (-5, 1 + 2, f(3), (4), ?)", []types.Value{types.NewInt(6)}},
		{"DELETE FROM t WHERE id IN (1, 2, 3)", nil,
			"DELETE FROM t WHERE id IN (?, ?, ?)", []types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(3)}},
		{"SELECT *, _tid FROM t WHERE _tid IN (10) AND x NOT IN ('a', ?)", []types.Value{user},
			"SELECT *, _tid FROM t WHERE _tid IN (?) AND x NOT IN (?, ?)", []types.Value{types.NewInt(10), types.NewString("a"), user}},
		// WHERE reaches into parentheses and subqueries, and stops at the
		// clause that ends it.
		{"UPDATE t SET a = 1 WHERE (b IN (2) OR c IN (SELECT d FROM u WHERE e IN (3) GROUP BY d HAVING d IN (4)))", nil,
			"UPDATE t SET a = 1 WHERE (b IN (?) OR c IN (SELECT d FROM u WHERE e IN (?) GROUP BY d HAVING d IN (4)))",
			[]types.Value{types.NewInt(2), types.NewInt(3)}},
		{"INSERT INTO t SELECT a FROM u WHERE b IN (1) ORDER BY 1 LIMIT 5", nil,
			"INSERT INTO t SELECT a FROM u WHERE b IN (?) ORDER BY 1 LIMIT 5", []types.Value{types.NewInt(1)}},
		// INSERT INTO values: a table named like the keyword.
		{"INSERT INTO values (values) VALUES (1)", nil,
			"INSERT INTO values (values) VALUES (?)", []types.Value{types.NewInt(1)}},
		// Each statement of a script is shaped by its own kind.
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); /* x */ SELECT a FROM t WHERE a IN (2)", nil,
			"CREATE TABLE t (a INT); INSERT INTO t VALUES (?); /* x */ SELECT a FROM t WHERE a IN (?)",
			[]types.Value{types.NewInt(1), types.NewInt(2)}},
	} {
		got, gotArgs := Shape(tc.src, tc.args)
		if got != tc.want {
			t.Errorf("Shape(%q)\n got  %q\n want %q", tc.src, got, tc.want)
			continue
		}
		if !reflect.DeepEqual(gotArgs, tc.wantArgs) {
			t.Errorf("Shape(%q) args\n got  %v\n want %v", tc.src, gotArgs, tc.wantArgs)
		}
	}
}

// shapeFixedPoints are texts Shape must return as they are: nothing in
// them sits where a literal and a parameter are interchangeable, or
// shaping them would change what they mean or say.
var shapeFixedPoints = []string{
	"CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(32))",
	"CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a IN (1, 2)",
	"CREATE TRIGGER tr AFTER INSERT ON t CALL 'handler'",
	"EXPLAIN SELECT a FROM t WHERE a IN (1, 2)",
	"EXPLAIN DELETE FROM t WHERE a IN (1, 2)",
	"SELECT a FROM t WHERE s LIKE 'a%'",
	"SELECT a FROM t ORDER BY 1",
	"SELECT a FROM t LIMIT 5 OFFSET 2",
	"SELECT a, 1, 'x', a IN (1, 2) FROM t",
	"SELECT a FROM t WHERE a = 1 AND b = 'x'",
	"SELECT a FROM t GROUP BY a HAVING a IN (1, 2)",
	"SELECT a FROM t JOIN u ON t.a IN (1, 2)",
	"SELECT a FROM t WHERE a IN (-1, 1 + 1, (2), abs(3))",
	"SELECT a FROM t WHERE a IN (1e)",
	"SELECT a FROM t WHERE a IN (SELECT 1 FROM u)",
	"SELECT a FROM t AS OF 5",
	"UPDATE t SET a = 1, b = 'x' WHERE c = 2",
	"INSERT INTO t SELECT 1, 'x' FROM u",
	"BEGIN; COMMIT",
	"SELECT 'unterminated",
}

func TestShapeFixedPoints(t *testing.T) {
	for _, src := range shapeFixedPoints {
		if got, _ := Shape(src, nil); got != src {
			t.Errorf("Shape(%q) = %q, want it unchanged", src, got)
		}
	}
	// A text whose '?' count differs from len(args) is not shaped, so the
	// engine's "missing argument for parameter N" counts the caller's '?'.
	const src = "INSERT INTO t VALUES (?, 1)"
	for _, args := range [][]types.Value{nil, {types.NewInt(1), types.NewInt(2)}} {
		if got, gotArgs := Shape(src, args); got != src || len(gotArgs) != len(args) {
			t.Errorf("Shape(%q) with %d args = %q, %v; want it unchanged", src, len(args), got, gotArgs)
		}
	}
}

func TestShapeAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	for _, tc := range []struct {
		src    string
		allocs float64
	}{
		{"select a from t where s = 'x' and b in (select c from u) order by 1", 0},
		{"INSERT INTO t VALUES (1, 2.5, NULL), (-4, TRUE, 6)", 2},       // text + arguments
		{"DELETE FROM t WHERE s IN ('a', 'b', 'c') AND s = 'd'", 2 + 3}, // + each lifted string
		// An escaped quote costs the lexer an unescaped copy on each pass.
		{"DELETE FROM t WHERE s IN ('it''s') AND s = 'd'", 2 + 1 + 2},
	} {
		if got := testing.AllocsPerRun(100, func() { Shape(tc.src, nil) }); got != tc.allocs {
			t.Errorf("Shape(%q): %v allocations, want %v", tc.src, got, tc.allocs)
		}
	}
}

// TestLexerAllocations: keywords are recognized without building an
// upper-case copy, and a string literal is a slice of the source unless
// it holds an escaped quote; lexing lower-case SQL allocates for nothing
// else.
func TestLexerAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	lex := func(src string) func() {
		return func() {
			lx := Lexer{src: src}
			for {
				tok, err := lx.Next()
				if err != nil || tok.Kind == TokEOF {
					return
				}
			}
		}
	}
	const plain = "select a, count(*) from t join u on t.id = u.id where s = 'abc' and x in (1, 2.5) group by a order by a desc limit 3"
	if got := testing.AllocsPerRun(100, lex(plain)); got != 0 {
		t.Errorf("lexing %q: %v allocations, want 0", plain, got)
	}
	const escaped = "insert into t values ('it''s', 'plain')"
	if got := testing.AllocsPerRun(100, lex(escaped)); got != 1 {
		t.Errorf("lexing %q: %v allocations, want 1", escaped, got)
	}
}

// unshape undoes Shape on a parsed shape: every placeholder that carries a
// lifted value becomes that literal again, and every one that carries a
// caller's argument (a BYTES value, which no literal is) gets back the
// index the caller's text gave it.
func unshape(v reflect.Value, args []types.Value, user map[int]int) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Type() != reflect.TypeOf(&types.Value{}) {
			unshape(v.Elem(), args, user)
		}
	case reflect.Interface:
		if p, ok := v.Interface().(*Param); ok {
			var e Expr = &Literal{Value: args[p.Index]}
			if u, ok := user[p.Index]; ok {
				e = &Param{Index: u}
			}
			v.Set(reflect.ValueOf(e))
		} else if !v.IsNil() {
			unshape(v.Elem(), args, user)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(types.Value{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			unshape(v.Field(i), args, user)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			unshape(v.Index(i), args, user)
		}
	}
}

// FuzzShape: a text and its shape parse alike — both, or neither — and
// when Shape lifted anything, putting the lifted values back as literals
// gives exactly the tree the text as written parses to.
func FuzzShape(f *testing.F) {
	for _, s := range shapeFixedPoints {
		f.Add(s)
	}
	for _, s := range []string{
		"INSERT INTO t (a, b, c) VALUES (1, 'x', NULL), (?, 2.5, TRUE), (-3, 'it''s', 1e3)",
		"INSERT INTO t VALUES (9223372036854775808, 1e, FALSE)",
		"DELETE FROM t WHERE id IN (1, ?, 3) AND s NOT IN ('a', NULL)",
		"SELECT a FROM t WHERE b IN (1, 2) AND c IN (SELECT d FROM u WHERE e IN ('x')) ORDER BY 1 LIMIT 5",
		"UPDATE t SET a = 1 WHERE b IN (1, 2); INSERT INTO t VALUES (3)",
		"SELECT a FROM t WHERE a IN (((1)), 2, 3 + 4, -5, ?)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			if got, _ := Shape(src, nil); got != src {
				t.Fatalf("Shape(%q) shaped text that does not lex: %q", src, got)
			}
			return
		}
		var args []types.Value
		for _, tok := range toks {
			if tok.Kind == TokParam {
				args = append(args, types.NewBytes([]byte{byte(len(args))}))
			}
		}
		shaped, sargs := Shape(src, args)
		want, werr := ParseScript(src)
		got, gerr := ParseScript(shaped)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Shape(%q) = %q: parse error %v as written, %v shaped", src, shaped, werr, gerr)
		}
		if shaped == src {
			if len(sargs) != len(args) {
				t.Fatalf("Shape(%q) kept the text but changed the arguments", src)
			}
			return
		}
		if werr != nil {
			return
		}
		user := map[int]int{}
		for i, a := range sargs {
			if a.Kind() == types.KindBytes {
				user[i] = int(a.Bytes()[0])
			}
		}
		if len(user) != len(args) {
			t.Fatalf("Shape(%q): %d of %d caller arguments kept", src, len(user), len(args))
		}
		unshape(reflect.ValueOf(got), sargs, user)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Shape(%q) = %q\nunshaped %v\nwritten  %v", src, shaped, printScript(got), printScript(want))
		}
	})
}

func printScript(stmts []Statement) string {
	parts := make([]string, len(stmts))
	for i, st := range stmts {
		parts[i] = st.String()
	}
	return strings.Join(parts, "; ")
}
