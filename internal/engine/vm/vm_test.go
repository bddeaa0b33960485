package vm

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// testEnv resolves single-letter int columns a=0, b=1, s=2 (string),
// knows one function DOUBLE, and has no aggregate context.
func testEnv() *Env {
	cols := map[string]int{"a": 0, "b": 1, "s": 2}
	return &Env{
		Resolve: func(cr *sqltext.ColumnRef) (int, error) {
			if i, ok := cols[cr.Column]; ok && cr.Table == "" {
				return i, nil
			}
			return 0, fmt.Errorf("unknown column %s", cr.Column)
		},
		Agg: func(fc *sqltext.FuncCall) (int, error) {
			return 0, fmt.Errorf("aggregate %s outside GROUP BY context", fc.Name)
		},
		Func: func(name string) ScalarFunc {
			if name == "DOUBLE" {
				return func(args []types.Value) (types.Value, error) {
					n, err := args[0].AsInt()
					if err != nil {
						return types.Null, err
					}
					return types.NewInt(2 * n), nil
				}
			}
			return func([]types.Value) (types.Value, error) {
				return types.Null, fmt.Errorf("unknown function %s", name)
			}
		},
		MissingParam: func(idx int) error { return errMissing },
	}
}

var errMissing = &missingErr{}

type missingErr struct{}

func (*missingErr) Error() string { return "missing param" }

func compileExprSQL(t *testing.T, src string) *Program {
	t.Helper()
	return Compile(parseExpr(t, src), testEnv())
}

func makeBatch(rows []types.Row) *Batch {
	b := NewBatch([]types.Kind{types.KindInt, types.KindInt, types.KindString}, []int{0, 1, 2})
	for _, r := range rows {
		b.Append(r)
	}
	return b
}

func row(a, b int64, s string) types.Row {
	return types.Row{types.NewInt(a), types.NewInt(b), types.NewString(s)}
}

func TestCompileAndEvalArithmetic(t *testing.T) {
	p := compileExprSQL(t, "a * 3 + b")
	m := NewMachine(p)
	m.Bind(nil, nil)
	batch := makeBatch([]types.Row{row(1, 10, "x"), row(2, 20, "y"), row(-1, 5, "z")})
	v := m.Eval(batch)
	want := []int64{13, 26, 2}
	for i, w := range want {
		if err := v.Err(i); err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		got := v.Value(i)
		if got.Kind() != types.KindInt || got.Int() != w {
			t.Fatalf("lane %d: got %v want %d", i, got, w)
		}
	}
}

func TestFilterSelectionVector(t *testing.T) {
	p := compileExprSQL(t, "a % 2 = 0")
	m := NewMachine(p)
	m.Bind(nil, nil)
	batch := makeBatch([]types.Row{row(0, 0, ""), row(1, 0, ""), row(2, 0, ""), row(3, 0, ""), row(4, 0, "")})
	sel, err := m.Filter(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4}
	if len(sel) != len(want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v, want %v", sel, want)
		}
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	// NULL-aware AND/OR: (a > 1) with a NULL lane stays NULL; OR TRUE wins.
	p := compileExprSQL(t, "a > 1 OR b = 0")
	m := NewMachine(p)
	m.Bind(nil, nil)
	batch := makeBatch([]types.Row{
		{types.Null, types.NewInt(0), types.NewString("")}, // NULL OR TRUE = TRUE
		{types.Null, types.NewInt(9), types.NewString("")}, // NULL OR FALSE = NULL
	})
	v := m.Eval(batch)
	if v.isNull(0) || !mustBool(t, v.Value(0)) {
		t.Fatalf("lane 0: want TRUE, got %v", v.Value(0))
	}
	if !v.isNull(1) {
		t.Fatalf("lane 1: want NULL, got %v", v.Value(1))
	}
}

func mustBool(t *testing.T, v types.Value) bool {
	t.Helper()
	b, err := v.AsBool()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLaneErrorsAreHeldPerLane(t *testing.T) {
	// Division by zero errors only the lane that divides by zero.
	p := compileExprSQL(t, "a / b")
	m := NewMachine(p)
	m.Bind(nil, nil)
	batch := makeBatch([]types.Row{row(10, 2, ""), row(10, 0, ""), row(9, 3, "")})
	v := m.Eval(batch)
	if err := v.Err(0); err != nil {
		t.Fatalf("lane 0: %v", err)
	}
	if err := v.Err(1); err == nil {
		t.Fatal("lane 1: want division-by-zero error")
	}
	if err := v.Err(2); err != nil {
		t.Fatalf("lane 2: %v", err)
	}
	if v.Value(0).Int() != 5 || v.Value(2).Int() != 3 {
		t.Fatalf("good lanes wrong: %v %v", v.Value(0), v.Value(2))
	}
}

func TestFunctionCall(t *testing.T) {
	p := compileExprSQL(t, "DOUBLE(a) + 1")
	m := NewMachine(p)
	m.Bind(nil, nil)
	batch := makeBatch([]types.Row{row(3, 0, ""), row(7, 0, "")})
	v := m.Eval(batch)
	if v.Value(0).Int() != 7 || v.Value(1).Int() != 15 {
		t.Fatalf("got %v %v", v.Value(0), v.Value(1))
	}
}

func TestParamsAndInList(t *testing.T) {
	p := compileExprSQL(t, "a IN (?, ?, 5)")
	m := NewMachine(p)
	m.Bind([]types.Value{types.NewInt(1), types.NewInt(3)}, nil)
	batch := makeBatch([]types.Row{row(1, 0, ""), row(2, 0, ""), row(5, 0, "")})
	sel, err := m.Filter(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("sel = %v", sel)
	}
}

// totalRows is the three-row batch the totality tests evaluate over: an
// int, a NULL and a value past 100 in column a; b is always 0.
var totalRows = []types.Row{row(1, 0, "x"), {types.Null, types.NewInt(0), types.NewString("y")}, row(200, 0, "z")}

// evalLanes renders every lane of m's result over rows, value or error,
// joined by " | ".
func evalLanes(m *Machine, rows []types.Row) string {
	v := m.Eval(makeBatch(rows))
	out := make([]string, v.Len())
	for i := range out {
		if err := v.Err(i); err != nil {
			out[i] = "error: " + err.Error()
		} else {
			out[i] = v.Value(i).String()
		}
	}
	return strings.Join(out, " | ")
}

// TestCompileIsTotal: every shape compiles — the ones that cannot
// evaluate into lanes holding the error evaluation raises, where it
// raises it.
func TestCompileIsTotal(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		// Unresolvable names and misplaced aggregates hold their error per
		// lane; AND/CASE/COALESCE mask it exactly where evaluation would
		// never reach it.
		{"nosuch + 1", "error: unknown column nosuch | error: unknown column nosuch | error: unknown column nosuch"},
		{"a > 100 AND nosuch = 1", "false | error: unknown column nosuch | error: unknown column nosuch"},
		{"CASE WHEN a > 100 THEN NOSUCH(a) ELSE 0 END", "0 | 0 | error: unknown function NOSUCH"},
		{"COALESCE(a, MAX(a))", "1 | error: aggregate MAX outside GROUP BY context | 200"},
		// An unknown function evaluates its arguments first.
		{"NOSUCH(a / b)", "error: types: division by zero | error: unknown function NOSUCH | error: types: division by zero"},
		// DISTINCT means nothing to a scalar function.
		{"DOUBLE(DISTINCT 21)", "42 | 42 | 42"},
	} {
		m := NewMachine(compileExprSQL(t, c.src))
		m.Bind(nil, nil)
		if got := evalLanes(m, totalRows); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.src, got, c.want)
		}
	}
}

// TestSubqueryInstruction: a subquery compiles to one instruction that
// runs its subquery once per Bind, on first use, and holds the
// subquery's errors per lane.
func TestSubqueryInstruction(t *testing.T) {
	runs := 0
	subRows := func(res ...types.Row) SubqueryFunc {
		return func(*sqltext.Select) ([]types.Row, error) { runs++; return res, nil }
	}
	failing := func(*sqltext.Select) ([]types.Row, error) { runs++; return nil, errMissing }
	for _, c := range []struct {
		src  string
		sub  SubqueryFunc
		want string
	}{
		// IN by key with NULL semantics, EXISTS, scalar.
		{"a IN (SELECT a FROM t)", subRows(types.Row{types.NewFloat(1)}, types.Row{types.Null}), "true | NULL | NULL"},
		{"a NOT IN (SELECT a FROM t)", subRows(types.Row{types.NewInt(7)}), "true | NULL | true"},
		{"NOT EXISTS (SELECT a FROM t)", subRows(), "true | true | true"},
		{"(SELECT a FROM t) + a", subRows(types.Row{types.NewInt(5)}), "6 | NULL | 205"},
		{"(SELECT a FROM t) + a", subRows(), "NULL | NULL | NULL"},
		{"(SELECT a FROM t)", subRows(types.Row{types.NewInt(5)}, types.Row{types.NewInt(6)}),
			"error: engine: scalar subquery returned 2 rows | error: engine: scalar subquery returned 2 rows | error: engine: scalar subquery returned 2 rows"},
		{"a IN (SELECT a, b FROM t)", subRows(types.Row{types.NewInt(1), types.NewInt(2)}),
			"error: engine: IN subquery must return one column | NULL | error: engine: IN subquery must return one column"},
		{"a > 100 AND a IN (SELECT a FROM t)", failing, "false | NULL | error: missing param"},
	} {
		runs = 0
		m := NewMachine(compileExprSQL(t, c.src))
		m.Bind(nil, c.sub)
		if got := evalLanes(m, totalRows); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.src, got, c.want)
		}
		if evalLanes(m, totalRows) != c.want || runs != 1 {
			t.Errorf("%s: second batch differs or the subquery ran %d times, want once", c.src, runs)
		}
		m.Bind(nil, c.sub)
		if evalLanes(m, totalRows); runs != 2 {
			t.Errorf("%s: a rebound machine kept the subquery's outcome (%d runs)", c.src, runs)
		}
	}
	// An IN whose operand lanes are all NULL never runs its subquery.
	runs = 0
	m := NewMachine(compileExprSQL(t, "a IN (SELECT a FROM t)"))
	m.Bind(nil, failing)
	if got := evalLanes(m, totalRows[1:2]); got != "NULL" || runs != 0 {
		t.Errorf("NULL IN (subquery): %s after %d runs, want NULL after none", got, runs)
	}
}

func TestBatchKindPromotion(t *testing.T) {
	// A column declared INT that receives a string promotes to boxed lanes
	// without losing already-filled values.
	b := NewBatch([]types.Kind{types.KindInt}, []int{0})
	b.Append(types.Row{types.NewInt(1)})
	b.Append(types.Row{types.NewInt(2)})
	b.Append(types.Row{types.NewString("x")})
	v := b.Col(0)
	if v.Value(0).Int() != 1 || v.Value(1).Int() != 2 {
		t.Fatalf("promotion lost lanes: %v %v", v.Value(0), v.Value(1))
	}
	if v.Value(2).AsString() != "x" {
		t.Fatalf("promoted lane wrong: %v", v.Value(2))
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"", "%", true},
		{"", "_", false},
		{"abcabc", "%abc", true},
		{"naïve", "na_ve", true}, // rune-wise, not byte-wise
		{"a%b", "a%b", true},
		// '%' in the pattern is a wildcard even when the subject holds a
		// literal '%' at that position.
		{"a%b_c", "a%", true},
		{"%abc", "%abc", true},
		{"x%abc", "%abc", true},
		{"a%", "a%", true},
		{"a%x", "a%", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.pat); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestBatchBoundaryFill(t *testing.T) {
	// Exercise sizes around the batch constant via repeated Append/Reset.
	sizes := []int{0, 1, BatchSize - 1, BatchSize}
	for _, n := range sizes {
		b := NewBatch([]types.Kind{types.KindInt}, []int{0})
		for i := 0; i < n; i++ {
			b.Append(types.Row{types.NewInt(int64(i))})
		}
		if b.Len() != n {
			t.Fatalf("size %d: Len = %d", n, b.Len())
		}
		v := b.Col(0)
		for i := 0; i < n; i++ {
			if v.Value(i).Int() != int64(i) {
				t.Fatalf("size %d lane %d: %v", n, i, v.Value(i))
			}
		}
		b.Reset()
		if b.Len() != 0 {
			t.Fatalf("Reset left %d rows", b.Len())
		}
	}
}

// TestClassifyLike: the compile-time LIKE shape classifier must only
// specialize patterns whose byte-wise kernel is provably equivalent to
// the rune-wise matcher — no '_', at most the one anchoring '%', and a
// needle that is valid UTF-8 free of U+FFFD (an invalid byte sequence
// in the subject decodes to U+FFFD rune-wise and could falsely match a
// literal U+FFFD needle byte-wise).
func TestClassifyLike(t *testing.T) {
	cases := []struct {
		pat    string
		shape  int
		needle string
		ok     bool
	}{
		{"abc", likeExact, "abc", true},
		{"", likeExact, "", true},
		{"abc%", likePrefix, "abc", true},
		{"%abc", likeSuffix, "abc", true},
		{"%abc%", likeContains, "abc", true},
		{"%", likePrefix, "", true},
		{"a_c", 0, "", false},  // '_' needs the generic matcher
		{"a%c", 0, "", false},  // interior '%'
		{"%a%c", 0, "", false}, // two-run pattern
		{"a%b%", 0, "", false}, // interior plus trailing
		{"naï%", likePrefix, "naï", true},
		{"�x%", 0, "", false},   // literal U+FFFD needle: stay generic
		{"\xff%", 0, "", false}, // invalid UTF-8 needle: stay generic
	}
	for _, c := range cases {
		shape, needle, ok := classifyLike(c.pat)
		if ok != c.ok || (ok && (shape != c.shape || needle != c.needle)) {
			t.Errorf("classifyLike(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.pat, shape, needle, ok, c.shape, c.needle, c.ok)
		}
	}
}

// TestLikeSpecializedVsGeneric cross-checks every specialized kernel
// shape against the shared rune-wise matcher over subjects that include
// empty strings, metacharacters, multi-byte runes and invalid UTF-8.
func TestLikeSpecializedVsGeneric(t *testing.T) {
	subjects := []string{"", "a", "abc", "abcabc", "xabc", "abcx", "a%b", "%abc", "abc%", "%", "naïve", "naï", "ïve", "\xffabc", "abc\xff", "a�c"}
	pats := []string{"abc", "abc%", "%abc", "%abc%", "naï%", "%ïve", "%a%", "%"}
	for _, pat := range pats {
		shape, needle, ok := classifyLike(pat)
		if !ok {
			continue
		}
		for _, s := range subjects {
			var fast bool
			switch shape {
			case likeExact:
				fast = s == needle
			case likePrefix:
				fast = len(s) >= len(needle) && s[:len(needle)] == needle
			case likeSuffix:
				fast = len(s) >= len(needle) && s[len(s)-len(needle):] == needle
			default:
				fast = strings.Contains(s, needle)
			}
			if want := LikeMatch(s, pat); fast != want {
				t.Errorf("%q LIKE %q: specialized %v, generic %v", s, pat, fast, want)
			}
		}
	}
}
