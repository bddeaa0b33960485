package engine

import (
	"testing"

	"ediflow/internal/types"
)

// ids returns the id column of a result as a set of int64s.
func ids(t *testing.T, res *Result) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for _, r := range res.Rows {
		n, err := r[0].AsInt()
		if err != nil {
			t.Fatal(err)
		}
		out[n] = true
	}
	return out
}

// TestNullThreeValuedFilters checks that NULL comparisons are "unknown"
// rather than false: a row can satisfy neither a predicate nor its
// negation. User dan (id 4) has age NULL.
func TestNullThreeValuedFilters(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)

	cases := []struct {
		where string
		want  []int64
	}{
		// The headline bug: NOT (age = NULL) must not match every row.
		{"NOT (age = NULL)", nil},
		{"age = NULL", nil},
		{"age != NULL", nil},
		{"NOT (age > 26)", []int64{2}},                              // dan's NULL stays excluded under NOT
		{"NOT (age <= 26)", []int64{1, 3, 5}},                       // and from the complement too
		{"age > 26 OR age <= 26", []int64{1, 2, 3, 5}},              // tautology never resurrects NULL
		{"NOT (age BETWEEN 0 AND 200)", nil},                        // BETWEEN is unknown on NULL
		{"NOT (age IN (25, 30))", []int64{3, 5}},                    // IN: dan is unknown, not true
		{"age IN (25, NULL)", []int64{2}},                           // NULL in list can only add matches
		{"NOT (age IN (25, NULL))", nil},                            // ...and poisons the negation entirely
		{"NOT (name LIKE 'a%')", []int64{2, 3, 4, 5}},               // LIKE on non-null behaves
		{"age IS NULL OR age > 100", []int64{4}},                    // IS NULL is two-valued
		{"age = NULL OR city = 'lyon'", []int64{2}},                 // unknown OR true = true
		{"NOT (age = NULL AND city = 'nice')", []int64{1, 2, 3, 5}}, // false AND unknown = false for others; dan unknown
		{"age = NULL AND 1 = 0", nil},                               // unknown AND false = false
	}
	for _, c := range cases {
		res, err := e.Query("SELECT id FROM users WHERE " + c.where)
		if err != nil {
			t.Fatalf("WHERE %s: %v", c.where, err)
		}
		got := ids(t, res)
		if len(got) != len(c.want) {
			t.Errorf("WHERE %s: got ids %v, want %v", c.where, got, c.want)
			continue
		}
		for _, id := range c.want {
			if !got[id] {
				t.Errorf("WHERE %s: missing id %d (got %v)", c.where, id, got)
			}
		}
	}
}

// TestNullThreeValuedScalars checks the scalar values themselves (in the
// projection, where unknown must surface as NULL, not false).
func TestNullThreeValuedScalars(t *testing.T) {
	e := newTestDB(t)

	cases := []struct {
		expr string
		want types.Value
	}{
		{"NULL = 1", types.Null},
		{"NOT (NULL = 1)", types.Null},
		{"NULL != NULL", types.Null},
		{"NULL < 5", types.Null},
		{"1 = 1 AND NULL = 1", types.Null},
		{"1 = 0 AND NULL = 1", types.NewBool(false)},
		{"NULL = 1 AND 1 = 0", types.NewBool(false)},
		{"1 = 1 OR NULL = 1", types.NewBool(true)},
		{"NULL = 1 OR 1 = 1", types.NewBool(true)},
		{"1 = 0 OR NULL = 1", types.Null},
		{"NULL BETWEEN 1 AND 2", types.Null},
		{"2 BETWEEN NULL AND 3", types.Null},
		{"NULL LIKE 'a%'", types.Null},
		{"'abc' LIKE NULL", types.Null},
		{"NULL IN (1, 2)", types.Null},
		{"3 IN (1, NULL)", types.Null},
		{"1 IN (1, NULL)", types.NewBool(true)},
		{"3 NOT IN (1, 2)", types.NewBool(true)},
		{"3 NOT IN (1, NULL)", types.Null},
		{"NULL IS NULL", types.NewBool(true)},
		{"NOT (NULL IS NULL)", types.NewBool(false)},
	}
	for _, c := range cases {
		res, err := e.Query("SELECT " + c.expr)
		if err != nil {
			t.Fatalf("SELECT %s: %v", c.expr, err)
		}
		got := res.Rows[0][0]
		if c.want.IsNull() {
			if !got.IsNull() {
				t.Errorf("SELECT %s = %v, want NULL", c.expr, got)
			}
			continue
		}
		if got.IsNull() {
			t.Errorf("SELECT %s = NULL, want %v", c.expr, c.want)
			continue
		}
		wb, _ := c.want.AsBool()
		gb, err := got.AsBool()
		if err != nil || gb != wb {
			t.Errorf("SELECT %s = %v, want %v", c.expr, got, c.want)
		}
	}
}

// TestNullInSubquery checks 3VL through the IN (SELECT ...) path.
func TestNullInSubquery(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE picks (v INT)")
	mustExec(t, e, "INSERT INTO picks VALUES (25)")
	mustExec(t, e, "INSERT INTO picks VALUES (NULL)")

	// bob (25) matches; everyone else is unknown because of the NULL pick,
	// so NOT IN keeps nobody.
	res := mustExec(t, e, "SELECT id FROM users WHERE age IN (SELECT v FROM picks)")
	if got := ids(t, res); len(got) != 1 || !got[2] {
		t.Fatalf("IN subquery: got %v, want {2}", got)
	}
	res = mustExec(t, e, "SELECT id FROM users WHERE age NOT IN (SELECT v FROM picks)")
	if got := ids(t, res); len(got) != 0 {
		t.Fatalf("NOT IN subquery with NULL: got %v, want none", got)
	}
}
