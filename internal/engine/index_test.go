package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ediflow/internal/types"
)

// TestIntKeysAbove2p53 pins exact INT keys: adjacent integers past 2^53
// (nanosecond timestamps live there) must stay distinct in every keyed
// structure — the PK index, GROUP BY, DISTINCT, IN sets and hash joins.
func TestIntKeysAbove2p53(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE big (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE raw (id INT, v INT)") // unkeyed copy
	for i, id := range []string{"9007199254740992", "9007199254740993"} {
		mustExec(t, e, fmt.Sprintf("INSERT INTO big (id, v) VALUES (%s, %d)", id, i))
		mustExec(t, e, fmt.Sprintf("INSERT INTO raw (id, v) VALUES (%s, %d)", id, i))
	}
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT v FROM big WHERE id = 9007199254740993", 1},
		{"SELECT id, COUNT(*) FROM raw GROUP BY id", 2},
		{"SELECT DISTINCT id FROM raw", 2},
		{"SELECT v FROM raw WHERE id IN (9007199254740993)", 1},
		{"SELECT a.v FROM raw a JOIN raw b ON a.id = b.id", 2},
		{"SELECT a.v FROM raw a JOIN big b ON a.id = b.id", 2},
	} {
		if res := mustExec(t, e, c.sql); len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d: %v", c.sql, len(res.Rows), c.rows, res.Rows)
		}
	}
}

// TestUniqueIndexNullsAreDistinct: SQL treats NULLs as distinct, and a
// column UNIQUE and a CREATE UNIQUE INDEX must agree on that — on insert,
// on update to NULL, on backfill, and for a composite key with one NULL.
func TestUniqueIndexNullsAreDistinct(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, a STRING UNIQUE, b STRING, c INT, d INT)")
	mustExec(t, e, "CREATE UNIQUE INDEX ub ON u (b)")
	mustExec(t, e, "CREATE UNIQUE INDEX ucd ON u (c, d)")
	mustExec(t, e, "INSERT INTO u (id, a, b, c, d) VALUES (1, NULL, NULL, 1, NULL)")
	mustExec(t, e, "INSERT INTO u (id, a, b, c, d) VALUES (2, NULL, NULL, 1, NULL)")
	mustExec(t, e, "INSERT INTO u (id, a, b, c, d) VALUES (3, 'x', 'y', 1, 1)")
	mustExec(t, e, "UPDATE u SET a = NULL, b = NULL, d = NULL WHERE id = 3")
	// Real duplicates are still caught, by each kind of unique index.
	mustExec(t, e, "UPDATE u SET a = 'x', b = 'y', d = 1 WHERE id = 3")
	for sql, want := range map[string]string{
		"INSERT INTO u (id, a) VALUES (4, 'x')":     "duplicate unique value x",
		"INSERT INTO u (id, b) VALUES (4, 'y')":     "unique index ub violated",
		"INSERT INTO u (id, c, d) VALUES (4, 1, 1)": "unique index ucd violated",
		"UPDATE u SET c = 1, d = 1 WHERE id = 1":    "unique index ucd violated",
	} {
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want %q", sql, err, want)
		}
	}
	// A unique index over existing data holding several NULLs builds.
	mustExec(t, e, "CREATE TABLE n (id INT PRIMARY KEY, b STRING)")
	mustExec(t, e, "INSERT INTO n (id, b) VALUES (1, NULL), (2, NULL), (3, 'z')")
	mustExec(t, e, "CREATE UNIQUE INDEX nb ON n (b)")
	if _, err := e.Exec("INSERT INTO n (id, b) VALUES (4, 'z')"); err == nil {
		t.Error("backfilled unique index lost its non-NULL key")
	}
	// NULL keys are not findable through the index either.
	if res := mustExec(t, e, "SELECT id FROM n WHERE b = NULL"); len(res.Rows) != 0 {
		t.Errorf("b = NULL matched %d rows", len(res.Rows))
	}
}

// TestIndexDoesNotChangeOutcome: a key whose kind the column cannot be
// compared with must behave exactly as it does without the index —
// error or not — instead of being coerced into a silent miss.
func TestIndexDoesNotChangeOutcome(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, a STRING UNIQUE, b STRING)")
	mustExec(t, e, "INSERT INTO u (id, a, b) VALUES (1, 'p', 'p'), (2, 'q', 'q')")
	errOf := func(sql string) string {
		if _, err := e.Exec(sql); err != nil {
			return err.Error()
		}
		return ""
	}
	unindexed := errOf("SELECT id FROM u WHERE b = 5")
	if unindexed == "" {
		t.Fatal("STRING = INT on an unindexed column is expected to fail")
	}
	if got := errOf("SELECT id FROM u WHERE a = 5"); got != unindexed {
		t.Errorf("a = 5 (indexed): %q, unindexed twin: %q", got, unindexed)
	}
	// A miss and a hit on the same mismatched predicate agree.
	hit, miss := errOf("SELECT id FROM u WHERE id = '2'"), errOf("SELECT id FROM u WHERE id = '99'")
	if hit == "" || hit != miss {
		t.Errorf("id = '2': %q, id = '99': %q", hit, miss)
	}
	if got := errOf("DELETE FROM u WHERE id = '99'"); got != hit {
		t.Errorf("DELETE WHERE id = '99': %q, want %q", got, hit)
	}
	// INT and FLOAT do compare: exact conversions use the index, a
	// fractional key matches nothing.
	if res := mustExec(t, e, "SELECT a FROM u WHERE id = 2.0"); len(res.Rows) != 1 {
		t.Errorf("id = 2.0: %v", res.Rows)
	}
	if res := mustExec(t, e, "SELECT a FROM u WHERE id = 1.5"); len(res.Rows) != 0 {
		t.Errorf("id = 1.5: %v", res.Rows)
	}
}

// TestIndexRankOrder pins the planner's choice among several usable
// indexes: _tid, then pk, column UNIQUE, and named indexes by most key
// columns then name — whatever order they were created in — with every
// = beating every IN.
func TestIndexRankOrder(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE r (id INT PRIMARY KEY, u STRING UNIQUE, a INT, b STRING)")
	mustExec(t, e, "CREATE INDEX r_z ON r (a)")
	mustExec(t, e, "CREATE INDEX r_ab ON r (a, b)")
	mustExec(t, e, "CREATE INDEX r_a ON r (a)")
	for where, want := range map[string]string{
		"a = 1":                          "index(r_a)",
		"b = 'x' AND a = 1":              "index(r_ab)",
		"a = 1 AND u = 'x'":              "unique-point",
		"u = 'x' AND id = 1":             "pk-point",
		"b = 'x'":                        "full-scan [compiled]",
		"a IN (1, 2) AND b = 'x'":        "index(r_a)",
		"a IN (1, 2) AND u IN ('x')":     "unique-point",
		"id IN (1, 2) AND a = 1":         "index(r_a)",
		"a = 1 AND b IN ('x')":           "index(r_a)",
		"_tid IN (1, 2) AND id IN (1)":   "pk-point",
		"a IN (1) AND b IN ('x')":        "index(r_a)",
		"a IN (SELECT a FROM r)":         "full-scan [compiled]",
		"a NOT IN (1, 2) OR u = 'x'":     "full-scan [compiled]",
		"r.a = 1 AND other.b = 'x'":      "index(r_a)",
		"a = b":                          "full-scan [compiled]",
		"1 = a AND 'x' = b AND u IN (?)": "index(r_ab)",
	} {
		wantLine(t, explainLines(t, e, "SELECT id FROM r WHERE "+where), "scan r: "+want)
	}
}

// ------------------------------------------------ indexed ≡ unindexed twins

// twinTables are the two tables TestTwinTables compares: tk carries one
// index of every origin, tp the same columns and nothing else. A statement
// template names its table as @.
var twinTables = [2]string{"tk", "tp"}

func newTwinDB(t *testing.T) *Engine {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE tk (id INT PRIMARY KEY, u STRING UNIQUE, g INT, a INT, b STRING, w STRING, f FLOAT)")
	mustExec(t, e, "CREATE INDEX tk_g ON tk (g)")
	mustExec(t, e, "CREATE INDEX tk_f ON tk (f)")
	mustExec(t, e, "CREATE INDEX tk_ab ON tk (a, b)")
	mustExec(t, e, "CREATE UNIQUE INDEX tk_w ON tk (w)")
	mustExec(t, e, "CREATE TABLE tp (id INT, u STRING, g INT, a INT, b STRING, w STRING, f FLOAT)")
	mustExec(t, e, "CREATE TABLE tl (x INT, s STRING, y INT, z STRING, fx FLOAT)")
	mustExec(t, e, `INSERT INTO tl (x, s, y, z, fx) VALUES
		(1, 'u1', 1, 'b1', 1.0), (2, 'u2', 2, 'b0', 2.5), (3, NULL, NULL, 'b2', 3.0),
		(NULL, 'u7', 3, NULL, NULL), (99, 'nope', 0, 'w3', 9007199254740992.0),
		(9007199254740993, 'u5', 1, 'b1', 0.5), (5, 'u5', 2, 'w5', 5.0)`)
	return e
}

// renderRows renders result rows by kind and text, sorted unless the
// statement orders them itself.
func renderRows(res *Result, ordered bool) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%s:%s|", v.Kind(), v)
		}
		out[i] = sb.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// twinExec runs the template on both twins (args(table) supplies the
// parameters when they differ per table) and requires the same outcome:
// error text, affected count, and rows as a multiset — as a sequence
// under ORDER BY.
func twinExec(t *testing.T, e *Engine, tmpl string, args func(table string) []types.Value) bool {
	t.Helper()
	var outcome [2]string
	for i, table := range twinTables {
		var a []types.Value
		if args != nil {
			a = args(table)
		}
		res, err := execSQL(t, e, strings.ReplaceAll(tmpl, "@", table), a...)
		if err != nil {
			outcome[i] = "error: " + strings.ReplaceAll(err.Error(), table, "@")
			continue
		}
		outcome[i] = fmt.Sprintf("affected %d rows %q", res.Affected, renderRows(res, strings.Contains(tmpl, "ORDER BY")))
	}
	if outcome[0] != outcome[1] {
		t.Errorf("%s\n  indexed:   %s\n  unindexed: %s", tmpl, outcome[0], outcome[1])
	}
	return outcome[0] == outcome[1]
}

func twinContents(t *testing.T, e *Engine, after string) {
	t.Helper()
	if !twinExec(t, e, "SELECT id, u, g, a, b, w, f FROM @", nil) {
		t.Errorf("  (table contents after %s)", after)
	}
}

// twinLiterals are the key spellings tried against every indexed column:
// present, absent, NULL, each mismatched kind, exact and inexact numeric
// conversions, and integers float64 cannot hold.
var twinLiterals = []string{
	"3", "99", "NULL", "'2'", "'u3'", "'w4'", "5", "1.5", "2.0", "2.5", "TRUE",
	"9007199254740992", "9007199254740993", "9007199254740992.0", "1e300",
}

func literalValue(t *testing.T, e *Engine, lit string) types.Value {
	t.Helper()
	return mustExec(t, e, "SELECT "+lit).Rows[0][0]
}

// TestTwinTables feeds twin tables — one indexed every way, one not at all
// — the same seeded DML stream and then a corpus of keyed statements: an
// index may change how fast a statement runs, never what it does.
func TestTwinTables(t *testing.T) {
	e := newTwinDB(t)
	rng := rand.New(rand.NewSource(18))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	id := func() string {
		if rng.Intn(12) == 0 {
			return pick("9007199254740992", "9007199254740993")
		}
		return fmt.Sprint(rng.Intn(30))
	}
	str := func(p string, n int) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return fmt.Sprintf("'%s%d'", p, rng.Intn(n))
	}
	num := func(n int) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(n))
	}
	flt := func() string { return pick("NULL", "0.5", "1.0", "2.0", "2.5", "3.0", "9007199254740992.0") }

	// The DML stream: only what the keyed twin accepts reaches the plain
	// one. Updates that can violate a constraint touch one row, so a
	// rejected statement leaves nothing behind.
	var asOf int64
	applied := 0
	for step := 0; step < 400; step++ {
		switch step {
		case 150:
			if err := e.Checkpoint(); err != nil { // vacuum rebuilds the index maps
				t.Fatal(err)
			}
		case 250:
			asOf = e.Store().SnapshotSeq()
		}
		var tmpl string
		switch r := rng.Intn(10); {
		case r < 5:
			tmpl = fmt.Sprintf("INSERT INTO @ (id, u, g, a, b, w, f) VALUES (%s, %s, %s, %s, %s, %s, %s)",
				id(), str("u", 40), num(5), num(3), str("b", 3), str("w", 40), flt())
		case r < 8:
			set := pick("id = "+id(), "u = "+str("u", 40), "g = "+num(5), "a = "+num(3)+", b = "+str("b", 3), "w = "+str("w", 40), "f = "+flt())
			tmpl = fmt.Sprintf("UPDATE @ SET %s WHERE id = %s", set, id())
		case r < 9:
			tmpl = "DELETE FROM @ WHERE id = " + id()
		default:
			tmpl = "DELETE FROM @ WHERE g = " + num(5) + " AND a = " + num(3)
		}
		if _, err := execSQL(t, e, strings.ReplaceAll(tmpl, "@", "tk")); err != nil {
			continue
		}
		mustExec(t, e, strings.ReplaceAll(tmpl, "@", "tp"))
		applied++
	}
	if applied < 200 {
		t.Fatalf("stream too thin: %d statements applied", applied)
	}
	twinContents(t, e, "stream")
	// Left rows that do find partners, next to tl's fixed NULL, cross-kind
	// and unmatched ones.
	mustExec(t, e, "INSERT INTO tl (x, s, y, z, fx) SELECT id, u, a, b, f FROM tp WHERE id < 12")
	mustExec(t, e, "INSERT INTO tl (x, s, y, z, fx) SELECT id + 100, u, g, w, id FROM tp WHERE id > 20")

	// SELECT, = and IN, literal and parameter, latest and AS OF.
	for _, col := range []string{"id", "u", "g", "w", "f"} {
		for i, lit := range twinLiterals {
			other := twinLiterals[(i+3)%len(twinLiterals)]
			twinExec(t, e, fmt.Sprintf("SELECT id, u FROM @ WHERE %s = %s", col, lit), nil)
			twinExec(t, e, fmt.Sprintf("SELECT id, w FROM @ WHERE %s IN (%s, %s, %s) ORDER BY id", col, lit, other, lit), nil)
			v, o := literalValue(t, e, lit), literalValue(t, e, other)
			twinExec(t, e, fmt.Sprintf("SELECT id, g FROM @ WHERE %s = ?", col), func(string) []types.Value { return []types.Value{v} })
			twinExec(t, e, fmt.Sprintf("SELECT id FROM @ WHERE %s IN (?, ?, NULL)", col), func(string) []types.Value { return []types.Value{v, o} })
			twinExec(t, e, fmt.Sprintf("SELECT id, u FROM @ WHERE %s = %s AS OF %d", col, lit, asOf), nil)
			twinExec(t, e, fmt.Sprintf("SELECT id FROM @ WHERE %s IN (%s, %s) AS OF %d", col, other, lit, asOf), nil)
		}
	}
	// Composite key: fully bound in either order, partially bound, with
	// NULL and mismatched parts, next to a higher-ranked single column.
	for _, where := range []string{
		"a = 1 AND b = 'b1'", "b = 'b2' AND a = 0", "a = 1", "b = 'b1'", "a = 1 AND b = NULL", "a = NULL AND b = 'b1'",
		"a = '1' AND b = 'b1'", "a = 1.0 AND b = 'b1'", "a = 1.5 AND b = 'b1'", "a = 1 AND b = 1",
		"a = 2 AND b = 'b0' AND g = 1", "a = 1 AND b = 'b1' AND g IN (0, 1)", "g = 2 AND f > 1.0", "g IN (1, 1, NULL, 3) AND a = 1",
	} {
		twinExec(t, e, "SELECT id, g FROM @ WHERE "+where, nil)
		twinExec(t, e, fmt.Sprintf("SELECT id, g FROM @ WHERE %s AS OF %d", where, asOf), nil)
	}
	twinExec(t, e, "SELECT id FROM @ WHERE a = ? AND b = ?", func(string) []types.Value { return []types.Value{types.NewInt(1), types.NewString("b1")} })
	twinExec(t, e, "SELECT id FROM @ WHERE a = ? AND b = ?", func(string) []types.Value { return []types.Value{types.NewFloat(1), types.Null} })

	// _tid: point and IN, with a tid that was never issued and a repeat.
	tidOf := func(table string, id int64) types.Value {
		res := mustExec(t, e, "SELECT _tid FROM "+table+" WHERE id + 0 = ?", types.NewInt(id))
		if len(res.Rows) == 0 {
			return types.NewInt(1 << 40)
		}
		return res.Rows[0][0]
	}
	for _, ids := range [][3]int64{{3, 4, 5}, {7, 1000, 7}, {1000, 1001, 1002}} {
		ids := ids
		tids := func(table string) []types.Value {
			return []types.Value{tidOf(table, ids[0]), tidOf(table, ids[1]), tidOf(table, ids[2])}
		}
		twinExec(t, e, "SELECT id, u FROM @ WHERE _tid = ?", func(table string) []types.Value { return tids(table)[:1] })
		twinExec(t, e, "SELECT id, u FROM @ WHERE _tid IN (?, ?, ?)", tids)
		twinExec(t, e, fmt.Sprintf("SELECT id, u FROM @ WHERE _tid IN (?, ?, ?) AS OF %d", asOf), tids)
	}
	twinExec(t, e, "SELECT id FROM @ WHERE _tid = '1'", nil)
	twinExec(t, e, "SELECT id FROM @ WHERE _tid = NULL", nil)
	twinExec(t, e, "SELECT id FROM @ WHERE _tid = 1.5", nil)

	// Joins probing the right side through each index origin, inner and
	// LEFT, NULL and cross-kind left keys, with a residual, AS OF.
	for _, on := range []string{
		"l.x = t.id", "l.s = t.u", "l.y = t.g", "l.y = t.a AND l.z = t.b", "l.z = t.b AND l.y = t.a", "l.z = t.w",
		"l.fx = t.id", "l.x = t.f", "l.fx = t.f", "l.s = t.id", "l.y = t.g AND t.a > l.x", "l.x = t.id AND l.s = t.u",
	} {
		for _, kind := range []string{"JOIN", "LEFT JOIN"} {
			twinExec(t, e, fmt.Sprintf("SELECT l.x, l.s, t.id, t.u, t.g FROM tl l %s @ t ON %s", kind, on), nil)
		}
		twinExec(t, e, fmt.Sprintf("SELECT l.x, t.id FROM tl l JOIN @ t ON %s AS OF %d", on, asOf), nil)
	}

	// UPDATE and DELETE through the same access paths; the tables are
	// compared whole after each.
	for _, dml := range []string{
		"UPDATE @ SET g = 7 WHERE id = '3'", "DELETE FROM @ WHERE id = '99'", "DELETE FROM @ WHERE u = 5",
		"UPDATE @ SET b = 'zz' WHERE id IN (1, 1, 2, 9007199254740993)", "UPDATE @ SET g = 8 WHERE id = 2.0",
		"UPDATE @ SET g = 9 WHERE f = 2", "UPDATE @ SET a = 5 WHERE id = 1.5", "DELETE FROM @ WHERE g IN (1, NULL)",
		"UPDATE @ SET f = 7.5 WHERE a = 1 AND b = 'b1'", "DELETE FROM @ WHERE w IN ('w1', 'w2', 3)",
		"DELETE FROM @ WHERE u = NULL", "UPDATE @ SET b = NULL WHERE w = 'w7'", "DELETE FROM @ WHERE id = 9007199254740992",
		"DELETE FROM @ WHERE f = 9007199254740993",
	} {
		twinExec(t, e, dml, nil)
		twinContents(t, e, dml)
	}
}
