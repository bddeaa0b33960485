package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// newPhaseTestDB seeds ph with n rows — id 0..n-1, v = id % 10, s = 'x' —
// enough for several morsels under forceParallel.
func newPhaseTestDB(t testing.TB, n int) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE ph (id INT PRIMARY KEY, v INT, s STRING)")
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO ph (id, v, s) VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'x')", i, i%10)
		if (i+1)%250 == 0 || i == n-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
	return e
}

// TestPhaseErrorOrder pins which error a SELECT reports when several of
// its phases fail on different rows, across batches and morsels: WHERE
// first, then the projection or group key (HAVING and the items over
// groups after every group key), then the ORDER BY key — whatever rows
// they fail on. A WHERE error counts no rows scanned; any other error
// comes after the whole scan and counts it. LIMIT never cuts the scan
// short. The join shapes (joinPhaseCases) put each join's ON, in join
// order, before WHERE. Each shape runs at width 4 over four 256-slot
// morsels and at width 1; the shapes the row-by-row oracle accepts must
// also match it.
func TestPhaseErrorOrder(t *testing.T) {
	const n, first, last = 1000, 0, 999
	e := newPhaseTestDB(t, n)
	forceParallel(t, e, 4, 256)
	where := func(r int) string { return fmt.Sprintf("CASE WHEN id = %d THEN 1 / 0 ELSE 1 END = 1", r) }
	proj := func(r int) string { return fmt.Sprintf("CASE WHEN id = %d THEN s + 1 ELSE v END", r) }
	key := func(r int) string { return fmt.Sprintf("CASE WHEN id = %d THEN s * 2 ELSE v END", r) }
	ord := func(r int) string { return fmt.Sprintf("CASE WHEN id = %d THEN s - 1 ELSE v END", r) }
	having := func(r int) string { return fmt.Sprintf("CASE WHEN MIN(id) = %d THEN s %% 2 ELSE 1 END = 1", r) }
	const (
		errWhere = "types: division by zero"
		errProj  = "types: + not defined on STRING and INT"
		errKey   = "types: * not defined on STRING and INT"
		errOrd   = "types: - not defined on STRING and INT"
		errHav   = `types: cannot convert "x" to INT`
		errRep   = "types: - not defined on INT and STRING" // v - s over a group's first row
	)
	cases := []struct {
		sql     string
		err     string // "" for success
		rows    int
		scanned int64
	}{
		// WHERE fails on the last row, a later phase on the first.
		{"SELECT id, " + proj(first) + " FROM ph WHERE " + where(last), errWhere, 0, 0},
		{"SELECT " + key(first) + ", COUNT(*) FROM ph WHERE " + where(last) + " GROUP BY " + key(first), errWhere, 0, 0},
		{"SELECT id FROM ph WHERE " + where(last) + " ORDER BY " + ord(first), errWhere, 0, 0},
		{"SELECT v, COUNT(*) FROM ph WHERE " + where(last) + " GROUP BY v HAVING " + having(first), errWhere, 0, 0},
		{"SELECT DISTINCT " + proj(first) + " FROM ph WHERE " + where(last) + " LIMIT 3", errWhere, 0, 0},
		// The reverse: WHERE fails on the first row, the later phase on the last.
		{"SELECT id, " + proj(last) + " FROM ph WHERE " + where(first), errWhere, 0, 0},
		{"SELECT " + key(last) + ", COUNT(*) FROM ph WHERE " + where(first) + " GROUP BY " + key(last), errWhere, 0, 0},
		{"SELECT id FROM ph WHERE " + where(first) + " ORDER BY " + ord(last), errWhere, 0, 0},
		{"SELECT v, COUNT(*) FROM ph WHERE " + where(first) + " GROUP BY v HAVING " + having(last), errWhere, 0, 0},
		// Projection beats ORDER BY key, on the same row or a later one.
		{"SELECT id, " + proj(first) + " FROM ph ORDER BY " + ord(first), errProj, 0, n},
		{"SELECT id, " + proj(last) + " FROM ph WHERE v >= 0 ORDER BY " + ord(first), errProj, 0, n},
		{"SELECT id, " + proj(last) + " FROM ph WHERE v >= 0 ORDER BY " + ord(first) + " LIMIT 5", errProj, 0, n},
		{"SELECT DISTINCT v, " + proj(last) + " FROM ph WHERE v >= 0", errProj, 0, n},
		{"SELECT " + proj(last) + " FROM ph WHERE v >= 0 LIMIT 1", errProj, 0, n},
		{"SELECT " + proj(last) + " FROM ph LIMIT 1 OFFSET 2", errProj, 0, n},
		// ORDER BY keys: only rows DISTINCT keeps are keyed; LIMIT still
		// keys every row.
		{"SELECT DISTINCT v FROM ph WHERE id >= 0 ORDER BY " + ord(500), "", 10, n},
		{"SELECT DISTINCT v FROM ph WHERE id >= 0 ORDER BY " + ord(5), errOrd, 0, n},
		{"SELECT id FROM ph WHERE v >= 0 ORDER BY " + ord(last) + " LIMIT 3", errOrd, 0, n},
		{"SELECT id FROM ph WHERE v >= 0 ORDER BY " + ord(last) + " DESC, id LIMIT 0", errOrd, 0, n},
		// Group keys beat HAVING, items and ORDER BY; HAVING beats ORDER BY.
		{"SELECT " + key(last) + ", COUNT(*) FROM ph GROUP BY " + key(last) + " ORDER BY COUNT(*) LIMIT 2", errKey, 0, n},
		{"SELECT " + key(last) + ", COUNT(*) FROM ph WHERE v >= 0 GROUP BY " + key(last) + " HAVING " + having(first), errKey, 0, n},
		{"SELECT v FROM ph WHERE id >= 0 GROUP BY v HAVING " + having(first) + " ORDER BY v - s", errHav, 0, n},
		{"SELECT v, MIN(" + proj(last) + ") FROM ph WHERE id >= 0 GROUP BY v ORDER BY v - s", errProj, 0, n},
		{"SELECT v, COUNT(*) FROM ph WHERE id >= 0 GROUP BY v ORDER BY v - s LIMIT 1", errRep, 0, n},
		{"SELECT v, COUNT(*) FROM ph WHERE id >= 0 GROUP BY v ORDER BY 3", "engine: ORDER BY position 3 out of range", 0, n},
	}
	cases = append(cases, joinPhaseCases(t, e)...)
	for _, width := range []int{4, 1} {
		e.parallelism.Store(int64(width))
		for _, c := range cases {
			label := fmt.Sprintf("%s (width %d)", c.sql, width)
			s0 := e.mRowsScanned.Value()
			res, err := e.Exec(c.sql)
			scanned := e.mRowsScanned.Value() - s0
			switch {
			case c.err != "" && (err == nil || err.Error() != c.err):
				t.Errorf("%s: error %v, want %q", label, err, c.err)
			case c.err == "" && err != nil:
				t.Errorf("%s: %v", label, err)
			case c.err == "" && len(res.Rows) != c.rows:
				t.Errorf("%s: %d rows, want %d", label, len(res.Rows), c.rows)
			case scanned != c.scanned:
				t.Errorf("%s: rows_scanned %d, want %d", label, scanned, c.scanned)
			}
			st, perr := sqltext.Parse(c.sql)
			if perr != nil {
				t.Fatal(perr)
			}
			if want, werr, ok := refSelect(e, st.(*sqltext.Select)); ok {
				sameOutcome(t, label+" (oracle)", res, err, want, werr)
			}
		}
	}
}

// joinPhaseCases adds the join tables to ph's engine and returns
// TestPhaseErrorOrder's join shapes. The joins' ON conjuncts are phases
// before WHERE, in join order: join 1's ON error beats join 2's, and
// either beats WHERE, the projection and the ORDER BY key, whatever
// pairs or rows they fail on. An ON error credits the FROM scan and the
// right sides built up to the failing join, not that join's probes; any
// later error credits every scan and probe. Each right side strategy —
// a probe of pr's primary key, a hash join over the unindexed pu, a hash
// join over a FROM subquery — meets 900 of ph's 1000 rows.
func joinPhaseCases(t *testing.T, e *Engine) []struct {
	sql     string
	err     string
	rows    int
	scanned int64
} {
	t.Helper()
	mustExec(t, e, "CREATE TABLE pr (id INT PRIMARY KEY, w INT)")
	mustExec(t, e, "CREATE TABLE pu (id INT, w INT)")
	for lo := 0; lo < 900; lo += 300 {
		var sb strings.Builder
		for i := lo; i < lo+300; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, e, "INSERT INTO pr (id, w) VALUES "+sb.String())
		mustExec(t, e, "INSERT INTO pu (id, w) VALUES "+sb.String())
	}
	mustExec(t, e, "CREATE TABLE pw (id INT, w INT)")
	for i := 0; i < 21; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO pw (id, w) VALUES (%d, %d)", i, i%7))
	}
	// The smallest pair: a(4 rows) JOIN b(3 rows, PK).
	mustExec(t, e, "CREATE TABLE ja (id INT, v INT)")
	mustExec(t, e, "CREATE TABLE jb (id INT PRIMARY KEY, w INT)")
	mustExec(t, e, "INSERT INTO ja (id, v) VALUES (1, 1), (2, 0), (3, 3), (4, 4)")
	mustExec(t, e, "INSERT INTO jb (id, w) VALUES (1, 1), (2, 0), (3, 3)")

	const first, late = 0, 899 // the first and the last joined ph row
	on1 := func(r int) string { return fmt.Sprintf("CASE WHEN ph.id = %d THEN ph.s / 2 ELSE 1 END = 1", r) }
	on2 := func(r int) string { return fmt.Sprintf("CASE WHEN ph.id = %d THEN -ph.s ELSE 1 END = 1", r) }
	where := func(r int) string { return fmt.Sprintf("CASE WHEN ph.id = %d THEN 1 / 0 ELSE 1 END = 1", r) }
	proj := func(r int) string { return fmt.Sprintf("CASE WHEN ph.id = %d THEN ph.s + 1 ELSE ph.v END", r) }
	ord := func(r int) string { return fmt.Sprintf("CASE WHEN ph.id = %d THEN ph.s - 1 ELSE ph.v END", r) }
	const (
		errOn1   = "types: / not defined on STRING and INT"
		errOn2   = "types: cannot negate STRING"
		errWhere = "types: division by zero"
		errProj  = "types: + not defined on STRING and INT"
		errOrd   = "types: - not defined on STRING and INT"
	)
	type jcase = struct {
		sql     string
		err     string
		rows    int
		scanned int64
	}
	var cases []jcase
	for _, right := range []struct {
		ref   string
		built int64 // rows its build scans: none for a probe
	}{
		{"pr", 0},
		{"pu pr", 900},
		{"(SELECT id, w FROM pr) pr", 900},
	} {
		from := "FROM ph JOIN " + right.ref + " ON ph.id = pr.id"
		onFail := 1000 + right.built // the FROM scan and the build
		all := int64(1900)           // the FROM scan and 900 probes or a 900-row build
		cases = append(cases,
			// ON fails on the last pair, a later phase on the first row.
			jcase{"SELECT ph.id " + from + " AND " + on1(late) + " WHERE " + where(first), errOn1, 0, onFail},
			jcase{"SELECT ph.id, " + proj(first) + " " + from + " AND " + on1(late), errOn1, 0, onFail},
			jcase{"SELECT ph.id " + from + " AND " + on1(late) + " ORDER BY " + ord(first), errOn1, 0, onFail},
			jcase{"SELECT pr.w, COUNT(*) " + from + " AND " + on1(late) + " GROUP BY pr.w, " + proj(first), errOn1, 0, onFail},
			// WHERE fails on the last joined row, the projection on the first.
			jcase{"SELECT ph.id, " + proj(first) + " " + from + " WHERE " + where(late), errWhere, 0, all},
			jcase{"SELECT ph.id, pr.w " + from + " WHERE ph.v < 5 AND " + where(late+1), "", 450, all},
			jcase{"SELECT ph.id " + from + " WHERE pr.w >= 0 ORDER BY " + ord(late), errOrd, 0, all},
			jcase{"SELECT pr.w, COUNT(*), SUM(ph.v) " + from + " AND pr.w < 5 GROUP BY pr.w", "", 5, all},
			// LEFT: the residual rejects every pair of the left rows with
			// w > 3 (pads), and ph rows 900..999 have no pair at all.
			jcase{"SELECT ph.id, pr.w FROM ph LEFT JOIN " + right.ref + " ON ph.id = pr.id AND pr.w <= 3 WHERE ph.id >= 880", "", 120, all},
			jcase{"SELECT COUNT(*), COUNT(pr.w), SUM(pr.w) FROM ph LEFT JOIN " + right.ref + " ON ph.id = pr.id AND pr.w > 3 WHERE pr.w IS NULL OR ph.v = 0", "", 1, all},
			jcase{"SELECT ph.id FROM ph LEFT JOIN " + right.ref + " ON ph.id = pr.id AND " + on1(late) + " WHERE " + where(first), errOn1, 0, onFail},
			jcase{"SELECT ph.id, " + proj(950) + " FROM ph LEFT JOIN " + right.ref + " ON ph.id = pr.id AND pr.w > 3", errProj, 0, all},
		)
	}
	cases = append(cases,
		// Join 1 fails on its last pair, join 2 on its first: join 1's
		// error, and join 2's right side is never credited.
		jcase{"SELECT ph.id FROM ph JOIN pr ON ph.id = pr.id AND " + on1(late) + " JOIN pu ON pr.id = pu.id AND " + on2(first), errOn1, 0, 1000},
		jcase{"SELECT ph.id FROM ph JOIN pu ON ph.id = pu.id AND " + on1(late) + " JOIN pr ON pu.id = pr.id AND " + on2(first), errOn1, 0, 1900},
		// Join 1 passes: join 2's error, with join 1's probes and join
		// 2's build credited.
		jcase{"SELECT ph.id FROM ph JOIN pr ON ph.id = pr.id JOIN pu ON pr.id = pu.id AND " + on2(late) + " WHERE " + where(first), errOn2, 0, 2800},
		jcase{"SELECT ph.id, pu.w FROM ph JOIN pr ON ph.id = pr.id JOIN pu ON pr.id = pu.id AND pu.w = pr.w WHERE ph.v = 3", "", 90, 2800},
		// ph.v = pw.w pairs each ph row with v < 7 with 3 of pw's 21 rows:
		// two full batches of pairs reach the later phases before join 1
		// fails on ph row 996, the last with v = 6. Join 1's error, and
		// nothing after join 1 is credited: not join 2's build or probes,
		// not a subquery of join 2's ON, of WHERE or of the projection.
		jcase{"SELECT ph.id, " + proj(first) + " FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " WHERE " + where(first), errOn1, 0, 1021},
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " ORDER BY " + ord(first), errOn1, 0, 1021},
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " JOIN pr ON pw.id = pr.id AND " + on2(first), errOn1, 0, 1021},
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " JOIN pu p2 ON pw.id = p2.id AND " + on2(first), errOn1, 0, 1021},
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " JOIN pr ON pw.id = pr.id AND pr.w < (SELECT COUNT(*) FROM pr)", errOn1, 0, 1021},
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996) + " WHERE ph.v < (SELECT COUNT(*) FROM pr)", errOn1, 0, 1021},
		jcase{"SELECT ph.id, (SELECT COUNT(*) FROM pr) FROM ph JOIN pw ON ph.v = pw.w AND " + on1(996), errOn1, 0, 1021},
		// A subquery of the failing join's ON ran, and is credited.
		jcase{"SELECT ph.id FROM ph JOIN pw ON ph.v = pw.w AND pw.w < (SELECT COUNT(*) FROM pr) AND " + on1(996), errOn1, 0, 1921},
		// Join 1 passes, join 2 fails late, WHERE and the projection early.
		jcase{"SELECT ph.id, " + proj(first) + " FROM ph JOIN pw ON ph.v = pw.w JOIN pr ON pw.id = pr.id AND " + on2(996) + " WHERE " + where(first), errOn2, 0, 1021},
		jcase{"SELECT ph.id, " + proj(first) + " FROM ph JOIN pw ON ph.v = pw.w WHERE " + where(996), errWhere, 0, 1021},
		jcase{"SELECT COUNT(*), SUM(pr.w) FROM ph JOIN pw ON ph.v = pw.w JOIN pr ON pw.id = pr.id", "", 1, 3121},
		jcase{"SELECT ph.id, pw.id FROM ph LEFT JOIN pw ON ph.v = pw.w AND pw.id > 13 AND ph.id % 2 = 0", "", 1000, 1021},
		jcase{"SELECT ph.id, (SELECT COUNT(*) FROM pr) FROM ph JOIN pr ON ph.id = pr.id WHERE ph.v < 5", "", 450, 2800},
		// a(4) JOIN b(3, PK): an ON error credits the scan of a, a WHERE
		// error the scan and every probe.
		jcase{"SELECT ja.id FROM ja JOIN jb ON ja.id = jb.id AND 10 / jb.w > 0 WHERE 10 / ja.v > 0", errWhere, 0, 4},
		jcase{"SELECT ja.id FROM ja JOIN jb ON ja.id = jb.id WHERE 10 / ja.v > 0", errWhere, 0, 7},
	)
	return cases
}

// TestScanFoldAllocCeiling: a SELECT over a large table allocates for
// what it keeps — a group, a heap entry, an output row — not for every
// row it reads. Each shape runs over tables shaped like the benchmark's
// at width 1 and 4 and must allocate at most a fifth of what it did when
// every scanned or matched row was copied out at full width first (the
// figures below, measured on the same tables); a plain fold over every
// row of a 100,000-row table stays under 1 MB.
func TestScanFoldAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE fact (id INT PRIMARY KEY, k INT, v INT, w FLOAT, s STRING)")
	mustExec(t, e, "CREATE TABLE events (id INT PRIMARY KEY, entity INT, v INT, ts INT)")
	mustExec(t, e, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, v INT, pad STRING)")
	seed := uint64(1)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	load := func(table string, rows int, row func(i int) string) {
		var sb strings.Builder
		for lo := 0; lo < rows; lo += 1000 {
			sb.Reset()
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for i := lo; i < min(lo+1000, rows); i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				sb.WriteString(row(i))
			}
			mustExec(t, e, sb.String())
		}
	}
	load("fact", 65536, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d.5, 'cat-%02d')", i, rnd(1000), rnd(100000), rnd(1000), rnd(32))
	})
	load("events", 100000, func(i int) string { return fmt.Sprintf("(%d, %d, %d, %d)", i, rnd(64), rnd(1000), i) })
	pad := strings.Repeat(".", 32)
	load("items", 50000, func(i int) string { return fmt.Sprintf("(%d, %d, %d, '%s')", i, rnd(50), rnd(1000), pad) })

	const mb = 1 << 20
	for _, c := range []struct {
		sql     string
		ceiling uint64 // bytes per statement
	}{
		{"SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM fact WHERE k >= 100 AND k < 600", 237 * mb / 50},
		{"SELECT s, COUNT(*), SUM(v) FROM fact WHERE k >= 100 AND k < 500 GROUP BY s ORDER BY s", 201 * mb / 50},
		{"SELECT k, COUNT(*), MAX(v) FROM fact WHERE v < 50000 GROUP BY k ORDER BY k", 258 * mb / 50},
		{"SELECT id, v FROM fact WHERE k >= 300 ORDER BY v DESC, id LIMIT 100", 518 * mb / 50},
		{"SELECT grp, COUNT(*), SUM(v) FROM items GROUP BY grp ORDER BY grp", 311 * mb / 50},
		{"SELECT COUNT(*), COALESCE(SUM(v), 0) FROM events", mb},
	} {
		for _, width := range []int{1, 4} {
			e.parallelism.Store(int64(width))
			got := allocPerExec(t, e, 10, c.sql, func(int) []types.Value { return nil })
			t.Logf("width %d: %s: %.2f MB", width, c.sql, float64(got)/mb)
			if got > c.ceiling {
				t.Errorf("width %d: %s allocates %.2f MB per statement, ceiling %.2f MB", width, c.sql, float64(got)/mb, float64(c.ceiling)/mb)
			}
		}
	}
}

// TestResultAllocCeiling: a SELECT's tail writes each kept row once,
// into the output's slabs, and makes the row slice once at its length —
// no per-row allocation, no growth of the row slice, no clone of a row
// an unbounded ORDER BY keeps, and no slot for a DISTINCT duplicate. The
// ceilings are per statement over a 65,536-row table shaped like the
// benchmark's, at width 1 and 4; each sits about 15 % over what this
// tail allocates (the plain GROUP BY's 11 %, as its fold allocates most;
// the scan's 23 %, as the first statement at width 4 warms the morsel
// pools by up to 110 KB) and below what a tail that grew its row slice by appends and copied
// every sorted or grouped row allocated: 1,194, 9,570, 1,884, 740, 900
// and 7,652 KB.
func TestResultAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE fact (id INT PRIMARY KEY, k INT, v INT, w FLOAT, s STRING)")
	seed := uint64(1)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	var sb strings.Builder
	for lo := 0; lo < 65536; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO fact VALUES ")
		for i := lo; i < min(lo+1000, 65536); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d.5, 'cat-%02d')", i, rnd(1000), rnd(100000), rnd(1000), rnd(32))
		}
		mustExec(t, e, sb.String())
	}

	const kb = 1 << 10
	for _, c := range []struct {
		sql     string
		ceiling uint64 // bytes per statement
	}{
		{"SELECT id, v, w FROM fact WHERE k >= 100 AND k < 300 AND v < 50000", 800 * kb},
		{"SELECT id FROM fact", 3750 * kb},
		{"SELECT DISTINCT k FROM fact", 200 * kb},
		{"SELECT k, COUNT(*) FROM fact GROUP BY k", 720 * kb},
		{"SELECT k, COUNT(*) FROM fact GROUP BY k ORDER BY k", 840 * kb},
		{"SELECT id, v FROM fact WHERE k < 300 ORDER BY v", 3500 * kb},
	} {
		for _, width := range []int{1, 4} {
			e.parallelism.Store(int64(width))
			got := allocPerExec(t, e, 10, c.sql, func(int) []types.Value { return nil })
			t.Logf("width %d: %s: %d KB", width, c.sql, got/kb)
			if got > c.ceiling {
				t.Errorf("width %d: %s allocates %d KB per statement, ceiling %d KB", width, c.sql, got/kb, c.ceiling/kb)
			}
		}
	}
}

// TestResultTailAcrossSlabs: a result's rows live in the output's slabs
// and its row slice is made once, so every tail — DISTINCT, an unbounded
// ORDER BY, a group batch's HAVING, LIMIT/OFFSET, hidden ORDER BY
// columns — must give what applying it to the untailed statement's rows
// gives, across several slabs and emit batches. The oracle applies the
// tail in Go: DISTINCT keeps a row's first occurrence over the visible
// columns, ORDER BY is a stable sort on the given columns of the untailed
// rows, then OFFSET and LIMIT slice and the visible columns remain. The
// untailed rows are checked against refSelect; a statement whose
// untailed form fails must fail alike. Appending to a result row may not
// reach the next one.
func TestResultTailAcrossSlabs(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	type key = tailKey
	for _, c := range []struct {
		sql, base string // the statement, and it untailed: items, then the ORDER BY keys
		distinct  bool
		by        []key
		vis       int // the visible columns, 0 for all of base's
		off, lim  int // -1 for none
	}{
		{"SELECT DISTINCT v % 50, b FROM p", "SELECT v % 50, b FROM p", true, nil, 0, -1, -1},
		{"SELECT DISTINCT id % 1700 FROM p", "SELECT id % 1700 FROM p", true, nil, 0, -1, -1},
		{"SELECT id, v FROM p ORDER BY v", "SELECT id, v FROM p", false, []key{{1, false}}, 0, -1, -1},
		{"SELECT id, w FROM p WHERE id % 3 != 1 ORDER BY w DESC, id % 5", "SELECT id, w, id % 5 FROM p WHERE id % 3 != 1", false, []key{{1, true}, {2, false}}, 2, -1, -1},
		{"SELECT DISTINCT id % 1300 AS m, b FROM p ORDER BY b, m DESC", "SELECT id % 1300 AS m, b FROM p", true, []key{{1, false}, {0, true}}, 0, -1, -1},
		{"SELECT id % 1500, COUNT(*) FROM p GROUP BY id % 1500 ORDER BY SUM(v) DESC", "SELECT id % 1500, COUNT(*), SUM(v) FROM p GROUP BY id % 1500", false, []key{{2, true}}, 2, -1, -1},
		{"SELECT id % 2000, COUNT(*), SUM(v) FROM p GROUP BY id % 2000 HAVING SUM(v) > 300 ORDER BY 3", "SELECT id % 2000, COUNT(*), SUM(v) FROM p GROUP BY id % 2000 HAVING SUM(v) > 300", false, []key{{2, false}}, 0, -1, -1},
		{"SELECT id % 1700, COUNT(*) FROM p GROUP BY id % 1700 HAVING COUNT(*) > 1 ORDER BY id % 1700 DESC", "SELECT id % 1700, COUNT(*) FROM p GROUP BY id % 1700 HAVING COUNT(*) > 1", false, []key{{0, true}}, 0, -1, -1},
		{"SELECT id, s FROM p LIMIT 300 OFFSET 900", "SELECT id, s FROM p", false, nil, 0, 900, 300},
		{"SELECT DISTINCT id % 1700, v % 2 FROM p LIMIT 200 OFFSET 900", "SELECT id % 1700, v % 2 FROM p", true, nil, 0, 900, 200},
		{"SELECT id, v FROM p ORDER BY v, id DESC LIMIT 250 + 50 OFFSET 1000 - 100", "SELECT id, v FROM p", false, []key{{1, false}, {0, true}}, 0, 900, 300},
		{"SELECT id, v FROM p ORDER BY 10 / (id - 2900)", "SELECT id, v, 10 / (id - 2900) FROM p", false, []key{{2, false}}, 2, -1, -1},
	} {
		st, err := sqltext.Parse(c.base)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 4} {
			e.parallelism.Store(int64(width))
			label := fmt.Sprintf("%s (width %d)", c.sql, width)
			base, berr := e.Exec(c.base)
			ref, rerr, ok := refSelect(e, st.(*sqltext.Select))
			if !ok {
				t.Fatalf("%s: refSelect does not take the untailed statement", c.base)
			}
			sameOutcome(t, c.base+" (oracle)", base, berr, ref, rerr)
			var want *Result
			if berr == nil {
				want = &Result{Rows: tailRows(base.Rows, c.distinct, c.vis, c.by, c.off, c.lim)}
			}
			res, err := e.Exec(c.sql)
			sameOutcome(t, label, res, err, want, berr)
			if err != nil {
				continue
			}
			if len(res.Rows) < 2 {
				t.Fatalf("%s: %d rows, too few to span slabs", label, len(res.Rows))
			}
			for i := 0; i+1 < len(res.Rows); i++ {
				next := types.RowKey(res.Rows[i+1])
				_ = append(res.Rows[i], types.NewInt(-1), types.NewInt(-1))
				if types.RowKey(res.Rows[i+1]) != next {
					t.Fatalf("%s: appending to row %d wrote into row %d", label, i, i+1)
				}
			}
		}
	}
}

// tailKey is an ORDER BY key of tailRows: a column of the untailed rows.
type tailKey struct {
	col  int
	desc bool
}

// tailRows applies a SELECT's tail to its untailed rows (see
// TestResultTailAcrossSlabs): DISTINCT over the first vis columns (0:
// all), a stable sort on by's columns, OFFSET off and LIMIT lim (-1:
// none), then the first vis columns.
func tailRows(rows []types.Row, distinct bool, vis int, by []tailKey, off, lim int) []types.Row {
	if vis == 0 && len(rows) > 0 {
		vis = len(rows[0])
	}
	if distinct {
		seen := map[string]bool{}
		rows = slices.DeleteFunc(slices.Clone(rows), func(r types.Row) bool {
			k := types.RowKey(r[:vis])
			defer func() { seen[k] = true }()
			return seen[k]
		})
	}
	rows = slices.Clone(rows)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range by {
			c, _ := types.Compare(rows[i][k.col], rows[j][k.col])
			if c != 0 {
				return c < 0 != k.desc
			}
		}
		return false
	})
	if off >= 0 {
		rows = rows[min(off, len(rows)):]
	}
	if lim >= 0 {
		rows = rows[:min(lim, len(rows))]
	}
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = r[:vis]
	}
	return out
}

// TestWideScanAllocCeiling: a filtered scan that fans out hands each
// morsel's kept lanes to its sink in pooled batches, so it allocates
// within a small constant of the same statement at width 1 — the
// goroutines and the morsel table, not a copy of every kept lane's row
// reference and tid (32 bytes a lane, about 2.1 MB here).
func TestWideScanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE fact (id INT PRIMARY KEY, k INT, v INT, w FLOAT, s STRING)")
	seed := uint64(3)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	var sb strings.Builder
	for lo := 0; lo < 65536; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO fact VALUES ")
		for i := lo; i < min(lo+1000, 65536); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d.5, 'cat-%02d')", i, rnd(1000), rnd(100000), rnd(1000), rnd(32))
		}
		mustExec(t, e, sb.String())
	}
	const slack = 16 << 10
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM fact WHERE k < 900",
		"SELECT s, COUNT(*), SUM(v) FROM fact WHERE k < 900 GROUP BY s",
		"SELECT id, v FROM fact WHERE k < 900 ORDER BY v DESC, id LIMIT 100",
	} {
		func() {
			// A GC empties the morsel pools, so it is held off from the
			// warm-up to the last measured block: each width measures the
			// warm engine, not a pool a collection emptied.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// How many kept batches wait at once depends on the schedule,
			// up to width − 1 morsels' worth; the pool keeps the most any
			// run needed, so runs at the widest width stock it first, as a
			// warm engine's is.
			e.parallelism.Store(4)
			for i := 0; i < 20; i++ {
				mustExec(t, e, sql)
			}
			var base uint64
			for _, width := range []int{1, 2, 4} {
				e.parallelism.Store(int64(width))
				got := allocPerExec(t, e, 10, sql, func(int) []types.Value { return nil })
				t.Logf("width %d: %s: %.1f KB", width, sql, float64(got)/1024)
				if width == 1 {
					base = got
				} else if got > base+slack {
					t.Errorf("width %d: %s allocates %.1f KB per statement, width 1 %.1f KB: more than %d KB apart", width, sql, float64(got)/1024, float64(base)/1024, slack>>10)
				}
			}
		}()
	}
}

// TestGroupAllocCeiling: a GROUP BY builds each lane's group key in a
// reused buffer and makes a key string only when a group opens, so over
// 50 groups it allocates the same at 5,000 rows as at 50,000, within a
// small constant, at width 1 and 4. A key string per lane made the
// larger table cost about 700 KB more.
func TestGroupAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	for _, n := range []int{5000, 50000} {
		mustExec(t, e, fmt.Sprintf("CREATE TABLE items%d (id INT PRIMARY KEY, grp INT, v INT)", n))
		var sb strings.Builder
		for lo := 0; lo < n; lo += 1000 {
			sb.Reset()
			fmt.Fprintf(&sb, "INSERT INTO items%d VALUES ", n)
			for i := lo; i < lo+1000; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%50, i%997)
			}
			mustExec(t, e, sb.String())
		}
	}
	const slack = 32 << 10
	for _, width := range []int{1, 4} {
		e.parallelism.Store(int64(width))
		var got [2]uint64
		for i, n := range []int{5000, 50000} {
			got[i] = allocPerExec(t, e, 10, fmt.Sprintf("SELECT grp, COUNT(*), SUM(v) FROM items%d GROUP BY grp ORDER BY grp", n), func(int) []types.Value { return nil })
		}
		t.Logf("width %d: 5,000 rows %d KB, 50,000 rows %d KB", width, got[0]>>10, got[1]>>10)
		if got[1] > got[0]+slack {
			t.Errorf("width %d: GROUP BY over 50,000 rows allocates %d KB, over 5,000 rows %d KB: more than %d KB apart", width, got[1]>>10, got[0]>>10, slack>>10)
		}
	}
}

// TestJoinAllocCeiling: a join allocates for the rows its sink keeps,
// not for every pair it forms. Each shape runs over tables shaped like
// the benchmark's at width 1 and 4 and must allocate at most the given
// fraction of what it did when the join collected its left input,
// copied every probed right row and built every joined row before WHERE
// ran (the figures below, measured on the same tables). A four-row join
// run right after two collections, which empty the buffer pools, stays
// under 128 KB: the pair buffer is sized by demand.
func TestJoinAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE edges (src INT, dst INT, weight INT)")
	mustExec(t, e, "CREATE TABLE positions (obj_id INT PRIMARY KEY, x FLOAT, y FLOAT)")
	mustExec(t, e, "CREATE TABLE entities (id INT PRIMARY KEY, name STRING)")
	mustExec(t, e, "CREATE TABLE events (id INT PRIMARY KEY, entity INT, v INT, ts INT)")
	seed := uint64(7)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	load := func(table string, rows int, row func(i int) string) {
		var sb strings.Builder
		for lo := 0; lo < rows; lo += 1000 {
			sb.Reset()
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for i := lo; i < min(lo+1000, rows); i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				sb.WriteString(row(i))
			}
			mustExec(t, e, sb.String())
		}
	}
	const nPos = 4500
	load("positions", nPos, func(i int) string { return fmt.Sprintf("(%d, %d.25, %d.5)", i, rnd(1000), rnd(1000)) })
	load("edges", 6000, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", rnd(nPos), rnd(nPos), 1+rnd(10)) })
	load("entities", 64, func(i int) string { return fmt.Sprintf("(%d, 'entity-%02d')", i, i) })
	load("events", 100000, func(i int) string { return fmt.Sprintf("(%d, %d, %d, %d)", i, rnd(64), rnd(1000), i) })

	// A small join pays for a small pair buffer, even when a collection
	// has just emptied the pools.
	mustExec(t, e, "CREATE TABLE few (src INT, dst INT, weight INT)")
	mustExec(t, e, "INSERT INTO few VALUES (0, 1, 5), (1, 2, 6), (2, 0, 7), (3, 3, 8)")
	const fewSQL = "SELECT f.src, p.x FROM few f JOIN positions p ON f.src = p.obj_id WHERE f.weight >= 5"
	var total uint64
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustExec(t, e, fewSQL)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("pools emptied: %s: %d KB", fewSQL, total/5>>10)
	if total/5 > 128<<10 {
		t.Errorf("pools emptied: %s allocates %d KB per statement, ceiling 128 KB", fewSQL, total/5>>10)
	}

	const mb = 1 << 20
	for _, c := range []struct {
		sql     string
		ceiling uint64 // bytes per statement
	}{
		{"SELECT e.src, e.dst, p1.x, p1.y, p2.x, p2.y FROM edges e JOIN positions p1 ON e.src = p1.obj_id JOIN positions p2 ON e.dst = p2.obj_id WHERE e.weight >= 5", 2541 * mb / 500},
		{"SELECT e.id, n.name, e.v FROM events e JOIN entities n ON e.entity = n.id WHERE e.v >= 990", 20422 * mb / 1000},
		{"SELECT e.src, p.x FROM edges e JOIN (SELECT obj_id, x FROM positions) p ON e.src = p.obj_id WHERE e.weight >= 5", 1116 * mb / 300},
	} {
		for _, width := range []int{1, 4} {
			e.parallelism.Store(int64(width))
			got := allocPerExec(t, e, 10, c.sql, func(int) []types.Value { return nil })
			t.Logf("width %d: %s: %.2f MB", width, c.sql, float64(got)/mb)
			if got > c.ceiling {
				t.Errorf("width %d: %s allocates %.2f MB per statement, ceiling %.2f MB", width, c.sql, float64(got)/mb, float64(c.ceiling)/mb)
			}
		}
	}

	// A hash join's probe builds each left lane's key in a reused buffer:
	// a left side ten times longer, whose keys find nothing, costs the
	// same within a small constant. A key string per lane made the longer
	// side cost about 1.3 MB more.
	for _, n := range []int{4000, 40000} {
		mustExec(t, e, fmt.Sprintf("CREATE TABLE probe%d (id INT PRIMARY KEY, k INT)", n))
		load(fmt.Sprintf("probe%d", n), n, func(i int) string { return fmt.Sprintf("(%d, %d)", i, -1-i) })
	}
	const slack = 32 << 10
	for _, width := range []int{1, 4} {
		e.parallelism.Store(int64(width))
		var got [2]uint64
		for i, n := range []int{4000, 40000} {
			got[i] = allocPerExec(t, e, 10, fmt.Sprintf("SELECT l.id FROM probe%d l JOIN (SELECT obj_id FROM positions) p ON l.k = p.obj_id", n), func(int) []types.Value { return nil })
		}
		t.Logf("width %d: hash join probed by 4,000 lanes %d KB, by 40,000 lanes %d KB", width, got[0]>>10, got[1]>>10)
		if got[1] > got[0]+slack {
			t.Errorf("width %d: a hash join probed by 40,000 lanes allocates %d KB, by 4,000 lanes %d KB: more than %d KB apart", width, got[1]>>10, got[0]>>10, slack>>10)
		}
	}
}
