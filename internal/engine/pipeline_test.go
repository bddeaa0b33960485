package engine

import (
	"fmt"
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
// short. Each shape runs at width 4 over four 256-slot morsels and at
// width 1; the shapes the row-by-row oracle accepts must also match it.
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
