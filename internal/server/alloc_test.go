package server

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ediflow/internal/types"
)

// TestWireQueryAllocCeiling: a redraw's index SELECT of 1,000 rows over
// loopback allocates, on both ends together, what the engine selects and
// the result the client keeps: about 320 KB. A frame buffer made for
// each result on either end (about 62 KB each here), or a copy of the
// index probe's finds (32 KB), read about 475 KB.
func TestWireQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	_, _, conn := startServer(t, Config{})
	for _, ddl := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, grp INT, v INT, pad STRING)",
		"CREATE INDEX items_grp ON items (grp)",
	} {
		if _, err := conn.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	const rows, groups = 5000, 5
	var sb strings.Builder
	for lo := 0; lo < rows; lo += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO items (id, grp, v, pad) VALUES ")
		for id := lo; id < lo+500; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", id, id%groups, id*7%1000, strings.Repeat(".", 32))
		}
		if _, err := conn.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT id, grp, v, pad FROM items WHERE grp = ?"
	query := func(i int) {
		res, err := conn.Query(sql, types.NewInt(int64(i%groups)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows/groups {
			t.Fatalf("group %d: %d rows, want %d", i%groups, len(res.Rows), rows/groups)
		}
	}
	for i := 0; i < 20; i++ {
		query(i)
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		query(i)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%.1f KB per round trip, both ends", float64(got)/1024)
	const ceiling = 370 << 10
	if got > ceiling {
		t.Errorf("a %d-row index SELECT over the wire allocates %.1f KB per round trip, ceiling %d KB", rows/groups, float64(got)/1024, ceiling>>10)
	}
}
