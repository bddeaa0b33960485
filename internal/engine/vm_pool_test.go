package engine

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/types"
)

// allocPerExec reports the bytes one execution of the statement
// allocates, averaged over n runs after a warm-up that fills the plan
// cache, the program cache and the machine pools.
func allocPerExec(t *testing.T, e *Engine, n int, sql string, args func(i int) []types.Value) uint64 {
	t.Helper()
	bound := make([][]types.Value, n) // built ahead: the caller's cost, not the engine's
	for i := range bound {
		bound[i] = args(i)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, e, sql, bound[i]...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		mustExec(t, e, sql, bound[i]...)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestPointStatementAllocCeiling: a statement that touches one row pays
// for one row. Before machines were sized by demand and pooled, each of
// these allocated several hundred KB of 1,024-lane vectors — one per
// register, constant and parameter.
func TestPointStatementAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is meaningless under the race detector")
	}
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, k INT, x FLOAT, y FLOAT, w FLOAT, h FLOAT, color STRING, label STRING)")
	mustExec(t, e, "CREATE INDEX t_k ON t (id, k)")
	for i := 0; i < 512; i++ {
		mustExec(t, e, "INSERT INTO t (id, k, x, y, w, h, color, label) VALUES (?, 1, 0.0, 0.0, 1.0, 1.0, 'red', 'l')", types.NewInt(int64(i)))
	}
	label := types.NewString(strings.Repeat("x", 64))
	const ceiling = 8 << 10
	update := allocPerExec(t, e, 200,
		"UPDATE t SET x = ?, y = ?, w = ?, h = ?, color = ?, label = ? WHERE id = ? AND k = ?",
		func(i int) []types.Value {
			return []types.Value{types.NewFloat(float64(i)), types.NewFloat(2), types.NewFloat(3), types.NewFloat(4),
				types.NewString("blue"), label, types.NewInt(int64(i % 512)), types.NewInt(1)}
		})
	t.Logf("point UPDATE %d B", update)
	if update > ceiling {
		t.Errorf("point UPDATE allocates %d B per statement, ceiling %d", update, ceiling)
	}
	fetch := allocPerExec(t, e, 200, "SELECT *, _tid FROM t WHERE _tid IN (?)",
		func(i int) []types.Value { return []types.Value{types.NewInt(int64(i%512 + 1))} })
	t.Logf("tid fetch %d B", fetch)
	if fetch > ceiling {
		t.Errorf("tid fetch allocates %d B per statement, ceiling %d", fetch, ceiling)
	}
}

// TestPooledMachinesParallelScans runs one cached statement from several
// sessions at once, each fanning out into morsel workers: every worker
// acquires its machines from the same program pools concurrently, and
// every statement's answer must be its own.
func TestPooledMachinesParallelScans(t *testing.T) {
	defer func(old int) { morselSlots = old }(morselSlots)
	morselSlots = 64
	e := newTestDB(t)
	e.parallelism.Store(4)
	mustExec(t, e, "CREATE TABLE big (id INT PRIMARY KEY, v INT, s STRING)")
	const n = 2048
	for lo := 0; lo < n; lo += 256 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big (id, v, s) VALUES ")
		args := make([]types.Value, 0, 3*256)
		for i := lo; i < lo+256; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString("(?, ?, ?)")
			args = append(args, types.NewInt(int64(i)), types.NewInt(int64(i%100)), types.NewString("s"))
		}
		mustExec(t, e, sb.String(), args...)
	}
	const q = "SELECT id, v + ? FROM big WHERE v < ? AND s || 'x' = 'sx'"
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				cut := int64((g*20+round)%100 + 1)
				res, err := e.Exec(q, types.NewInt(cut), types.NewInt(cut))
				if err != nil {
					t.Errorf("session %d: %v", g, err)
					return
				}
				if want := n/100*int(cut) + min(int(cut), n%100); len(res.Rows) != want {
					t.Errorf("session %d cut %d: %d rows, want %d", g, cut, len(res.Rows), want)
					return
				}
				for _, r := range res.Rows {
					if id, got := r[0].Int(), r[1].Int(); got != id%100+cut {
						t.Errorf("session %d cut %d: id %d projected %d", g, cut, id, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
