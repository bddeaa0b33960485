package benchkit

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/database"
)

// ParallelStats summarizes one morsel-parallel benchmark run: the table
// size scanned, the rows (or groups) the last statement produced — a
// correctness anchor that must not move with the worker count — and the
// vm.parallel_queries / vm.morsels deltas that prove the parallel path
// actually ran (both stay zero at workers=1, the serial baseline).
type ParallelStats struct {
	Rows       int64
	Matched    int64
	Workers    int
	ParQueries int64
	Morsels    int64
}

// parallelSetup opens an in-memory database seeded with `rows` rows of
// mixed int/float/string data and pins the worker count. Seeding uses
// multi-row INSERT batches — the benchmarks measure the read path, not
// ingestion. In-memory on purpose: morsel parallelism operates on MVCC
// slot views, not on the WAL.
func parallelSetup(b *testing.B, rows, workers int) *database.DB {
	b.Helper()
	db, err := database.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE bench_par (id INT PRIMARY KEY, v INT, w FLOAT, s STRING)"); err != nil {
		b.Fatal(err)
	}
	const batch = 500
	var sb strings.Builder
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		sb.Reset()
		sb.WriteString("INSERT INTO bench_par (id, v, w, s) VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			// Deterministic pseudo-random payload (the retired vm suite's
			// recipe, so results/BENCH_8.json stays comparable).
			v := (i * 7919) % 1000
			fmt.Fprintf(&sb, "(%d, %d, %d.%d, 'tag%d')", i, v, (v%100)/10, v%10, i%17)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	db.SetParallelism(workers)
	return db
}

// parallelRun drives b.N executions of q and collects the stats deltas.
func parallelRun(b *testing.B, db *database.DB, q string, rows, workers int) ParallelStats {
	b.Helper()
	pq := db.Metrics().Counter("vm.parallel_queries")
	mo := db.Metrics().Counter("vm.morsels")
	pq0, mo0 := pq.Value(), mo.Value()
	var matched int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		matched = len(res.Rows)
	}
	b.StopTimer()
	return ParallelStats{
		Rows:       int64(rows),
		Matched:    int64(matched),
		Workers:    workers,
		ParQueries: pq.Value() - pq0,
		Morsels:    mo.Value() - mo0,
	}
}

// ParallelScan runs b.N filtered full scans with projection pushdown —
// the first morsel-parallel hot shape. The reorder buffer keeps the
// result byte-identical to the serial plan, so Matched is invariant
// across worker counts.
func ParallelScan(b *testing.B, rows, workers int) ParallelStats {
	b.Helper()
	db := parallelSetup(b, rows, workers)
	const q = "SELECT id, v FROM bench_par WHERE (v * 3 + id) % 7 = 0 AND v < 900"
	return parallelRun(b, db, q, rows, workers)
}

// ParallelAgg runs b.N global aggregate scans — the second hot shape:
// per-worker partial fold states merged at gather. COUNT/SUM over INT
// and MIN/MAX over FLOAT are statically merge-safe, so no serial refold
// triggers and the measurement reflects the pure parallel fold.
func ParallelAgg(b *testing.B, rows, workers int) ParallelStats {
	b.Helper()
	db := parallelSetup(b, rows, workers)
	const q = "SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM bench_par WHERE v % 7 != 0"
	return parallelRun(b, db, q, rows, workers)
}

// ParallelGroupAgg runs b.N grouped aggregates over a low-cardinality
// key (17 groups, well under the parallel group cap), exercising the
// per-worker state-slab merge in range order.
func ParallelGroupAgg(b *testing.B, rows, workers int) ParallelStats {
	b.Helper()
	db := parallelSetup(b, rows, workers)
	const q = "SELECT s, COUNT(*), SUM(v) FROM bench_par GROUP BY s"
	return parallelRun(b, db, q, rows, workers)
}
