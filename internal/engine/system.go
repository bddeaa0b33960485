package engine

import (
	"strings"
	"time"

	"ediflow/internal/metrics"
	"ediflow/internal/types"
)

// Virtual system tables expose the metrics catalog through ordinary SQL:
// `SELECT * FROM sys_metrics` works identically embedded and over the
// wire, so the observability surface is the query language itself — the
// same move the paper makes for notifications (ef_notification is just a
// table). Virtual tables are computed at query time, never stored, and
// shadow real tables of the same name.

// Metrics returns the engine's metrics registry (shared with the store;
// adopted by server and notifier).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// SlowLog returns the engine's slow-query ring buffer.
func (e *Engine) SlowLog() *metrics.SlowLog { return e.slow }

// RegisterVirtual installs (or replaces) a virtual table. fn may run
// with no engine lock held (lock-free SELECTs), so it must be internally
// synchronized and must not re-enter the engine. Plans resolve FROM
// entries once, so installing one purges them.
func (e *Engine) RegisterVirtual(name string, cols []string, fn func() []types.Row) {
	lc := make([]string, len(cols))
	for i, c := range cols {
		lc[i] = strings.ToLower(c)
	}
	e.virtMu.Lock()
	e.virtual[strings.ToLower(name)] = &virtualTable{cols: lc, fn: fn}
	e.virtMu.Unlock()
	e.plans.purge()
}

// lookupVirtual resolves a virtual table; SELECTs call it without the
// engine lock.
func (e *Engine) lookupVirtual(name string) *virtualTable {
	e.virtMu.RLock()
	defer e.virtMu.RUnlock()
	return e.virtual[strings.ToLower(name)]
}

// SysMetricsColumns is the schema of sys_metrics. Counter and gauge rows
// carry NULL latency columns; histogram rows carry NULL in none.
var SysMetricsColumns = []string{
	"name", "kind", "count", "sum_ms", "avg_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
}

// SysSlowQueriesColumns is the schema of sys_slow_queries.
var SysSlowQueriesColumns = []string{
	"seq", "ts", "sql", "ms", "rows_scanned", "rows_returned", "err",
}

// SysSessionsColumns is the schema of sys_sessions. The embedded engine
// serves an empty relation; the network server replaces the provider
// with its live session list.
var SysSessionsColumns = []string{
	"id", "remote", "client", "started", "last_active",
	"statements", "errors", "in_txn", "frames_in", "bytes_in", "bytes_out",
}

func (e *Engine) registerSystemTables() {
	reg, slow := e.reg, e.slow
	e.virtual["sys_metrics"] = &virtualTable{cols: SysMetricsColumns, fn: func() []types.Row {
		samples := reg.Snapshot()
		rows := make([]types.Row, 0, len(samples))
		for _, s := range samples {
			if s.Kind == "histogram" {
				h := s.Hist
				rows = append(rows, types.Row{
					types.NewString(s.Name), types.NewString(s.Kind), types.NewInt(h.Count),
					msVal(h.Sum), msVal(h.Avg()), msVal(h.P50), msVal(h.P95), msVal(h.P99), msVal(h.Max),
				})
				continue
			}
			rows = append(rows, types.Row{
				types.NewString(s.Name), types.NewString(s.Kind), types.NewInt(s.Count),
				types.Null, types.Null, types.Null, types.Null, types.Null, types.Null,
			})
		}
		return rows
	}}
	e.virtual["sys_slow_queries"] = &virtualTable{cols: SysSlowQueriesColumns, fn: func() []types.Row {
		entries := slow.Snapshot()
		rows := make([]types.Row, 0, len(entries))
		for _, en := range entries {
			var errV types.Value = types.Null
			if en.Err != "" {
				errV = types.NewString(en.Err)
			}
			rows = append(rows, types.Row{
				types.NewInt(en.Seq), types.NewInt(en.TS), types.NewString(en.SQL),
				types.NewFloat(float64(en.Duration) / float64(time.Millisecond)),
				types.NewInt(en.RowsScanned), types.NewInt(en.RowsReturned), errV,
			})
		}
		return rows
	}}
	e.virtual["sys_sessions"] = &virtualTable{cols: SysSessionsColumns, fn: func() []types.Row {
		return nil // embedded engine has no network sessions
	}}
}

func msVal(d time.Duration) types.Value {
	return types.NewFloat(float64(d) / float64(time.Millisecond))
}
