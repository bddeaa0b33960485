package main

import (
	"time"

	"ediflow/internal/metrics"
)

// hookReading is a point-in-time reading of the benchmark-owned fs and net
// wrappers.
type hookReading struct {
	fsCalls, fsBytes, fsNS int64
	syncs                  int
	netBytes, netWrites    int64
}

func (h *hooks) read() hookReading {
	if h == nil {
		return hookReading{}
	}
	h.fs.mu.Lock()
	syncs := len(h.fs.syncs)
	h.fs.mu.Unlock()
	return hookReading{
		fsCalls: h.fs.writeCalls.Load(), fsBytes: h.fs.writeBytes.Load(), fsNS: h.fs.writeNS.Load(),
		syncs:    syncs,
		netBytes: h.net.bytes.Load(), netWrites: h.net.writes.Load(),
	}
}

// region brackets the measured region of a traced pass: the program's
// counters, the hook counters and the wall clock at both ends.
type region struct {
	start, end time.Time
	c0, c1     counters
	h0, h1     hookReading
}

func readAll(regs []*metrics.Registry) counters {
	out := counters{}
	for _, r := range regs {
		for k, v := range readCounters(r) {
			out[k] = v
		}
	}
	return out
}

// histSumMS is how many milliseconds a latency histogram accumulated over
// the region.
func (r *region) histSumMS(name string) float64 {
	return float64(r.c1[name].Hist.Sum-r.c0[name].Hist.Sum) / float64(time.Millisecond)
}

func (r *region) d(name string) float64 { return r.c1.delta(r.c0, name) }

// countLayers fills every per-layer metric that is a delta of a program
// counter (or of a benchmark-owned wrapper) over the measured region. A
// layer the workload does not touch reads 0. checkpoints is how many
// checkpoints the driver called; userBytes is how many bytes of column
// values the driver's DML carried.
func countLayers(e *env, m *measured, rg *region, checkpoints int, userBytes int64, out map[string]float64) {
	ops := float64(m.ops)
	stmts := rg.d("engine.statements")
	selects := float64(rg.c1["engine.select_latency"].Count - rg.c0["engine.select_latency"].Count)
	commits := rg.d("wal.commits")

	out["server.requests_per_op"] = rg.d("server.requests") / ops
	out["server.txn_wait_ms_total"] = rg.histSumMS("server.txn_wait")
	out["net.bytes_per_op"] = float64(rg.h1.netBytes-rg.h0.netBytes) / ops
	out["net.writes_per_op"] = float64(rg.h1.netWrites-rg.h0.netWrites) / ops

	out["engine.rows_scanned_per_row_returned"] = ratio(rg.d("engine.rows_scanned"), rg.d("engine.rows_returned"))
	out["engine.plan_cache_hit_ratio"] = ratio(rg.d("engine.plan_cache_hit"), rg.d("engine.plan_cache_hit")+rg.d("engine.plan_cache_miss"))
	out["vm.rows_per_query"] = ratio(rg.d("vm.rows"), selects)
	out["vm.fallback_per_kstmt"] = ratio(rg.d("vm.fallback")*1000, stmts)
	out["vm.compile_per_kstmt"] = ratio(rg.d("vm.compile")*1000, stmts)
	out["vm.parallel_query_share"] = ratio(rg.d("vm.parallel_queries"), selects)
	out["vm.morsels_per_query"] = ratio(rg.d("vm.morsels"), rg.d("vm.parallel_queries"))

	out["storage.wal_bytes_per_commit"] = ratio(rg.d("wal.bytes"), commits)
	out["storage.fsyncs_per_commit"] = ratio(rg.d("wal.fsyncs"), commits)
	out["storage.group_commit_size_avg"] = ratio(commits, rg.d("wal.group_commits"))
	out["storage.vacuumed_per_checkpoint"] = ratio(rg.d("mvcc.vacuumed"), float64(checkpoints))
	out["storage.mvcc_versions_end"] = float64(rg.c1["mvcc.versions"].Count)
	out["storage.wal_bytes_per_user_byte"] = ratio(float64(rg.h1.fsBytes-rg.h0.fsBytes), float64(userBytes))
	out["fs.write_calls_per_commit"] = ratio(float64(rg.h1.fsCalls-rg.h0.fsCalls), commits)
	out["fs.write_ms_total"] = float64(rg.h1.fsNS-rg.h0.fsNS) / float64(time.Millisecond)
	if e.hooks != nil {
		syncs := e.hooks.fs.syncSamples()
		if rg.h1.syncs <= len(syncs) {
			out["fs.sync_ms_p50"] = quantile(sortedCopy(durationsMS(syncs[rg.h0.syncs:rg.h1.syncs])), 0.5)
		}
	}

	out["react.deltas_per_batch"] = ratio(rg.d("react.deltas"), rg.d("react.batches"))
	out["react.coalesced_share"] = ratio(rg.d("react.coalesced"), rg.d("react.deltas"))
	out["react.blocked_per_kbatch"] = ratio(rg.d("react.blocked")*1000, rg.d("react.batches"))
	out["react.shed"] = rg.d("react.shed")
	out["react.policy_escalations"] = rg.d("react.policy_escalations")

	out["notify.lines_per_op"] = rg.d("notify.sent") / ops
	out["notify.coalesced_share"] = ratio(rg.d("notify.coalesced"), rg.d("notify.coalesced")+rg.d("notify.sent"))
	out["notify.dropped_lines"] = rg.d("notify.dropped_lines")

	out["tablesync.rows_fetched_per_refresh"] = ratio(rg.d("tablesync.rows_fetched"), rg.d("tablesync.refreshes"))
	out["tablesync.notifications_per_refresh"] = ratio(rg.d("tablesync.notifications"), rg.d("tablesync.refreshes"))
}

// spanStats indexes the spans of the measured region by name.
type spanStats struct {
	self map[string][]float64 // self times, ms
	dur  map[string][]float64 // full durations, ms
}

// regionSpans keeps the spans that started inside the measured region and
// computes their self times.
func regionSpans(e *env, rg *region) spanStats {
	lo, hi := int64(rg.start.Sub(e.tr.t0)), int64(rg.end.Sub(e.tr.t0))
	var in []span
	for _, s := range e.tr.snapshot() {
		if s.Start >= lo && s.Start <= hi {
			in = append(in, s)
		}
	}
	st := spanStats{self: selfByName(in), dur: map[string][]float64{}}
	for _, s := range in {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.End-s.Start)/float64(time.Millisecond))
	}
	return st
}

// allSpans is regionSpans over the whole pass, set-up included.
func allSpans(e *env) spanStats {
	return regionSpans(e, &region{start: e.tr.t0, end: time.Now()})
}

func (st spanStats) selfP50(name string) float64 { return quantile(sortedCopy(st.self[name]), 0.5) }
func (st spanStats) durP50(name string) float64  { return quantile(sortedCopy(st.dur[name]), 0.5) }
