package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ediflow/internal/catalog"
	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
	"ediflow/internal/wire"
)

// A probe replays one layer's exported function on inputs the traced
// workload recorded, after the workload has finished. It isolates a layer
// that the spans can only see from the far side of a socket or an Exec.

// recorder keeps, per statement kind, how often the workload issued it and
// a few samples of its text, arguments and results. It exists only in the
// traced pass.
type recorder struct {
	kinds map[string]*recorded
}

type recorded struct {
	count   int
	stmts   []recordedStmt
	results []*engine.Result
}

type recordedStmt struct {
	sql  string
	args []types.Value
}

const samplesPerKind = 8

func (r *recorder) get(kind string) *recorded {
	rec := r.kinds[kind]
	if rec == nil {
		rec = &recorded{}
		r.kinds[kind] = rec
	}
	return rec
}

func (r *recorder) stmt(kind, sql string, args []types.Value) {
	if r == nil {
		return
	}
	rec := r.get(kind)
	rec.count++
	if len(rec.stmts) < samplesPerKind {
		rec.stmts = append(rec.stmts, recordedStmt{sql, append([]types.Value(nil), args...)})
	}
}

func (r *recorder) result(kind string, res *engine.Result) {
	if r == nil || res == nil {
		return
	}
	if rec := r.get(kind); len(rec.results) < samplesPerKind {
		rec.results = append(rec.results, res)
	}
}

func (r *recorder) sortedKinds() []string {
	kinds := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// weightedP50 is the median of per-kind values weighted by how often the
// workload issued each kind (the upper median when two kinds split the
// weight evenly, so a large result is not hidden behind a small one).
func weightedP50(values map[string]float64, weights map[string]int) float64 {
	type vw struct {
		v float64
		w int
	}
	var xs []vw
	total := 0
	for k, v := range values {
		xs = append(xs, vw{v, weights[k]})
		total += weights[k]
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	seen := 0
	for _, x := range xs {
		seen += x.w
		if 2*seen > total {
			return x.v
		}
	}
	return 0
}

const probeReps = 25

// timeReps returns the median duration of reps calls of fn and the bytes
// one call allocates.
func timeReps(reps int, fn func()) (time.Duration, float64) {
	ds := make([]float64, reps)
	a0 := allocBytes()
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	alloc := float64(allocBytes()-a0) / float64(reps)
	return time.Duration(median(ds)), alloc
}

// probeParse times sqltext.Parse over the workload's statement texts,
// weighted by how often each kind was issued.
func probeParse(r *recorder, out map[string]float64) error {
	us, weights := map[string]float64{}, map[string]int{}
	var allocSum, allocWeight float64
	for _, kind := range r.sortedKinds() {
		rec := r.kinds[kind]
		if len(rec.stmts) == 0 {
			continue
		}
		var perText, perAlloc []float64
		for _, st := range rec.stmts {
			var err error
			d, alloc := timeReps(probeReps, func() { _, err = sqltext.Parse(st.sql) })
			if err != nil {
				return fmt.Errorf("parse probe: %s: %w", kind, err)
			}
			perText = append(perText, float64(d)/float64(time.Microsecond))
			perAlloc = append(perAlloc, alloc/1024)
		}
		us[kind], weights[kind] = median(perText), rec.count
		allocSum += median(perAlloc) * float64(rec.count)
		allocWeight += float64(rec.count)
	}
	out["sqltext.parse_us_p50"] = weightedP50(us, weights)
	out["sqltext.parse_alloc_kb"] = ratio(allocSum, allocWeight)
	return nil
}

// probeWire times the wire codec on the recorded requests and results:
// encode+decode of an Exec frame, EncodeResult and DecodeResult.
func probeWire(r *recorder, out map[string]float64) error {
	codec, enc, dec := map[string]float64{}, map[string]float64{}, map[string]float64{}
	wStmt, wRes := map[string]int{}, map[string]int{}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, kind := range r.sortedKinds() {
		rec := r.kinds[kind]
		var cs, es, ds []float64
		for _, st := range rec.stmts {
			var err error
			d, _ := timeReps(probeReps, func() { _, _, _, err = wire.DecodeExec(wire.EncodeExec(false, st.sql, st.args)) })
			if err != nil {
				return fmt.Errorf("wire probe: %s: %w", kind, err)
			}
			cs = append(cs, us(d))
		}
		for _, res := range rec.results {
			var payload []byte
			d, _ := timeReps(probeReps, func() { payload = wire.EncodeResult(res) })
			es = append(es, us(d))
			var err error
			d, _ = timeReps(probeReps, func() { _, err = wire.DecodeResult(payload) })
			if err != nil {
				return fmt.Errorf("wire probe: %s: %w", kind, err)
			}
			ds = append(ds, us(d))
		}
		if len(cs) > 0 {
			codec[kind], wStmt[kind] = median(cs), rec.count
		}
		if len(es) > 0 {
			enc[kind], dec[kind], wRes[kind] = median(es), median(ds), rec.count
		}
	}
	out["wire.exec_codec_us_p50"] = weightedP50(codec, wStmt)
	out["wire.encode_result_us_p50"] = weightedP50(enc, wRes)
	out["wire.decode_result_us_p50"] = weightedP50(dec, wRes)
	return nil
}

// probeCommit times Store.Insert + Store.Commit on a scratch store with
// fsync on every commit: the storage layer's share of one durable write,
// without engine, triggers or wire.
func probeCommit(dir string, out map[string]float64) error {
	st, err := storage.OpenWith(filepath.Join(dir, "probe-commit"), storage.Options{Sync: storage.SyncCommit})
	if err != nil {
		return err
	}
	defer st.Close()
	schema := &catalog.TableSchema{Name: "probe", Columns: []catalog.Column{
		{Name: "id", Type: types.KindInt, PrimaryKey: true}, {Name: "name", Type: types.KindString}}}
	if err := st.CreateTable(schema); err != nil {
		return err
	}
	ds := make([]float64, 300)
	for i := range ds {
		row := types.Row{types.NewInt(int64(i)), types.NewString(ecName(int64(i), 0))}
		t0 := time.Now()
		if _, _, err := st.Insert("probe", row); err != nil {
			return err
		}
		if err := st.Commit(); err != nil {
			return err
		}
		ds[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	out["storage.commit_us_p50"] = median(ds)
	return nil
}

type querier interface {
	Query(string, ...types.Value) (*engine.Result, error)
}

// probeWireOverhead is server.wire_overhead_ms_p50: the same point SELECT
// over the wire and on the embedded handle of the same database; the
// difference of the medians is what client, wire and server add.
func probeWireOverhead(remote, embedded querier, sql string, keys []int64, out map[string]float64) error {
	run := func(c querier) (float64, error) {
		ds := make([]float64, len(keys))
		for i, k := range keys {
			t0 := time.Now()
			if _, err := c.Query(sql, types.NewInt(k)); err != nil {
				return 0, err
			}
			ds[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		}
		return median(ds), nil
	}
	overWire, err := run(remote)
	if err != nil {
		return err
	}
	direct, err := run(embedded)
	if err != nil {
		return err
	}
	out["server.wire_overhead_ms_p50"] = overWire - direct
	return nil
}

// probeMetrics measures the program's own instrumentation: the time of one
// Registry.Snapshot and the slowdown of 10,000 point selects with timed
// instrumentation enabled against disabled, in alternating blocks so that
// drift hits both sides alike.
func probeMetrics(db *database.DB, sql string, keys int64, out map[string]float64) error {
	reg := db.Metrics()
	snaps := make([]float64, 200)
	for i := range snaps {
		t0 := time.Now()
		reg.Snapshot()
		snaps[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	out["metrics.snapshot_us_p50"] = median(snaps)

	const blocks, perBlock = 10, 1000
	var on, off []float64
	defer reg.SetEnabled(true)
	for b := 0; b < 2*blocks; b++ {
		enabled := b%2 == 0
		reg.SetEnabled(enabled)
		t0 := time.Now()
		for i := 0; i < perBlock; i++ {
			if _, err := db.Query(sql, types.NewInt(int64(b*perBlock+i)*7919%keys)); err != nil {
				return err
			}
		}
		d := float64(time.Since(t0))
		if enabled {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	out["metrics.overhead_frac"] = median(on)/median(off) - 1
	return nil
}
