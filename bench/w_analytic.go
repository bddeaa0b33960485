package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/metrics"
	"ediflow/internal/types"
)

// analytic_redraw: the read side. One embedded caller redraws a dashboard
// over an in-memory store, closed loop: no wire, no WAL, no notify. A deck
// is one redraw — every query family of the engine once or more, with
// brush parameters that rotate deterministically from the seed.
const (
	arFactRows  = 65536 // four 16k morsels, above the 32,768-slot parallel threshold
	arEdges     = 6000
	arPositions = 4500
	arLoadBatch = 512
	arKeys      = 1000   // distinct values of fact.k
	arVRange    = 100000 // fact.v is uniform in [0, arVRange)
	arCats      = 32     // distinct values of fact.s
	arBrushes   = 8      // distinct brush settings a run rotates through
	arGroupSpan = 400    // GROUP BY s covers this many of the arKeys keys
	arWarmup    = 10
	// arDecksPerSec sizes the measured region: decks per second of run budget.
	arDecksPerSec = 7

	// Repeat counts of the deck, chosen once at the seed commit so that each
	// of the five families (scan, fold, grouped fold, join, top-k) takes
	// between 10 % and 30 % of deck time (README.md has the measured
	// shares). Frozen: changing them changes what a deck is.
	arScanRepeats = 4
	arFoldRepeats = 2
	arPoints      = 20
)

const (
	arScanSQL   = "SELECT id, v, w FROM fact WHERE k >= ? AND k < ? AND v < ?"
	arFoldSQL   = "SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM fact WHERE k >= ? AND k < ?"
	arGroupSSQL = "SELECT s, COUNT(*), SUM(v) FROM fact WHERE k >= ? AND k < ? GROUP BY s ORDER BY s"
	arGroupKSQL = "SELECT k, COUNT(*), MAX(v) FROM fact WHERE v < ? GROUP BY k ORDER BY k"
	arTopKSQL   = "SELECT id, v FROM fact WHERE k >= ? ORDER BY v DESC, id LIMIT 100"
	arJoinSQL   = "SELECT e.src, e.dst, p1.x, p1.y, p2.x, p2.y FROM edges e JOIN positions p1 ON e.src = p1.obj_id JOIN positions p2 ON e.dst = p2.obj_id WHERE e.weight >= ?"
	arPointSQL  = "SELECT v, w, s FROM fact WHERE id = ?"
)

// arBrush is one setting of the dashboard's brushes.
type arBrush struct {
	scanLo, scanHi [arScanRepeats]int64
	scanV          int64
	foldLo, foldHi [arFoldRepeats]int64
	groupLo        int64 // GROUP BY s covers k in [groupLo, groupLo+arGroupSpan)
	groupV         int64
	topLo          int64
	minWeight      int64
	pointBase      int64
}

// arFamilies are the deck's query families in span-name order.
var arFamilies = []string{"scan", "agg", "group", "join", "topk"}

type analytic struct {
	db *database.DB

	// The driver's own copy of the seeded data: the model every deck
	// result is checked against.
	k, v    []int64
	wcol    []float64
	s       []string
	src     []int64
	dst     []int64
	weight  []int64
	px, py  []float64
	brushes []arBrush

	// sums[d] are the checksums of deck d's results, recorded in the
	// measured region and compared with the model afterwards.
	sums      [][7]checksum
	familyKB  map[string][]float64 // traced: KB allocated per family per deck
	cellBytes float64              // traced: types.bytes_per_cell
}

func (w *analytic) registries() []*metrics.Registry { return []*metrics.Registry{w.db.Metrics()} }

// dyadic returns a multiple of 1/64 below 100: exact in float64, exact in
// six decimals of SQL text, and exact under any order of summation.
func dyadic(r *rng) float64 { return float64(r.intn(6400)) / 64 }

func (w *analytic) setup(e *env) error {
	cfg := e.cfg
	r := newRNG(cfg.Seed, "analytic_redraw")
	db, err := database.Open("")
	if err != nil {
		return err
	}
	w.db = db
	for _, ddl := range []string{
		"CREATE TABLE fact (id INT PRIMARY KEY, k INT, v INT, w FLOAT, s STRING)",
		"CREATE TABLE edges (src INT, dst INT, weight INT)",
		"CREATE TABLE positions (obj_id INT PRIMARY KEY, x FLOAT, y FLOAT)",
	} {
		e.stmt("ddl", ddl)
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}

	nFact := cfg.volume(arFactRows, 2048)
	w.k, w.v = make([]int64, nFact), make([]int64, nFact)
	w.wcol, w.s = make([]float64, nFact), make([]string, nFact)
	for i := 0; i < nFact; i++ {
		w.k[i], w.v[i] = int64(r.intn(arKeys)), int64(r.intn(arVRange))
		w.wcol[i], w.s[i] = dyadic(r), fmt.Sprintf("cat-%02d", r.intn(arCats))
	}
	heap0 := uint64(0)
	if e.tr != nil {
		heap0 = settledHeap()
	}
	err = w.loadRows(e, nFact, "INSERT INTO fact (id, k, v, w, s) VALUES ", func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d, %d, %.6f, '%s')", i, w.k[i], w.v[i], w.wcol[i], w.s[i])
	})
	if err != nil {
		return err
	}
	if e.tr != nil {
		w.cellBytes = float64(settledHeap()-heap0) / float64(nFact*5)
	}

	nPos := cfg.volume(arPositions, 200)
	w.px, w.py = make([]float64, nPos), make([]float64, nPos)
	for i := range w.px {
		w.px[i], w.py[i] = dyadic(r), dyadic(r)
	}
	err = w.loadRows(e, nPos, "INSERT INTO positions (obj_id, x, y) VALUES ", func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %.6f, %.6f)", i, w.px[i], w.py[i])
	})
	if err != nil {
		return err
	}
	nEdges := cfg.volume(arEdges, 800)
	w.src, w.dst, w.weight = make([]int64, nEdges), make([]int64, nEdges), make([]int64, nEdges)
	for i := range w.src {
		w.src[i], w.dst[i], w.weight[i] = int64(r.intn(nPos)), int64(r.intn(nPos)), int64(1+r.intn(10))
	}
	err = w.loadRows(e, nEdges, "INSERT INTO edges (src, dst, weight) VALUES ", func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d, %d)", w.src[i], w.dst[i], w.weight[i])
	})
	if err != nil {
		return err
	}

	// Brush settings: fixed widths (so every seed scans, folds and returns
	// about the same volume) at seeded offsets.
	w.brushes = make([]arBrush, arBrushes)
	for b := range w.brushes {
		br := &w.brushes[b]
		for i := range br.scanLo {
			br.scanLo[i] = int64(r.intn(arKeys - 150))
			br.scanHi[i] = br.scanLo[i] + 150
		}
		for i := range br.foldLo {
			br.foldLo[i] = int64(r.intn(arKeys - 500))
			br.foldHi[i] = br.foldLo[i] + 500
		}
		br.scanV = int64(arVRange*6/10 + r.intn(arVRange/10))
		br.groupLo = int64(r.intn(arKeys - arGroupSpan))
		br.groupV = int64(arVRange*3/10 + r.intn(arVRange/10))
		br.topLo = int64(arKeys*4/10 + r.intn(arKeys/10))
		br.minWeight = int64(5 + r.intn(2))
		br.pointBase = int64(r.intn(nFact))
	}

	for d := 0; d < cfg.volume(arWarmup, 2); d++ {
		if _, err := w.deck(e, d, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *analytic) loadRows(e *env, n int, head string, row func(*strings.Builder, int)) error {
	var sb strings.Builder
	for lo := 0; lo < n; lo += arLoadBatch {
		sb.Reset()
		sb.WriteString(head)
		for i := lo; i < lo+arLoadBatch && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			row(&sb, i)
		}
		e.stmt("load", sb.String())
		if _, err := w.db.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// query runs one deck query. In the traced pass it is one span of its
// family under the deck's root span, and its allocation is attributed to
// the family.
func (w *analytic) query(e *env, family string, root, inter int64, sum *checksum, ordered bool, sql string, args ...types.Value) error {
	e.stmt(family, sql, args...)
	var a0 uint64
	var t0 time.Time
	sized := e.tr != nil && inter != 0 && family != "point"
	if sized {
		a0 = allocBytes()
	}
	if e.tr != nil {
		t0 = time.Now()
	}
	res, err := w.db.Query(sql, args...)
	if err != nil {
		return fmt.Errorf("%s: %w", family, err)
	}
	if e.tr != nil {
		e.tr.add(0, root, inter, "engine."+family, t0, time.Now())
		if sized {
			w.familyKB[family][len(w.familyKB[family])-1] += float64(allocBytes()-a0) / 1024
		}
	}
	foldRows(sum, res, ordered)
	return nil
}

// foldRows folds a result into sum: in row order when the query fixes it,
// commutatively otherwise, so that the check does not depend on an order
// the SQL does not promise.
func foldRows(sum *checksum, res *engine.Result, ordered bool) {
	sum.u64(uint64(len(res.Rows)))
	var acc uint64
	for _, r := range res.Rows {
		row := checksum(14695981039346656037)
		for i := range r {
			row.value(&r[i])
		}
		if ordered {
			sum.u64(uint64(row))
		} else {
			acc += uint64(row)
		}
	}
	sum.u64(acc)
}

// deck runs one dashboard redraw and returns its latency. sums, when not
// nil, receives the checksum of each of the seven result sets.
func (w *analytic) deck(e *env, d int, inter int64, sums *[7]checksum) (time.Duration, error) {
	br := &w.brushes[d%len(w.brushes)]
	var scratch [7]checksum
	if sums == nil {
		sums = &scratch
	}
	root := e.tr.newID()
	if e.tr != nil && inter != 0 {
		for _, f := range arFamilies {
			w.familyKB[f] = append(w.familyKB[f], 0)
		}
	}
	n := int64(len(w.k))
	t0 := time.Now()
	var err error
	step := func(family string, slot int, ordered bool, sql string, args ...types.Value) {
		if err == nil {
			err = w.query(e, family, root, inter, &sums[slot], ordered, sql, args...)
		}
	}
	for i := 0; i < arScanRepeats; i++ {
		step("scan", 0, false, arScanSQL, types.NewInt(br.scanLo[i]), types.NewInt(br.scanHi[i]), types.NewInt(br.scanV))
	}
	for i := 0; i < arFoldRepeats; i++ {
		step("agg", 1, true, arFoldSQL, types.NewInt(br.foldLo[i]), types.NewInt(br.foldHi[i]))
	}
	step("group", 2, true, arGroupSSQL, types.NewInt(br.groupLo), types.NewInt(br.groupLo+arGroupSpan))
	step("group", 3, true, arGroupKSQL, types.NewInt(br.groupV))
	step("topk", 4, true, arTopKSQL, types.NewInt(br.topLo))
	step("join", 5, false, arJoinSQL, types.NewInt(br.minWeight))
	for j := int64(0); j < arPoints; j++ {
		step("point", 6, true, arPointSQL, types.NewInt((br.pointBase+j*3203)%n))
	}
	t1 := time.Now()
	if inter != 0 {
		e.tr.add(root, 0, inter, "interaction", t0, t1)
	}
	return t1.Sub(t0), err
}

func (w *analytic) measure(e *env) (*measured, error) {
	n := e.cfg.count(arDecksPerSec, 12)
	m := &measured{ops: n, latencies: make([]time.Duration, 0, n)}
	w.sums = make([][7]checksum, n)
	w.familyKB = map[string][]float64{}
	done := make([]time.Duration, 0, n)
	start := time.Now()
	for d := 0; d < n; d++ {
		m.attempted++
		lat, err := w.deck(e, d, int64(d+1), &w.sums[d])
		if err != nil || lat > interactionTimeout {
			m.failed++
		} else {
			m.latencies = append(m.latencies, lat)
		}
		done = append(done, time.Since(start))
	}
	m.throughput = segmentMedianRate(done, 1)
	return m, nil
}

// model computes the seven checksums a deck with brush br must produce,
// from the driver's copy of the data, with no help from the engine.
func (w *analytic) model(br *arBrush) [7]checksum {
	var out [7]checksum
	fold := func(slot int, ordered bool, rows []types.Row) {
		foldRows(&out[slot], &engine.Result{Rows: rows}, ordered)
	}
	I, F, S := types.NewInt, types.NewFloat, types.NewString
	n := len(w.k)

	for i := 0; i < arScanRepeats; i++ {
		var rows []types.Row
		for id := 0; id < n; id++ {
			if w.k[id] >= br.scanLo[i] && w.k[id] < br.scanHi[i] && w.v[id] < br.scanV {
				rows = append(rows, types.Row{I(int64(id)), I(w.v[id]), F(w.wcol[id])})
			}
		}
		fold(0, false, rows)
	}
	for i := 0; i < arFoldRepeats; i++ {
		cnt, sum, lo, hi := int64(0), int64(0), 0.0, 0.0
		for id := 0; id < n; id++ {
			if w.k[id] >= br.foldLo[i] && w.k[id] < br.foldHi[i] {
				if cnt == 0 || w.wcol[id] < lo {
					lo = w.wcol[id]
				}
				if cnt == 0 || w.wcol[id] > hi {
					hi = w.wcol[id]
				}
				cnt++
				sum += w.v[id]
			}
		}
		fold(1, true, []types.Row{{I(cnt), I(sum), F(lo), F(hi)}})
	}
	{
		cnt, sum := map[string]int64{}, map[string]int64{}
		for id := 0; id < n; id++ {
			if w.k[id] >= br.groupLo && w.k[id] < br.groupLo+arGroupSpan {
				cnt[w.s[id]]++
				sum[w.s[id]] += w.v[id]
			}
		}
		keys := make([]string, 0, len(cnt))
		for s := range cnt {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		rows := make([]types.Row, 0, len(keys))
		for _, s := range keys {
			rows = append(rows, types.Row{S(s), I(cnt[s]), I(sum[s])})
		}
		fold(2, true, rows)
	}
	{
		cnt, top := make([]int64, arKeys), make([]int64, arKeys)
		for id := 0; id < n; id++ {
			if w.v[id] < br.groupV {
				k := w.k[id]
				if cnt[k] == 0 || w.v[id] > top[k] {
					top[k] = w.v[id]
				}
				cnt[k]++
			}
		}
		var rows []types.Row
		for k := range cnt {
			if cnt[k] > 0 {
				rows = append(rows, types.Row{I(int64(k)), I(cnt[k]), I(top[k])})
			}
		}
		fold(3, true, rows)
	}
	{
		var ids []int
		for id := 0; id < n; id++ {
			if w.k[id] >= br.topLo {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			if w.v[ids[a]] != w.v[ids[b]] {
				return w.v[ids[a]] > w.v[ids[b]]
			}
			return ids[a] < ids[b]
		})
		if len(ids) > 100 {
			ids = ids[:100]
		}
		rows := make([]types.Row, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, types.Row{I(int64(id)), I(w.v[id])})
		}
		fold(4, true, rows)
	}
	{
		var rows []types.Row
		for i := range w.src {
			if w.weight[i] >= br.minWeight {
				a, b := w.src[i], w.dst[i]
				rows = append(rows, types.Row{I(a), I(b), F(w.px[a]), F(w.py[a]), F(w.px[b]), F(w.py[b])})
			}
		}
		fold(5, false, rows)
	}
	for j := int64(0); j < arPoints; j++ {
		id := (br.pointBase + j*3203) % int64(n)
		fold(6, true, []types.Row{{I(w.v[id]), F(w.wcol[id]), S(w.s[id])}})
	}
	return out
}

func (w *analytic) verify(e *env, m *measured) {
	want := make([][7]checksum, len(w.brushes))
	for b := range w.brushes {
		want[b] = w.model(&w.brushes[b])
	}
	names := [7]string{"scan", "fold", "group by s", "group by k", "top-k", "join", "point selects"}
	bad := [7]int{}
	for d, got := range w.sums {
		for q := range got {
			if got[q] != want[d%len(w.brushes)][q] {
				bad[q]++
			}
		}
	}
	for q, name := range names {
		e.checks.add("deck "+name+" ≡ model", bad[q] == 0, "%d of %d decks disagree", bad[q], len(w.sums))
	}
	checkCounters(&e.checks, w.db.Metrics())
}

func (w *analytic) layers(e *env, m *measured, out map[string]float64) error {
	countLayers(e, m, e.rg, 0, 0, out)
	st := regionSpans(e, e.rg)
	for _, f := range arFamilies {
		out["engine."+f+"_ms_p50"] = st.selfP50("engine." + f)
		out["engine."+f+"_alloc_kb"] = median(w.familyKB[f])
	}
	out["engine.point_us_p50"] = st.selfP50("engine.point") * 1000
	out["types.bytes_per_cell"] = w.cellBytes
	// Each family's share of deck time: the figure the deck's repeat
	// counts were chosen by.
	total := 0.0
	shares := map[string]float64{}
	for _, f := range append([]string{"point"}, arFamilies...) {
		for _, x := range st.self["engine."+f] {
			shares[f] += x
			total += x
		}
	}
	for f, x := range shares {
		e.info["deck_share_"+f] = x / total
	}
	if err := probeParse(e.rec, out); err != nil {
		return err
	}
	return probeMetrics(w.db, arPointSQL, int64(len(w.k)), out)
}

func (w *analytic) close() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
