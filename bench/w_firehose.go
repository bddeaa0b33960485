package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ediflow/internal/engine"
	"ediflow/internal/ivm"
	"ediflow/internal/metrics"
	"ediflow/internal/module"
	"ediflow/internal/sqltext"
	"ediflow/internal/tablesync"
	"ediflow/internal/types"
	"ediflow/internal/wf"
	"ediflow/internal/wf/react"
)

// firehose_reactive: the trigger → IVM → react → NOTIFY → embedded-mirror
// chain under a generator. Embedded, in-memory, one generator goroutine,
// `block` overflow policy. Phase A is open loop at a fixed event rate, which
// the chain must sustain: every batch delivered, the generator never late.
// Phase B is closed loop, as fast as back-pressure allows, and gives the
// throughput and the latency figures: on a shared host an open loop at a
// sustainable rate is mostly idle, every batch starts on a processor that
// has to be woken, and the tail of its latency measures the host (README,
// "Rate of firehose_reactive").
//
// An event is one row change. The statement stream is literal SQL in
// groups of eight 100-row INSERT batches, one single-row UPDATE after
// every fourth batch and one DELETE after the eighth, which removes the
// 800 oldest rows: a sliding window, so the table, the views and the live
// heap stay at the preloaded size however long a phase runs, and a full
// recompute of both views stays cheap enough to check after each phase.
const (
	fhEntities    = 64
	fhPreload     = 100000
	fhWarmup      = 100000
	fhBatch       = 100
	fhGroup       = 8 // batches per group
	fhGroupEvents = fhGroup*fhBatch + 2 + fhGroup*fhBatch
	fhRate        = 4000  // phase A, events per second
	fhPhaseAPerS  = 1000  // phase A events per second of run budget
	fhPhaseBPerS  = 33000 // phase B events per second of run budget
	fhUpdateSpan  = 10000 // an UPDATE picks one of the newest fhUpdateSpan rows
	fhLoadBatch   = 500
	fhTotalsView  = "ev_totals"
	fhHotView     = "ev_hot"
	fhTotalsQuery = "SELECT entity, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY entity"
	fhHotQuery    = "SELECT e.id, n.name, e.v FROM events e JOIN entities n ON e.entity = n.id WHERE e.v >= 990" // 1 % of v in [0, 1000)
)

type firehose struct {
	p      *platform
	router *react.Router
	mirror *tablesync.Mirror
	r      *rng

	// Generator state and the driver's model of the events table.
	nextID  int64 // next event id to insert
	oldest  int64 // oldest live event id
	batchNo int   // batches issued so far, all phases
	entity  []int8
	val     []int16
	count   [fhEntities]int64
	sum     [fhEntities]int64
	events  int64 // row changes issued so far
	sb      strings.Builder

	checkpoints int

	sink fhSink

	// Mirror consumer goroutine.
	stopMirror chan struct{}
	mirrorWG   sync.WaitGroup
	refreshMu  sync.Mutex
	refreshMS  []float64

	// Traced pass.
	dispatchAt []time.Time   // per batch: when the dispatcher reached the observers
	inter      []int64       // per batch of phase B: the id of its group's interaction
	samples    [][]types.Row // recorded INSERT batches, for the IVM probes
	genLagMS   []float64
	drainMS    float64
}

// fhSink is the update-propagation target: the benchmark's own delta
// handler. It keeps the net effect of every delta it was handed, and when
// each INSERT batch reached it.
type fhSink struct {
	w         *firehose
	mu        sync.Mutex
	rows      int64 // net rows: inserted − deleted
	sumV      int64 // net SUM(v)
	delivered []time.Time
}

func (s *fhSink) RouteDelta(_ string, _ wf.UP, d module.Delta) {
	now := time.Now()
	var dv int64
	s.mu.Lock()
	// A batch is delivered the first time one of its rows arrives; a later
	// UPDATE of such a row carries the same batch number and changes
	// nothing. One delta can hold several statements when another
	// committer (the mirror's Ack) happened to be dispatching.
	first, last := -1, -1
	for _, r := range d.Rows {
		dv += r[2].Int()
		if b := int(r[3].Int()); b != last {
			last = b
			if b < len(s.delivered) && s.delivered[b].IsZero() {
				s.delivered[b] = now
				if first < 0 {
					first = b
				}
			}
		}
	}
	for _, r := range d.OldRows {
		dv -= r[2].Int()
	}
	s.rows += int64(len(d.Rows) - len(d.OldRows))
	s.sumV += dv
	s.mu.Unlock()
	if tr := s.w.p.tr; tr != nil && first >= 0 && s.w.inter[first] != 0 {
		tr.add(0, asyncParent, s.w.inter[first], "module.handler", now, time.Now())
	}
}

func (w *firehose) registries() []*metrics.Registry { return []*metrics.Registry{w.p.db.Metrics()} }

func (w *firehose) setup(e *env) error {
	cfg := e.cfg
	w.r = newRNG(cfg.Seed, "firehose_reactive")
	w.sink.w = w
	var observe func([]engine.ChangeEvent)
	if e.tr != nil {
		observe = w.onDispatch
	}
	p, err := openPlatform("", e.hooks, observe)
	if err != nil {
		return err
	}
	p.tr = e.tr
	w.p = p
	db := p.db

	for _, ddl := range []string{
		"CREATE TABLE entities (id INT PRIMARY KEY, name STRING)",
		"CREATE TABLE events (id INT PRIMARY KEY, entity INT, v INT, ts INT)",
	} {
		e.stmt("ddl", ddl)
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	w.sb.Reset()
	w.sb.WriteString("INSERT INTO entities (id, name) VALUES ")
	for i := 0; i < fhEntities; i++ {
		if i > 0 {
			w.sb.WriteString(", ")
		}
		fmt.Fprintf(&w.sb, "(%d, 'entity-%02d')", i, i)
	}
	if err := w.exec(e, "load", w.sb.String()); err != nil {
		return err
	}
	for _, ddl := range []string{
		"CREATE MATERIALIZED VIEW " + fhTotalsView + " AS " + fhTotalsQuery,
		"CREATE MATERIALIZED VIEW " + fhHotView + " AS " + fhHotQuery,
	} {
		if err := w.exec(e, "ddl", ddl); err != nil {
			return err
		}
	}
	w.router = react.NewRouter(db)
	up := wf.UP{Relation: "events", Activity: "ingest", Scope: wf.ScopeRunning, Policy: wf.PolicyBlock}
	if err := w.router.Register("firehose", up, &w.sink); err != nil {
		return err
	}
	t0 := time.Now()
	if w.mirror, err = tablesync.NewMirror(db, "display", fhTotalsView); err != nil {
		return err
	}
	e.tr.add(0, 0, 0, "tablesync.initial_load", t0, time.Now())
	w.startMirror()

	// Size the model for every id this pass can allocate.
	warm := cfg.volume(fhWarmup, 2*fhGroupEvents)
	total := cfg.volume(fhPreload, 2000) + warm + cfg.count(fhPhaseAPerS, 4*fhGroupEvents) + cfg.count(fhPhaseBPerS, 6*fhGroupEvents) + 4*fhGroupEvents
	w.entity, w.val = make([]int8, total+1), make([]int16, total+1)
	w.sink.delivered = make([]time.Time, total/fhBatch+fhGroup)
	w.dispatchAt = make([]time.Time, len(w.sink.delivered))
	w.inter = make([]int64, len(w.sink.delivered))
	w.nextID, w.oldest = 1, 1

	// Preload in plain INSERT batches, then warm up through the same
	// statement stream the phases use.
	for n := cfg.volume(fhPreload, 2000); w.nextID <= int64(n); {
		if err := w.exec(e, "load", w.insertSQL(fhLoadBatch)); err != nil {
			return err
		}
		w.batchNo++
	}
	for n := w.events + int64(warm); w.events < n; {
		if _, _, err := w.group(e, nil, 0, 0); err != nil {
			return err
		}
	}
	return w.converge(e, "warm-up")
}

// onDispatch is a batch observer registered ahead of the notifier's: it
// runs right after the UP triggers have queued the delta, so the time
// from here to the handler is the react queue.
func (w *firehose) onDispatch(events []engine.ChangeEvent) {
	now := time.Now()
	for _, ev := range events {
		if ev.Op == engine.OpInsert && ev.Table == "events" && len(ev.Rows) > 0 {
			if b := int(ev.Rows[0][3].Int()); b < len(w.dispatchAt) {
				w.dispatchAt[b] = now
			}
		}
	}
}

func (w *firehose) exec(e *env, kind, sql string) error {
	e.stmt(kind, sql)
	_, err := w.p.db.Exec(sql)
	return err
}

// insertSQL builds the next INSERT batch of n rows and applies it to the
// model. Every row carries its batch number in ts.
func (w *firehose) insertSQL(n int) string {
	w.sb.Reset()
	w.sb.WriteString("INSERT INTO events (id, entity, v, ts) VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			w.sb.WriteString(", ")
		}
		id, ent, v := w.nextID, w.r.intn(fhEntities), w.r.intn(1000)
		w.nextID++
		w.entity[id], w.val[id] = int8(ent), int16(v)
		w.count[ent]++
		w.sum[ent] += int64(v)
		fmt.Fprintf(&w.sb, "(%d, %d, %d, %d)", id, ent, v, w.batchNo)
	}
	w.events += int64(n)
	return w.sb.String()
}

func (w *firehose) updateSQL() string {
	span := w.nextID - w.oldest
	if span > fhUpdateSpan {
		span = fhUpdateSpan
	}
	id, v := w.nextID-1-int64(w.r.intn(int(span))), w.r.intn(1000)
	w.sum[w.entity[id]] += int64(v) - int64(w.val[id])
	w.val[id] = int16(v)
	w.events++
	return fmt.Sprintf("UPDATE events SET v = %d WHERE id = %d", v, id)
}

func (w *firehose) deleteSQL(n int) string {
	w.sb.Reset()
	w.sb.WriteString("DELETE FROM events WHERE id IN (")
	for i := 0; i < n; i++ {
		if i > 0 {
			w.sb.WriteString(", ")
		}
		id := w.oldest
		w.oldest++
		w.count[w.entity[id]]--
		w.sum[w.entity[id]] -= int64(w.val[id])
		fmt.Fprintf(&w.sb, "%d", id)
	}
	w.sb.WriteString(")")
	w.events += int64(n)
	return w.sb.String()
}

// fhPacer holds an open-loop phase's schedule: statements are due at the
// fixed event rate, counted from start.
type fhPacer struct {
	start  time.Time
	events int64 // events of the phase issued so far
	due    []time.Time
	issued []time.Time
	first  int // batch number of the phase's first batch
}

// wait blocks until the next statement is due and returns the due time.
func (p *fhPacer) wait() time.Time {
	due := p.start.Add(dueTime(int(p.events), fhRate))
	if lead := time.Until(due); lead > 0 {
		time.Sleep(lead)
	}
	return due
}

// group issues one group of statements. With a pacer every statement
// waits for its due time (open loop); without one they run back to back.
// With an interaction id (traced pass, phase B) every statement is a span
// under root. It returns when the group's first statement was issued and
// when its last returned.
func (w *firehose) group(e *env, p *fhPacer, root, inter int64) (first, last time.Time, err error) {
	tr := e.tr
	run := func(kind, sql string, n int) (time.Time, time.Time, time.Time, error) {
		var due time.Time
		if p != nil {
			due = p.wait()
			p.events += int64(n)
		}
		t0 := time.Now()
		err := w.exec(e, kind, sql)
		return due, t0, time.Now(), err
	}
	for b := 0; b < fhGroup; b++ {
		batch := w.batchNo
		sql := w.insertSQL(fhBatch)
		if inter != 0 {
			w.inter[batch] = inter
			if len(w.samples) < 64 {
				w.samples = append(w.samples, w.batchRows(batch))
			}
		}
		due, t0, t1, err := run("insert", sql, fhBatch)
		if err != nil {
			return first, t1, err
		}
		w.batchNo++
		if b == 0 {
			first = t0
		}
		if p != nil {
			p.due, p.issued = append(p.due, due), append(p.issued, t0)
		}
		if inter != 0 {
			tr.add(0, root, inter, "engine.insert_batch", t0, t1)
		}
		if b%4 == 3 {
			_, t0, t1, err := run("update", w.updateSQL(), 1)
			if err != nil {
				return first, t1, err
			}
			if inter != 0 {
				tr.add(0, root, inter, "engine.update_point", t0, t1)
			}
		}
	}
	_, t0, t1, err := run("delete", w.deleteSQL(fhGroup*fhBatch), fhGroup*fhBatch)
	if err != nil {
		return first, t1, err
	}
	if inter != 0 {
		tr.add(0, 0, 0, "engine.delete_window", t0, t1)
	}
	return first, t1, nil
}

// batchRows rebuilds the rows of a batch from the model (traced pass).
func (w *firehose) batchRows(batch int) []types.Row {
	rows := make([]types.Row, 0, fhBatch)
	for id := w.nextID - fhBatch; id < w.nextID; id++ {
		rows = append(rows, types.Row{types.NewInt(id), types.NewInt(int64(w.entity[id])),
			types.NewInt(int64(w.val[id])), types.NewInt(int64(batch))})
	}
	return rows
}

// startMirror runs the mirror's consumer: refresh whenever the doorbell
// rings, draining a burst of rings into one refresh.
func (w *firehose) startMirror() {
	w.stopMirror = make(chan struct{})
	w.mirrorWG.Add(1)
	go func() {
		defer w.mirrorWG.Done()
		for {
			select {
			case <-w.stopMirror:
				return
			case <-w.mirror.Notifications():
			}
			for drained := false; !drained; {
				select {
				case <-w.mirror.Notifications():
				default:
					drained = true
				}
			}
			t0 := time.Now()
			w.mirror.Refresh()
			if w.p.tr != nil {
				w.refreshMu.Lock()
				w.refreshMS = append(w.refreshMS, float64(time.Since(t0))/float64(time.Millisecond))
				w.refreshMu.Unlock()
			}
		}
	}()
}

func (w *firehose) stopMirrorLoop() {
	if w.stopMirror != nil {
		close(w.stopMirror)
		w.mirrorWG.Wait()
		w.stopMirror = nil
	}
}

// converge drains the reactive pipeline and requires every derived state
// to equal a full recompute: both views, the handler's net effect, the
// mirror, and all of them the driver's model.
func (w *firehose) converge(e *env, phase string) error {
	t0 := time.Now()
	w.router.Quiesce()
	w.drainMS = float64(time.Since(t0)) / float64(time.Millisecond)
	w.stopMirrorLoop()
	defer w.startMirror()
	if _, err := w.mirror.Refresh(); err != nil {
		return err
	}
	db, cs := w.p.db, &e.checks

	for _, v := range [][3]string{
		{fhTotalsView, "SELECT entity, n, s FROM " + fhTotalsView, fhTotalsQuery},
		{fhHotView, "SELECT id, name, v FROM " + fhHotView, fhHotQuery},
	} {
		got, err := db.Query(v[1])
		if err != nil {
			return err
		}
		want, err := db.Query(v[2])
		if err != nil {
			return err
		}
		cs.add(phase+": "+v[0]+" ≡ recompute", rowSetKey(got.Rows) == rowSetKey(want.Rows),
			"%d materialized rows, %d recomputed", len(got.Rows), len(want.Rows))
	}

	// ev_totals ≡ the driver's model.
	totals, err := db.Query("SELECT entity, n, s FROM " + fhTotalsView)
	if err != nil {
		return err
	}
	bad, live := 0, int64(0)
	for _, c := range w.count {
		if c > 0 {
			live++
		}
	}
	if int64(len(totals.Rows)) != live {
		bad++
	}
	for _, r := range totals.Rows {
		if ent := r[0].Int(); w.count[ent] != r[1].Int() || w.sum[ent] != r[2].Int() {
			bad++
		}
	}
	cs.add(phase+": ev_totals ≡ model", bad == 0, "%d groups disagree", bad)

	// handler net rows ≡ table.
	res, err := db.Query("SELECT COUNT(*), COALESCE(SUM(v), 0) FROM events")
	if err != nil {
		return err
	}
	w.sink.mu.Lock()
	rows, sumV := w.sink.rows, w.sink.sumV
	w.sink.mu.Unlock()
	cs.add(phase+": handler net rows ≡ table", rows == res.Rows[0][0].Int() && sumV == res.Rows[0][1].Int(),
		"handler %d rows / sum %d, table %d / %d", rows, sumV, res.Rows[0][0].Int(), res.Rows[0][1].Int())

	// mirror ≡ view.
	view, err := db.Query("SELECT *, _tid FROM " + fhTotalsView)
	if err != nil {
		return err
	}
	snap := w.mirror.Snapshot()
	mrows := make([]types.Row, len(snap))
	for i, r := range snap {
		mrows[i] = append(types.CloneRow(r.Values), types.NewInt(r.TID))
	}
	cs.add(phase+": mirror ≡ ev_totals", rowSetKey(mrows) == rowSetKey(view.Rows), "mirror %d rows, view %d", len(mrows), len(view.Rows))

	// Housekeeping between phases, never inside one: purge the consumed
	// notifications (protocol step 11) and vacuum the versions the window
	// deleted (Checkpoint on an in-memory store does only that). Inside a
	// phase the stall would be the generator's lag.
	t0 = time.Now()
	if _, err := w.p.notifier.Purge(); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	w.checkpoints++
	e.tr.add(0, 0, 0, "maintenance", t0, time.Now())
	return nil
}

// rowSetKey is an order-free fingerprint of a row multiset.
func rowSetKey(rows []types.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = types.RowKey(r)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func (w *firehose) measure(e *env) (*measured, error) {
	groupsA := (e.cfg.count(fhPhaseAPerS, 4*fhGroupEvents) + fhGroupEvents - 1) / fhGroupEvents
	groupsB := (e.cfg.count(fhPhaseBPerS, 6*fhGroupEvents) + fhGroupEvents - 1) / fhGroupEvents
	// Attempted: every statement of both phases. Failed: an INSERT batch of
	// phase A whose rows did not reach the handler within the timeout of
	// being due, or a group of phase B whose rows did not within the
	// timeout of being issued.
	m := &measured{ops: (groupsA + groupsB) * fhGroupEvents, attempted: (groupsA + groupsB) * (fhGroup + 3)}

	// Phase A: open loop at fhRate events per second.
	p := &fhPacer{start: time.Now(), first: w.batchNo}
	for g := 0; g < groupsA; g++ {
		if _, _, err := w.group(e, p, 0, 0); err != nil {
			return nil, err
		}
	}
	if err := w.converge(e, "phase A"); err != nil {
		return nil, err
	}
	w.sink.mu.Lock()
	for i, due := range p.due {
		if got := w.sink.delivered[p.first+i]; got.IsZero() || got.Sub(due) > interactionTimeout {
			m.failed++
		}
		w.genLagMS = append(w.genLagMS, float64(p.issued[i].Sub(due))/float64(time.Millisecond))
	}
	w.sink.mu.Unlock()
	lag := sortedCopy(w.genLagMS)
	e.info["gen_lag_ms_p90"] = quantile(lag, 0.9)
	e.info["phase_a_drain_ms"] = w.drainMS
	e.info["phase_a_s"] = time.Since(p.start).Seconds()

	// Phase B: closed loop, as fast as back-pressure allows. One group is
	// one interaction: from the issue of its first statement to the hand-over
	// of its last INSERT batch to the handler.
	type issued struct {
		first time.Time
		last  int // batch number of the group's last INSERT
		root  int64
	}
	groups := make([]issued, 0, groupsB)
	done := make([]time.Duration, 0, groupsB)
	start := time.Now()
	for g := 0; g < groupsB; g++ {
		var root, inter int64
		if e.tr != nil {
			root, inter = e.tr.newID(), int64(g)+1
		}
		first, t1, err := w.group(e, nil, root, inter)
		if err != nil {
			return nil, err
		}
		groups = append(groups, issued{first, w.batchNo - 1, root})
		done = append(done, t1.Sub(start))
	}
	m.throughput = segmentMedianRate(done, fhGroupEvents)
	e.info["phase_b_s"] = time.Since(start).Seconds()
	if err := w.converge(e, "phase B"); err != nil {
		return nil, err
	}
	w.sink.mu.Lock()
	defer w.sink.mu.Unlock()
	for g, ig := range groups {
		got := w.sink.delivered[ig.last]
		if got.IsZero() || got.Sub(ig.first) > interactionTimeout {
			m.failed++
			continue
		}
		m.latencies = append(m.latencies, got.Sub(ig.first))
		if e.tr == nil {
			continue
		}
		e.tr.add(ig.root, 0, int64(g)+1, "interaction", ig.first, got)
		for b := ig.last - fhGroup + 1; b <= ig.last; b++ {
			if at, to := w.dispatchAt[b], w.sink.delivered[b]; !at.IsZero() && at.Before(to) {
				e.tr.add(0, ig.root, int64(g)+1, "react.deliver", at, to)
			}
		}
	}
	return m, nil
}

func (w *firehose) verify(e *env, m *measured) {
	checkCounters(&e.checks, w.p.db.Metrics())
}

func (w *firehose) layers(e *env, m *measured, out map[string]float64) error {
	countLayers(e, m, e.rg, w.checkpoints, 0, out)
	st := regionSpans(e, e.rg)
	out["engine.insert_batch_ms_p50"] = st.durP50("engine.insert_batch")
	out["engine.update_point_us_p50"] = st.durP50("engine.update_point") * 1000
	out["react.deliver_ms_p50"] = st.durP50("react.deliver")
	out["react.drain_ms"] = e.info["phase_a_drain_ms"]
	out["module.handler_us_p50"] = st.durP50("module.handler") * 1000
	out["gen.lag_ms_p90"] = e.info["gen_lag_ms_p90"]
	out["ivm.cancelled_rows_share"] = e.rg.d("react.cancelled_rows") / float64(m.ops)
	out["tablesync.initial_load_ms"] = allSpans(e).durP50("tablesync.initial_load")
	w.refreshMu.Lock()
	out["tablesync.refresh_ms_p50"] = median(w.refreshMS)
	w.refreshMu.Unlock()
	n, err := w.p.db.QueryInt("SELECT COUNT(*) FROM ef_notification")
	if err != nil {
		return err
	}
	out["notify.table_rows_end"] = float64(n)
	if err := probeParse(e.rec, out); err != nil {
		return err
	}
	return w.probeIVM(out)
}

// probeIVM replays recorded INSERT batches through fresh maintainers of
// both view classes: the cost of ivm.Maintainer.Delta per row without the
// engine's apply, triggers or queues around it, and of Init over the table.
func (w *firehose) probeIVM(out map[string]float64) error {
	build := func(name, query string) (*ivm.Maintainer, error) {
		st, err := sqltext.Parse(query)
		if err != nil {
			return nil, err
		}
		return ivm.New(name, st.(*sqltext.Select), w.p.db.Engine)
	}
	agg, err := build("probe_totals", fhTotalsQuery)
	if err != nil {
		return err
	}
	join, err := build("probe_hot", fhHotQuery)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := agg.Init(); err != nil {
		return err
	}
	out["ivm.init_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	var aggUS, joinUS []float64
	for _, rows := range w.samples {
		t0 := time.Now()
		if _, _, err := agg.Delta("events", rows, nil); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := join.Delta("events", rows, nil); err != nil {
			return err
		}
		t2 := time.Now()
		aggUS = append(aggUS, float64(t1.Sub(t0))/float64(time.Microsecond)/float64(len(rows)))
		joinUS = append(joinUS, float64(t2.Sub(t1))/float64(time.Microsecond)/float64(len(rows)))
	}
	out["ivm.delta_us_per_row"] = median(aggUS)
	out["ivm.join_delta_us_per_row"] = median(joinUS)
	return nil
}

func (w *firehose) close() {
	if w.p == nil {
		return
	}
	w.stopMirrorLoop()
	if w.mirror != nil {
		w.mirror.Close()
	}
	if w.router != nil {
		w.router.Close()
	}
	w.p.close()
	w.p = nil
}
