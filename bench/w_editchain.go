package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/driver"
	"ediflow/internal/metrics"
	"ediflow/internal/module"
	"ediflow/internal/storage"
	"ediflow/internal/tablesync"
	"ediflow/internal/types"
	"ediflow/internal/vis"
)

// edit_chain_wire: the paper's Figure-8 chain over loopback TCP. One editor
// connection changes the authors relation; the process's update-propagation
// handler turns every change into visual attributes through vis.Component;
// a remote mirror of the attributes table, on a second connection, is rung
// by NOTIFY, refreshes and shows the new attribute. Closed loop: the next
// edit is issued when the mirror has shown the previous one.
const (
	ecAuthors       = 4500
	ecEdges         = 10000
	ecLoadBatch     = 500
	ecWarmup        = 1000
	ecEditsPerSec   = 300 // measured edits per second of run budget
	ecMaintenance   = 500
	ecRegisterEdits = 2
	ecRegisterWait  = 250 * time.Millisecond
)

const ecProcessXML = `<process name="editchain">
  <relation name="authors" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="name" type="string"/>
  </relation>
  <relation name="copubs">
    <attribute name="a" type="int"/>
    <attribute name="b" type="int"/>
    <attribute name="weight" type="int"/>
  </relation>
  <function name="attrs" class="bench.AuthorAttrs"/>
  <body>
    <sequence>
      <activity name="layout"><callFunction name="attrs" inputs="authors,copubs"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="authors" activity="layout" scope="ra"/>
</process>`

// ecMix is the exact edit mix: 70 % UPDATE, 15 % INSERT, 15 % DELETE in
// every 20 edits, so the table size stays put and every seed does the same
// amount of each kind of work.
var ecMix = mix(14, 3, 3)

type editChain struct {
	p          *platform
	editor     *client.Conn
	mirrorConn *client.Conn
	traced     *tracedConn // non-nil in the traced pass
	mirror     *tablesync.Mirror
	comp       *vis.Component
	release    chan struct{}
	started    chan struct{}

	objCol, labelCol int

	// The driver's model of the authors relation and of where each
	// author's attribute row lives in the mirror.
	names  map[int64]string
	live   *liveSet
	tids   map[int64]int64
	nextID int64
	editNo int
	r      *rng
	deal   dealer

	// interaction is the id of the interaction in flight, for the handler
	// running on a server-side goroutine to tag its spans with.
	interaction atomic.Int64

	userBytes    int64
	refreshAlloc []float64 // KB allocated inside each traced Refresh
	checkpoints  int
	closed       bool
}

func ecName(id int64, edit int) string { return fmt.Sprintf("a%06d-e%07d", id, edit) }

// ecAttr is the visual attribute the handler computes for an author: a
// position derived from the id and the name as label.
func ecAttr(id int64, name string) vis.Attr {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return vis.Attr{X: float64(h>>40) / 16, Y: float64(h>>16&0xffffff) / 16,
		Width: 4, Height: 4, Color: "#3366cc", Label: name}
}

// authorAttrs is the procedure behind the process's one activity: Run
// holds the activity in the running state for the life of the workload,
// Update is the p_h,r delta handler of §V.
type authorAttrs struct{ w *editChain }

func (a *authorAttrs) Initialize() error { return nil }
func (a *authorAttrs) Name() string      { return "bench.AuthorAttrs" }
func (a *authorAttrs) Run(*module.Env) error {
	close(a.w.started)
	<-a.w.release
	return nil
}

func (a *authorAttrs) Update(env *module.Env) error { return a.w.onDelta(env.Delta) }

// onDelta writes the attributes of changed authors through vis.Component.
func (w *editChain) onDelta(d *module.Delta) error {
	tr, inter := w.p.tr, w.interaction.Load()
	t0 := time.Now()
	id0 := tr.newID()
	inOld := make(map[int64]bool, len(d.OldRows))
	for _, r := range d.OldRows {
		inOld[r[0].Int()] = true
	}
	ins, upd := map[int64]vis.Attr{}, map[int64]vis.Attr{}
	for _, r := range d.Rows {
		id := r[0].Int()
		if inOld[id] {
			upd[id] = ecAttr(id, r[1].Str())
			delete(inOld, id)
		} else {
			ins[id] = ecAttr(id, r[1].Str())
		}
	}
	var err error
	if len(ins) > 0 {
		t := time.Now()
		err = w.comp.InsertAttributes(ins)
		tr.add(0, id0, inter, "vis.insert_attrs", t, time.Now())
	}
	if err == nil && len(upd) > 0 {
		t := time.Now()
		err = w.comp.SetAttributes(upd)
		tr.add(0, id0, inter, "vis.set_attrs", t, time.Now())
	}
	if err == nil && len(inOld) > 0 {
		gone := make([]int64, 0, len(inOld))
		for id := range inOld {
			gone = append(gone, id)
		}
		t := time.Now()
		err = w.comp.DeleteAttributes(gone)
		tr.add(0, id0, inter, "vis.delete_attrs", t, time.Now())
	}
	tr.add(id0, asyncParent, inter, "module.handler", t0, time.Now())
	return err
}

func (w *editChain) setup(e *env) error {
	cfg := e.cfg
	w.r = newRNG(cfg.Seed, "edit_chain_wire")
	w.deal = dealer{mix: ecMix, r: w.r}
	w.names, w.live, w.tids = map[int64]string{}, newLiveSet(), map[int64]int64{}
	w.release, w.started = make(chan struct{}), make(chan struct{})

	p, err := openPlatform(e.dir, e.hooks, nil)
	if err != nil {
		return err
	}
	p.tr = e.tr
	w.p = p
	addr, err := p.serve()
	if err != nil {
		return err
	}
	if w.editor, err = p.dial(addr, "editor"); err != nil {
		return err
	}

	// The visualization and the process: deployed and started before the
	// data arrives, so the initial attributes are computed by the same
	// handler that serves the edits.
	v, err := vis.NewVisualization(p.db, "bench")
	if err != nil {
		return err
	}
	if w.comp, err = v.AddComponent("graph", "node-link"); err != nil {
		return err
	}
	p.registry.Register("bench.AuthorAttrs", func() module.Procedure { return &authorAttrs{w: w} })
	t0 := time.Now()
	if _, err := p.wf.DeployXML(ecProcessXML); err != nil {
		return err
	}
	e.tr.add(0, 0, 0, "enact.deploy", t0, time.Now())
	t0 = time.Now()
	if _, err := p.wf.Start("editchain", "bench"); err != nil {
		return err
	}
	select {
	case <-w.started:
	case <-time.After(interactionTimeout):
		return fmt.Errorf("process activity did not start")
	}
	e.tr.add(0, 0, 0, "enact.start", t0, time.Now())

	// Load the graph over the wire.
	nAuthors := cfg.volume(ecAuthors, 50)
	var sb strings.Builder
	for lo := 1; lo <= nAuthors; lo += ecLoadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO authors (id, name) VALUES ")
		for id := lo; id < lo+ecLoadBatch && id <= nAuthors; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			name := ecName(int64(id), 0)
			fmt.Fprintf(&sb, "(%d, '%s')", id, name)
			w.names[int64(id)] = name
			w.live.add(int64(id))
		}
		if err := w.load(e, sb.String()); err != nil {
			return err
		}
	}
	w.nextID = int64(nAuthors) + 1
	nEdges := cfg.volume(ecEdges, 100)
	for lo := 0; lo < nEdges; lo += ecLoadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO copubs (a, b, weight) VALUES ")
		for i := lo; i < lo+ecLoadBatch && i < nEdges; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", 1+w.r.intn(nAuthors), 1+w.r.intn(nAuthors), 1+w.r.intn(9))
		}
		if err := w.load(e, sb.String()); err != nil {
			return err
		}
	}
	p.wf.Quiesce()
	if n, err := p.db.QueryInt("SELECT COUNT(*) FROM " + database.TableVisualAttributes); err != nil || int(n) != nAuthors {
		return fmt.Errorf("handler produced %d attribute rows for %d authors (%v)", n, nAuthors, err)
	}

	// The remote mirror, on its own connection.
	if w.mirrorConn, err = p.dial(addr, "mirror"); err != nil {
		return err
	}
	var mconn driver.Conn = w.mirrorConn
	if e.tr != nil {
		w.traced = &tracedConn{Conn: w.mirrorConn, tr: e.tr}
		mconn = w.traced
	}
	t0 = time.Now()
	loadID := e.tr.newID()
	if w.traced != nil {
		w.traced.parent = loadID
	}
	if w.mirror, err = tablesync.NewMirror(mconn, "display", database.TableVisualAttributes); err != nil {
		return err
	}
	e.tr.add(loadID, 0, 0, "tablesync.initial_load", t0, time.Now())
	w.objCol, w.labelCol = w.mirror.ColIndex("obj_id"), w.mirror.ColIndex("label")
	for _, row := range w.mirror.Snapshot() {
		w.tids[row.Values[w.objCol].Int()] = row.TID
	}
	if len(w.tids) != nAuthors {
		return fmt.Errorf("mirror loaded %d rows for %d authors", len(w.tids), nAuthors)
	}

	// Registration race (ROADMAP correctness item, step 0): a commit that
	// lands between the notifier's REPLY and its publishing of the new
	// connection rings nobody. One round trip lets the notifier finish
	// publishing; then a fixed number of edits (fixed, so the statement
	// stream depends on the seed alone) each wait for their NOTIFY and, if
	// it was lost, are caught up by an explicit Refresh. One NOTIFY must
	// arrive, or the doorbell does not work at all.
	if err := w.mirrorConn.Ping(); err != nil {
		return err
	}
	rung := false
	for try := 0; try < ecRegisterEdits; try++ {
		if err := w.execEdit(e, editUpdate, w.live.pick(w.r)); err != nil {
			return err
		}
		timer := time.NewTimer(ecRegisterWait)
		select {
		case <-w.mirror.Notifications():
			rung = true
		case <-timer.C:
		}
		timer.Stop()
		if _, err := w.mirror.Refresh(); err != nil {
			return err
		}
	}
	if !rung {
		return fmt.Errorf("no NOTIFY reached the mirror in %d edits", ecRegisterEdits)
	}
	w.drainDoorbell()

	// Fixed-count warm-up through the full interaction path.
	for i, n := 0, cfg.volume(ecWarmup, 20); i < n; i++ {
		if _, ok := w.interact(e, 0); !ok {
			return fmt.Errorf("warm-up edit %d failed", i)
		}
	}
	return nil
}

func (w *editChain) load(e *env, sql string) error {
	e.stmt("load", sql)
	_, err := w.editor.Exec(sql)
	return err
}

func (w *editChain) drainDoorbell() {
	for {
		select {
		case <-w.mirror.Notifications():
		default:
			return
		}
	}
}

// execEdit issues one edit of the given kind on author id over the editor
// connection and applies it to the model. An INSERT takes the next free id
// (the one nextID holds on entry) and remembers the author row's tuple id,
// from which the attribute row is located afterwards.
func (w *editChain) execEdit(e *env, kind editKind, id int64) error {
	w.editNo++
	var sql string
	var args []types.Value
	switch kind {
	case editUpdate:
		name := ecName(id, w.editNo)
		sql, args = "UPDATE authors SET name = ? WHERE id = ?", []types.Value{types.NewString(name), types.NewInt(id)}
		w.names[id] = name
		w.userBytes += int64(len(name)) + 8
	case editInsert:
		id = w.nextID
		w.nextID++
		name := ecName(id, w.editNo)
		sql, args = "INSERT INTO authors (id, name) VALUES (?, ?)", []types.Value{types.NewInt(id), types.NewString(name)}
		w.names[id] = name
		w.live.add(id)
		w.userBytes += int64(len(name)) + 8
	case editDelete:
		sql, args = "DELETE FROM authors WHERE id = ?", []types.Value{types.NewInt(id)}
		delete(w.names, id)
		w.live.drop(id)
	}
	e.stmt(kindNames[kind], sql, args...)
	res, err := w.editor.Exec(sql, args...)
	if err != nil {
		return err
	}
	e.rec.result(kindNames[kind], res)
	if res.Affected != 1 && len(res.TIDs) != 1 {
		return fmt.Errorf("edit %d touched %d rows", w.editNo, res.Affected)
	}
	if kind == editInsert {
		// The attribute row is allocated right after the author row.
		w.tids[id] = -res.TIDs[0]
	}
	return nil
}

// shown reports whether the mirror shows the effect of the last edit.
func (w *editChain) shown(kind editKind, id int64) bool {
	tid := w.tids[id]
	switch kind {
	case editDelete:
		_, ok := w.mirror.Get(tid)
		if !ok {
			delete(w.tids, id)
		}
		return !ok
	case editInsert:
		if tid < 0 { // not located yet: probe the tuple ids after the author row's
			for t := -tid + 1; t <= -tid+16; t++ {
				if row, ok := w.mirror.Get(t); ok && row[w.objCol].Int() == id {
					w.tids[id] = t
					return row[w.labelCol].Str() == w.names[id]
				}
			}
			return false
		}
	}
	row, ok := w.mirror.Get(tid)
	return ok && row[w.labelCol].Str() == w.names[id]
}

// interact runs one closed-loop interaction: editor Exec issued → NOTIFY
// received on the mirror's channel → Refresh returns → Get shows the new
// attribute. It returns the latency and whether the interaction succeeded
// within the timeout.
func (w *editChain) interact(e *env, inter int64) (time.Duration, bool) {
	kind := w.deal.next()
	id := w.nextID // the id an INSERT will take
	if kind != editInsert {
		id = w.live.pick(w.r)
	}
	tr := e.tr
	root := tr.newID()
	w.interaction.Store(inter)

	t0 := time.Now()
	err := w.execEdit(e, kind, id)
	t1 := time.Now()
	tr.add(0, root, inter, "client.exec", t0, t1)
	if err != nil {
		return 0, false
	}
	timer := time.NewTimer(interactionTimeout)
	defer timer.Stop()
	for waitFrom := t1; ; {
		select {
		case <-w.mirror.Notifications():
		case <-timer.C:
			return 0, false
		}
		t2 := time.Now()
		tr.add(0, root, inter, "notify.doorbell", waitFrom, t2)
		rid := tr.newID()
		if w.traced != nil {
			w.traced.parent, w.traced.interaction = rid, inter
		}
		// Reading the allocator stops the world: size one Refresh in ten.
		sized := tr != nil && inter%10 == 0
		a0 := uint64(0)
		if sized {
			a0 = allocBytes()
		}
		_, err := w.mirror.Refresh()
		if sized {
			w.refreshAlloc = append(w.refreshAlloc, float64(allocBytes()-a0)/1024)
		}
		t3 := time.Now()
		tr.add(rid, root, inter, "tablesync.refresh", t2, t3)
		if err != nil {
			return 0, false
		}
		ok := w.shown(kind, id)
		t4 := time.Now()
		tr.add(0, root, inter, "mirror.get", t3, t4)
		if ok {
			tr.add(root, 0, inter, "interaction", t0, t4)
			return t4.Sub(t0), true
		}
		waitFrom = t4
	}
}

// maintain is the driver-called housekeeping: notification purge
// (protocol step 11) and a checkpoint, on an edit count, not on a timer.
func (w *editChain) maintain(e *env) error {
	t0 := time.Now()
	if _, err := w.p.notifier.Purge(); err != nil {
		return err
	}
	t1 := time.Now()
	e.tr.add(0, 0, 0, "notify.purge", t0, t1)
	if err := w.p.db.Checkpoint(); err != nil {
		return err
	}
	e.tr.add(0, 0, 0, "storage.checkpoint", t1, time.Now())
	w.checkpoints++
	return nil
}

func (w *editChain) measure(e *env) (*measured, error) {
	n := e.cfg.count(ecEditsPerSec, 100)
	m := &measured{ops: n, latencies: make([]time.Duration, 0, n)}
	done := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 1; i <= n; i++ {
		m.attempted++
		if d, ok := w.interact(e, int64(i)); ok {
			m.latencies = append(m.latencies, d)
		} else {
			m.failed++
			w.drainDoorbell()
		}
		if i%ecMaintenance == 0 {
			if err := w.maintain(e); err != nil {
				return nil, err
			}
		}
		done = append(done, time.Since(start))
	}
	m.throughput = segmentMedianRate(done, 1)
	return m, nil
}

func (w *editChain) registries() []*metrics.Registry {
	return []*metrics.Registry{w.p.db.Metrics(), w.mirrorConn.Metrics()}
}

// layers: see README.md for which layer metrics edit_chain_wire is the
// home of.
func (w *editChain) layers(e *env, m *measured, out map[string]float64) error {
	countLayers(e, m, e.rg, w.checkpoints, w.userBytes, out)
	st := regionSpans(e, e.rg)
	out["client.exec_ms_p50"] = st.selfP50("client.exec")
	out["client.query_ms_p50"] = st.selfP50("client.query")
	out["notify.doorbell_ms_p50"] = st.selfP50("notify.doorbell")
	out["notify.purge_ms_p50"] = st.selfP50("notify.purge")
	out["tablesync.refresh_ms_p50"] = st.selfP50("tablesync.refresh")
	out["tablesync.refresh_alloc_kb"] = median(w.refreshAlloc)
	out["module.handler_us_p50"] = st.selfP50("module.handler") * 1000
	out["vis.insert_attrs_us_p50"] = st.selfP50("vis.insert_attrs") * 1000
	out["react.deliver_ms_p50"] = 0 // the handler's queue wait is inside notify.doorbell here; firehose_reactive measures it
	out["storage.checkpoint_ms_p50"] = st.selfP50("storage.checkpoint")
	whole := allSpans(e)
	out["tablesync.initial_load_ms"] = whole.durP50("tablesync.initial_load")
	out["enact.deploy_ms"] = whole.durP50("enact.deploy")

	t0 := time.Now()
	w.p.wf.Quiesce()
	out["react.drain_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	n, err := w.p.db.QueryInt("SELECT COUNT(*) FROM " + database.TableNotification)
	if err != nil {
		return err
	}
	out["notify.table_rows_end"] = float64(n)

	// vis.Component.Attributes: the read a display view opens with.
	reads := make([]float64, 5)
	for i := range reads {
		t0 := time.Now()
		if _, err := w.comp.Attributes(); err != nil {
			return err
		}
		reads[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	out["vis.attributes_read_ms_p50"] = median(reads)

	// enact.Start on a process that finishes at once, 15 times.
	if _, err := w.p.wf.DeployXML(ecNoopXML); err != nil {
		return err
	}
	starts := make([]float64, 15)
	for i := range starts {
		t0 := time.Now()
		inst, err := w.p.wf.Start("noop", "bench")
		if err != nil {
			return err
		}
		starts[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		if err := inst.Wait(); err != nil {
			return err
		}
	}
	out["enact.start_ms_p50"] = median(starts)

	// One more checkpoint, alone, to size the snapshot per stored row.
	h0 := e.hooks.read()
	if err := w.p.db.Checkpoint(); err != nil {
		return err
	}
	rows := 0
	for _, t := range []string{"authors", "copubs", database.TableVisualAttributes} {
		n, err := w.p.db.QueryInt("SELECT COUNT(*) FROM " + t)
		if err != nil {
			return err
		}
		rows += int(n)
	}
	out["storage.snapshot_bytes_per_row"] = ratio(float64(e.hooks.read().fsBytes-h0.fsBytes), float64(rows))

	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = w.live.pick(w.r)
	}
	if err := probeWireOverhead(w.editor, w.p.db, "SELECT name FROM authors WHERE id = ?", keys, out); err != nil {
		return err
	}
	if err := probeParse(e.rec, out); err != nil {
		return err
	}
	if err := probeWire(e.rec, out); err != nil {
		return err
	}
	return probeCommit(e.dir, out)
}

const ecNoopXML = `<process name="noop">
  <variable name="n" type="int"/>
  <body><sequence><activity name="set"><assign variable="n" value="1"/></activity></sequence></body>
</process>`

func (w *editChain) verify(e *env, m *measured) {
	cs := &e.checks
	w.p.wf.Quiesce()
	if _, err := w.mirror.Refresh(); err != nil {
		cs.add("final mirror refresh", false, "%v", err)
	}

	// mirror ≡ source table, row for row by tuple id.
	src, err := w.editor.Query("SELECT obj_id, label, _tid FROM " + database.TableVisualAttributes)
	if err != nil {
		cs.add("read attributes", false, "%v", err)
		return
	}
	snap := w.mirror.Snapshot()
	byTID := make(map[int64]types.Row, len(snap))
	for _, r := range snap {
		byTID[r.TID] = r.Values
	}
	diff := len(snap) - len(src.Rows)
	for _, r := range src.Rows {
		mr, ok := byTID[r[2].Int()]
		if !ok || mr[w.objCol].Int() != r[0].Int() || mr[w.labelCol].Str() != r[1].Str() {
			diff++
		}
	}
	cs.add("mirror ≡ ef_visual_attributes", diff == 0, "%d rows differ (mirror %d, table %d)", diff, len(snap), len(src.Rows))

	// attributes ≡ the driver's model: one row per live author, labelled
	// with the author's current name.
	bad := len(src.Rows) - len(w.names)
	for _, r := range src.Rows {
		if w.names[r[0].Int()] != r[1].Str() {
			bad++
		}
	}
	cs.add("attributes ≡ model", bad == 0, "%d attribute rows disagree with %d modelled authors", bad, len(w.names))
	w.checkAuthors(cs, "authors ≡ model", w.editor)

	checkCounters(cs, w.p.db.Metrics())

	// Every acked write survives: close, reopen the directory, re-check.
	w.shutdown()
	t0 := time.Now()
	db, err := database.OpenWith(e.dir, storage.Options{Sync: storage.SyncCommit})
	e.late["storage.recover_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		cs.add("reopen", false, "%v", err)
		return
	}
	defer db.Close()
	w.checkAuthors(cs, "authors ≡ model after reopen", db)
	n, err := db.QueryInt("SELECT COUNT(*) FROM " + database.TableVisualAttributes)
	cs.add("attributes survive reopen", err == nil && int(n) == len(w.names), "%d rows, want %d (%v)", n, len(w.names), err)
}

func (w *editChain) checkAuthors(cs *checks, name string, c driver.Conn) {
	res, err := c.Query("SELECT id, name FROM authors")
	if err != nil {
		cs.add(name, false, "%v", err)
		return
	}
	bad := len(res.Rows) - len(w.names)
	for _, r := range res.Rows {
		if w.names[r[0].Int()] != r[1].Str() {
			bad++
		}
	}
	cs.add(name, bad == 0, "%d of %d rows disagree", bad, len(res.Rows))
}

func (w *editChain) shutdown() {
	if w.closed {
		return
	}
	w.closed = true
	close(w.release)
	if w.mirror != nil {
		w.mirror.Close()
	}
	if w.mirrorConn != nil {
		w.mirrorConn.Close()
	}
	if w.editor != nil {
		w.editor.Close()
	}
	w.p.close()
}

func (w *editChain) close() {
	if w.p != nil {
		w.shutdown()
	}
}
