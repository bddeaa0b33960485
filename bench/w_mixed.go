package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/driver"
	"ediflow/internal/metrics"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// mixed_readwrite: reads beside writes over the wire. One writer connection
// commits autocommit statements against a durable fsync-on-commit store
// while one reader connection redraws from it; a checkpoint (which vacuums)
// is called by the driver on a statement count, concurrently with both.
// The interaction is the reader's redraw; the throughput is the writer's
// commits per second; each is sampled only while the other side is still
// running, so neither is ever measured on an idle system.
const (
	mxItems          = 50000
	mxGroups         = 50 // items.grp is indexed: one group is about 1,000 rows
	mxLoadBatch      = 500
	mxWarmupWrites   = 2000
	mxWarmupRedraws  = 20
	mxWritesPerSec   = 1400 // writer statements per second of run budget
	mxRedrawsPerSec  = 17   // reader redraws per second of run budget
	mxCheckpointEach = 5000
	mxPad            = "................................" // 32 bytes of payload per row

	mxIndexSQL  = "SELECT id, grp, v, pad FROM items WHERE grp = ?"
	mxGroupSQL  = "SELECT grp, COUNT(*), SUM(v) FROM items GROUP BY grp ORDER BY grp"
	mxUpdateSQL = "UPDATE items SET v = ? WHERE id = ?"
	mxInsertSQL = "INSERT INTO items (id, grp, v, pad) VALUES (?, ?, ?, ?)"
	mxDeleteSQL = "DELETE FROM items WHERE id = ?"
)

// mxMix is the exact write mix: 80 % UPDATE, 10 % INSERT, 10 % DELETE in
// every 10 statements.
var mxMix = mix(8, 1, 1)

type mixed struct {
	p      *platform
	writer *client.Conn
	reader *client.Conn
	r      *rng
	deal   dealer

	// The driver's model of the items table.
	grp    map[int64]int64
	val    map[int64]int64
	live   *liveSet
	nextID int64
	writes int

	checkpoints int
	userBytes   int64
	ckptSpans   [][2]time.Time // when each checkpoint ran
	ckptErr     error
	writeSpans  [][2]time.Time // traced: every writer statement
	readRec     *recorder      // traced: the reader's own recorder, merged into the env's afterwards
	closed      bool
}

func (w *mixed) registries() []*metrics.Registry {
	return []*metrics.Registry{w.p.db.Metrics()}
}

func (w *mixed) setup(e *env) error {
	cfg := e.cfg
	w.r = newRNG(cfg.Seed, "mixed_readwrite")
	w.deal = dealer{mix: mxMix, r: w.r}
	w.grp, w.val, w.live = map[int64]int64{}, map[int64]int64{}, newLiveSet()
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
	if w.writer, err = p.dial(addr, "writer"); err != nil {
		return err
	}
	if w.reader, err = p.dial(addr, "reader"); err != nil {
		return err
	}
	for _, ddl := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, grp INT, v INT, pad STRING)",
		"CREATE INDEX items_grp ON items (grp)",
	} {
		e.stmt("ddl", ddl)
		if _, err := w.writer.Exec(ddl); err != nil {
			return err
		}
	}
	n := cfg.volume(mxItems, 1000)
	var sb strings.Builder
	for lo := 1; lo <= n; lo += mxLoadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO items (id, grp, v, pad) VALUES ")
		for id := lo; id < lo+mxLoadBatch && id <= n; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			g, v := int64(w.r.intn(mxGroups)), int64(w.r.intn(1000))
			fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", id, g, v, mxPad)
			w.add(int64(id), g, v)
		}
		e.stmt("load", sb.String())
		if _, err := w.writer.Exec(sb.String()); err != nil {
			return err
		}
	}
	w.nextID = int64(n) + 1
	if err := p.db.Checkpoint(); err != nil {
		return err
	}

	// Fixed-count warm-up of both sides, one after the other.
	for i := 0; i < cfg.volume(mxWarmupWrites, 50); i++ {
		if _, _, err := w.write(e); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.volume(mxWarmupRedraws, 3); i++ {
		if _, err := w.redraw(e, 0, nil); err != nil {
			return err
		}
	}
	return p.db.Checkpoint()
}

func (w *mixed) add(id, g, v int64) {
	w.grp[id], w.val[id] = g, v
	w.live.add(id)
}

func (w *mixed) drop(id int64) {
	w.live.drop(id)
	delete(w.grp, id)
	delete(w.val, id)
}

// write issues the next writer statement and applies it to the model.
func (w *mixed) write(e *env) (time.Time, time.Time, error) {
	kind := w.deal.next()
	w.writes++
	var sql string
	var args []types.Value
	switch kind {
	case editUpdate:
		id, v := w.live.pick(w.r), int64(w.r.intn(1000))
		sql, args = mxUpdateSQL, []types.Value{types.NewInt(v), types.NewInt(id)}
		w.val[id] = v
		w.userBytes += 16
	case editInsert:
		id, g, v := w.nextID, int64(w.r.intn(mxGroups)), int64(w.r.intn(1000))
		w.nextID++
		sql, args = mxInsertSQL, []types.Value{types.NewInt(id), types.NewInt(g), types.NewInt(v), types.NewString(mxPad)}
		w.add(id, g, v)
		w.userBytes += 24 + int64(len(mxPad))
	case editDelete:
		id := w.live.pick(w.r)
		sql, args = mxDeleteSQL, []types.Value{types.NewInt(id)}
		w.drop(id)
	}
	e.stmt(kindNames[kind], sql, args...)
	t0 := time.Now()
	res, err := w.writer.Exec(sql, args...)
	t1 := time.Now()
	if err == nil && res.Affected != 1 && len(res.TIDs) != 1 {
		err = fmt.Errorf("write %d touched %d rows", w.writes, res.Affected)
	}
	return t0, t1, err
}

// mxRedrawGroup is the group redraw number inter brushes: a fixed rotation.
func mxRedrawGroup(inter int64) int64 { return (inter*7 + 3) % mxGroups }

// mxRedraw is what one redraw returned, kept for the checks.
type mxRedraw struct {
	indexRows int
	wrongGrp  int
	groups    int
	total     int64
}

// redraw is the reader's interaction: the index-path SELECT of one group
// (about 1,000 rows through wire.EncodeResult) and the full-snapshot
// GROUP BY.
func (w *mixed) redraw(e *env, inter int64, out *mxRedraw) (time.Duration, error) {
	g := mxRedrawGroup(inter)
	root := e.tr.newID()
	t0 := time.Now()
	res, err := w.reader.Query(mxIndexSQL, types.NewInt(g))
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	e.tr.add(0, root, inter, "client.query", t0, t1)
	agg, err := w.reader.Query(mxGroupSQL)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	e.tr.add(0, root, inter, "client.query", t1, t2)
	if inter != 0 {
		e.tr.add(root, 0, inter, "interaction", t0, t2)
	}
	if w.readRec != nil {
		w.readRec.stmt("index select", mxIndexSQL, []types.Value{types.NewInt(g)})
		w.readRec.stmt("group by", mxGroupSQL, nil)
		w.readRec.result("index select", res)
		w.readRec.result("group by", agg)
	}
	if out != nil {
		*out = mxRedraw{indexRows: len(res.Rows), groups: len(agg.Rows)}
		for _, r := range res.Rows {
			if r[1].Int() != g {
				out.wrongGrp++
			}
		}
		for _, r := range agg.Rows {
			out.total += r[1].Int()
		}
	}
	return t2.Sub(t0), nil
}

func (w *mixed) measure(e *env) (*measured, error) {
	nWrites := e.cfg.count(mxWritesPerSec, 120)
	nRedraws := e.cfg.count(mxRedrawsPerSec, 12)
	m := &measured{ops: nWrites + nRedraws}
	rows0 := w.live.len()
	// The reader's statements are a fixed rotation: fingerprint them before
	// the two sides start, so the hash does not depend on their interleaving.
	for i := 1; i <= nRedraws; i++ {
		e.hash.stmt(mxIndexSQL, types.NewInt(mxRedrawGroup(int64(i))))
		e.hash.stmt(mxGroupSQL)
	}
	if e.rec != nil {
		w.readRec = &recorder{kinds: map[string]*recorded{}}
	}

	var writerDone, readerDone atomic.Int64                 // unix nanos; 0 while running
	ckpt := make(chan struct{}, nWrites/mxCheckpointEach+1) // one slot per checkpoint the writer can ask for
	var maint sync.WaitGroup
	maint.Add(1)
	go func() { // the maintenance side: checkpoints on the writer's count
		defer maint.Done()
		for range ckpt {
			t0 := time.Now()
			if err := w.p.db.Checkpoint(); err != nil {
				w.ckptErr = err
			}
			t1 := time.Now()
			w.ckptSpans = append(w.ckptSpans, [2]time.Time{t0, t1})
			e.tr.add(0, 0, 0, "storage.checkpoint", t0, t1)
		}
	}()

	start := time.Now()
	writeDone := make([]time.Duration, 0, nWrites)
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(ckpt)
		for i := 1; i <= nWrites; i++ {
			t0, t1, err := w.write(e)
			if err != nil {
				writeErr = err
				break
			}
			if e.tr != nil {
				w.writeSpans = append(w.writeSpans, [2]time.Time{t0, t1})
			}
			writeDone = append(writeDone, t1.Sub(start))
			if i%mxCheckpointEach == 0 {
				ckpt <- struct{}{}
			}
		}
		writerDone.Store(time.Now().UnixNano())
	}()

	// The reader runs on this goroutine.
	redraws := make([]mxRedraw, nRedraws)
	type sample struct {
		at  time.Time
		lat time.Duration
	}
	samples := make([]sample, 0, nRedraws)
	readFailed := 0
	for i := 0; i < nRedraws; i++ {
		lat, err := w.redraw(e, int64(i+1), &redraws[i])
		if err != nil || lat > interactionTimeout {
			readFailed++
			continue
		}
		samples = append(samples, sample{time.Now(), lat})
	}
	readerDone.Store(time.Now().UnixNano())
	wg.Wait()
	maint.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	if w.ckptErr != nil {
		return nil, w.ckptErr
	}
	w.checkpoints = len(w.ckptSpans)
	if w.readRec != nil {
		for kind, rec := range w.readRec.kinds {
			e.rec.kinds[kind] = rec
		}
	}

	// Keep what was measured while the other side was still running.
	wEnd, rEnd := time.Unix(0, writerDone.Load()), time.Unix(0, readerDone.Load())
	for _, s := range samples {
		if s.at.Before(wEnd) {
			m.latencies = append(m.latencies, s.lat)
		}
	}
	overlap := writeDone
	for len(overlap) > 0 && start.Add(overlap[len(overlap)-1]).After(rEnd) {
		overlap = overlap[:len(overlap)-1]
	}
	m.throughput = segmentMedianRate(overlap, 1)
	m.attempted = nWrites + nRedraws
	m.failed = readFailed
	e.info["redraws_sampled"] = float64(len(m.latencies))
	e.info["writes_sampled"] = float64(len(overlap))
	e.info["writer_s"] = wEnd.Sub(start).Seconds()
	e.info["reader_s"] = rEnd.Sub(start).Seconds()

	// Structural checks on what the reader saw while writes were landing.
	lo, hi := int64(rows0-nWrites), int64(rows0+nWrites)
	bad := 0
	for _, rd := range redraws {
		if rd.wrongGrp != 0 || rd.groups != mxGroups || rd.total < lo || rd.total > hi || rd.indexRows == 0 {
			bad++
		}
	}
	e.checks.add("reader results well-formed", bad == 0, "%d of %d redraws", bad, len(redraws))
	return m, nil
}

func (w *mixed) verify(e *env, m *measured) {
	cs := &e.checks
	// Quiescent now: one more redraw must equal the model exactly.
	w.checkItems(cs, "items ≡ model", w.reader)
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
	w.checkItems(cs, "items ≡ model after reopen", db)
}

// checkItems compares COUNT(*) and SUM(v) per group with the model.
func (w *mixed) checkItems(cs *checks, name string, c driver.Conn) {
	res, err := c.Query(mxGroupSQL)
	if err != nil {
		cs.add(name, false, "%v", err)
		return
	}
	var cnt, sum [mxGroups]int64
	for id, g := range w.grp {
		cnt[g]++
		sum[g] += w.val[id]
	}
	bad := 0
	if len(res.Rows) != mxGroups {
		bad++
	}
	for _, r := range res.Rows {
		if g := r[0].Int(); g < 0 || g >= mxGroups || cnt[g] != r[1].Int() || sum[g] != r[2].Int() {
			bad++
		}
	}
	cs.add(name, bad == 0, "%d of %d groups disagree", bad, len(res.Rows))
}

func (w *mixed) layers(e *env, m *measured, out map[string]float64) error {
	countLayers(e, m, e.rg, w.checkpoints, w.userBytes, out)
	st := regionSpans(e, e.rg)
	out["client.query_ms_p50"] = st.selfP50("client.query")
	out["storage.checkpoint_ms_p50"] = st.durP50("storage.checkpoint")

	// The slowest writer statement that overlapped a checkpoint, and the
	// writer's own statement latency.
	var execMS []float64
	stall := 0.0
	for _, ws := range w.writeSpans {
		d := float64(ws[1].Sub(ws[0])) / float64(time.Millisecond)
		execMS = append(execMS, d)
		for _, ck := range w.ckptSpans {
			if ws[0].Before(ck[1]) && ck[0].Before(ws[1]) && d > stall {
				stall = d
			}
		}
	}
	out["client.exec_ms_p50"] = median(execMS)
	out["storage.checkpoint_stall_ms_max"] = stall

	h0 := e.hooks.read()
	if err := w.p.db.Checkpoint(); err != nil {
		return err
	}
	out["storage.snapshot_bytes_per_row"] = ratio(float64(e.hooks.read().fsBytes-h0.fsBytes), float64(w.live.len()))

	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = w.live.pick(w.r)
	}
	if err := probeWireOverhead(w.reader, w.p.db, "SELECT v FROM items WHERE id = ?", keys, out); err != nil {
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

func (w *mixed) shutdown() {
	if w.closed {
		return
	}
	w.closed = true
	if w.reader != nil {
		w.reader.Close()
	}
	if w.writer != nil {
		w.writer.Close()
	}
	w.p.close()
}

func (w *mixed) close() {
	if w.p != nil {
		w.shutdown()
	}
}
