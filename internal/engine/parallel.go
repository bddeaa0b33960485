package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// The SELECT pipeline's source side, its one parallel operator, and the
// aggregate fold.
//
// A source pushes batches of rows — by reference, never copied —
// through its joins, if any (joinStage), and the WHERE program (pipe),
// which runs there and nowhere else; the lanes that survive go to one
// sink: the projection, the aggregate fold, or a collection of a
// mutation's matched rows. A sink copies only what it keeps.
//
// The one parallel operator is the full scan of a table with a WHERE
// (scanTable). A scan over an MVCC snapshot is embarrassingly parallel:
// the slot array is captured once (storage.SlotView), every worker
// resolves visibility lock-free against the same pinned sequence number,
// and the only coordination is an atomic cursor handing out morsels —
// fixed runs of version-chain slots, each a few VM batches long. Workers
// run WHERE; the lowest morsel not yet sunk owns the sink, so its
// worker passes each batch WHERE keeps straight on, while the workers
// of later morsels hold theirs, as references in pooled batches, until
// their turn comes (handoff). The sink thus consumes the kept lanes in
// slot order, on one worker at a time, while later morsels scan, so
// rows, the first surfaced error and the rows-scanned tally are
// byte-identical at every width. Everything downstream — projection,
// group keys, aggregate folds, the hash-join build — runs front to
// back. Splitting those phases paid for nothing measurable (DESIGN.md
// §16) and needed partial-state merges to stay exact.
//
// The worker budget is engine-wide (Engine.parExtra): a scan reserves
// extra workers against the configured parallelism before fanning out
// and releases them when it completes, so concurrent sessions degrade
// to narrower plans instead of oversubscribing the cores.

// morselSlots is the number of version-chain slots per morsel: 16 VM
// batches, small enough to load-balance skewed filters, large enough to
// amortize batch refills. Package variable (not const) so tests can
// shrink it to force multi-morsel plans on small tables.
var morselSlots = 16 * vm.BatchSize

// parallelWidth reports how many workers a scan over n slots would
// target: one per morsel up to the configured parallelism, and 1 below
// two full morsels — point lookups and small tables must not pay
// goroutine overhead. It does not reserve anything.
func (e *Engine) parallelWidth(n int) int {
	w := int(e.parallelism.Load())
	if m := (n + morselSlots - 1) / morselSlots; w > m {
		w = m
	}
	if w <= 1 || n < 2*morselSlots {
		return 1
	}
	return w
}

// reserveWorkers claims up to want extra workers from the engine-wide
// budget (parallelism - 1 beyond the calling goroutine). Returns how
// many were actually claimed. Callers must releaseWorkers the same
// count when the scan completes.
func (e *Engine) reserveWorkers(want int) int {
	if want <= 0 {
		return 0
	}
	max := e.parallelism.Load() - 1
	for {
		cur := e.parExtra.Load()
		free := max - cur
		if free <= 0 {
			return 0
		}
		got := int64(want)
		if got > free {
			got = free
		}
		if e.parExtra.CompareAndSwap(cur, cur+got) {
			return int(got)
		}
	}
}

func (e *Engine) releaseWorkers(n int) {
	if n > 0 {
		e.parExtra.Add(-int64(n))
	}
}

// workers settles the width of a scan over n slots — the calling
// goroutine plus whatever extras the budget grants — and notes a fan-out
// for the vm.parallel_* metrics. 1 means the scan runs inline. Callers
// releaseWorkers(nw - 1) when the scan completes.
func (e *Engine) workers(n int, ctx *stmtCtx) int {
	nw := 1 + e.reserveWorkers(e.parallelWidth(n)-1)
	if nw > 1 && int64(nw) > ctx.parWorkers {
		ctx.parWorkers = int64(nw)
	}
	return nw
}

// fanOut runs tasks 0..tasks-1 on nw workers (the calling goroutine is
// one of them) and returns the error of the lowest failing task — the
// one a front-to-back run would have hit first. Each worker is one call
// of work, which sets up its private state (machines and batches are
// not goroutine-safe; kept in work's own frame they stay off the heap)
// and pulls task indexes from next until it reports done, returning
// early on a task's error. Tasks are claimed in increasing order, so
// once task i has failed no further task above i is started: every task
// below it is already claimed, which is all the lowest-error rule
// needs. At nw == 1 this is a plain loop on the calling goroutine.
func fanOut(nw, tasks int, work func(next func() (task int, ok bool)) error) error {
	if nw <= 1 || tasks <= 1 {
		i := -1
		return work(func() (int, bool) { i++; return i, i < tasks })
	}
	errs := make([]error, tasks)
	var cursor, floor atomic.Int64
	floor.Store(int64(tasks))
	worker := func() {
		var last int64
		err := work(func() (int, bool) {
			last = cursor.Add(1) - 1
			return int(last), last < int64(tasks) && last <= floor.Load()
		})
		if err != nil {
			errs[last] = err
			for { // CAS-min: only lower the floor
				cur := floor.Load()
				if last >= cur || floor.CompareAndSwap(cur, last) {
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batch is a run of a source's rows of one layout, by reference: the
// values of stored versions (immutable under MVCC) or of rows already
// built. A base table's rows hold its user columns, and tids its system
// columns beside them (a tid is both `_tid` and `_created`); every other
// source's rows are at layout width and tids is nil.
type batch struct {
	rows []types.Row
	tids []int64
}

// row copies lane i out at layout width: a sink keeps a row only so.
func (s *batch) row(i int) types.Row {
	if s.tids == nil {
		return slices.Clone(s.rows[i])
	}
	row := make(types.Row, len(s.rows[i])+2)
	s.put(row, i)
	return row
}

// put copies lane i's first len(dst) layout columns into dst.
func (s *batch) put(dst []types.Value, i int) {
	for c := copy(dst, s.rows[i]); c < len(dst); c++ {
		dst[c] = s.col(i, c)
	}
}

// col reads layout column c of lane i: past a base table's user columns
// come its system columns, `_tid` and `_created`, both the lane's tid;
// past a built row's end NULL.
func (s *batch) col(i, c int) types.Value {
	switch r := s.rows[i]; {
	case c < len(r):
		return r[c]
	case s.tids == nil:
		return types.Null
	}
	return types.NewInt(s.tids[i])
}

// chunks hands s to fn vm.BatchSize lanes at a time.
func (s *batch) chunks(fn func(batch) error) error {
	for start := 0; start < len(s.rows); start += vm.BatchSize {
		end := min(start+vm.BatchSize, len(s.rows))
		c := batch{rows: s.rows[start:end]}
		if s.tids != nil {
			c.tids = s.tids[start:end]
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// source is where a FROM clause's rows come from — the full scan of tbl
// at the statement's snapshot, or rows in memory: an index path's
// candidates, override or delta rows, a FROM subquery's result, a
// virtual table — and the joins they flow through, in order.
type source struct {
	tbl   *storage.Table
	mem   batch
	joins []*joinStage
}

// pipe pushes src's rows, a batch at a time, through its joins and the
// WHERE program of where (nil, or no program, keeps every row) into
// sink, which never sees an empty batch and must consume each before it
// returns. A sink holds its own errors.
//
// Without joins, the first WHERE error in row order aborts the run.
// With joins, the FROM entry is scanned without a WHERE, at width 1,
// into join 1, and each join feeds the next, the last one WHERE. Each
// join holds its first ON error and WHERE its first error while the
// scan runs on, and the error reported is the first join's, else
// WHERE's: what running each join to the end before the next began
// would report. The rows scanned are credited as that run would have
// credited them: the FROM scan; then, up to the first failing join,
// each join's right side and ON subqueries, and the probes of the joins
// before it; with no join failing, everything, WHERE's and the sink's
// subqueries included.
func (e *Engine) pipe(b *binder, src *source, where *evalPlan, sink func(*batch)) error {
	if len(src.joins) == 0 {
		return e.scan(b, src, where, sink)
	}
	ev := b.evaluator(where)
	var werr error
	tail := 0 // rows WHERE's and the sink's subqueries scan
	next := func(s *batch) {
		if werr == nil {
			b.ctx.holding(&tail, func() {
				if werr = ev.filter(e, s); werr == nil && len(s.rows) > 0 {
					sink(s)
				}
			})
		}
	}
	for i := len(src.joins) - 1; i >= 0; i-- {
		j := src.joins[i]
		j.buf, j.next = pairPool.Get().(*pairBuf), next
		defer pairPool.Put(j.buf)
		next = j.push
	}
	_ = e.scan(b, src, nil, next) // no WHERE: cannot fail
	for _, j := range src.joins {
		j.flush()
	}
	scanned := 0
	for _, j := range src.joins {
		if scanned += j.built; j.err != nil {
			e.countScanned(b.ctx, scanned)
			return j.err
		}
		scanned += j.probed
	}
	e.countScanned(b.ctx, scanned+tail)
	return werr
}

// scan pushes the rows of src's FROM entry through the WHERE program
// of where (nil, or no program, keeps every row) into sink; the first
// WHERE error in row order aborts it.
func (e *Engine) scan(b *binder, src *source, where *evalPlan, sink func(*batch)) error {
	if src.tbl != nil {
		return e.scanTable(src.tbl, b, where, sink)
	}
	ev := b.evaluator(where)
	in := lanePool.Get().(*batch)
	lanes := *in // WHERE compacts a copy of each chunk in the pooled lanes, not the source
	defer func() { *in = lanes; lanePool.Put(in) }()
	return src.mem.chunks(func(c batch) error {
		*in = batch{rows: append(lanes.rows[:0], c.rows...)}
		if c.tids != nil {
			in.tids = append(lanes.tids[:0], c.tids...)
		}
		if err := ev.filter(e, in); err != nil || len(in.rows) == 0 {
			return err
		}
		sink(in)
		return nil
	})
}

// lanePool holds batches with room for vm.BatchSize lanes, which a scan
// worker reads into and WHERE compacts in place: like a machine's
// vectors, they are pooled so a statement allocates none once warm.
var lanePool = sync.Pool{New: func() any {
	return &batch{rows: make([]types.Row, 0, vm.BatchSize), tids: make([]int64, 0, vm.BatchSize)}
}}

// filter compacts in to the lanes that pass the WHERE program, ev's one
// machine (all of in without one). The first erring lane in row order is
// the error.
func (ev *evaluator) filter(e *Engine, in *batch) error {
	if ev.batch == nil {
		return nil
	}
	ev.fill(in)
	lanes, err := ev.machines[0].Filter(ev.batch)
	if err != nil {
		return err
	}
	e.countVM(len(in.rows))
	for j, i := range lanes {
		in.rows[j] = in.rows[i]
		if in.tids != nil {
			in.tids[j] = in.tids[i]
		}
	}
	in.rows = in.rows[:len(lanes)]
	if in.tids != nil {
		in.tids = in.tids[:len(lanes)]
	}
	return nil
}

// morsel is one slot range of a scan: the rows it read, the batches of
// lanes WHERE kept that wait for the sink, taken from lanePool, and
// whether WHERE failed in it. done is set, under handoff.mu, once its
// worker is through with it.
type morsel struct {
	kept         []*batch
	scanned      int
	failed, done bool
}

// handoff passes a scan's morsels to its sink in slot order. The sink
// belongs to the lowest morsel not yet sunk (next): its worker passes
// each batch it keeps straight on, while the workers of later morsels
// hold theirs until next reaches them. A worker starts a morsel only
// among the first width from next on (claim), so a scan holds the lanes
// of at most width − 1 morsels, however the workers are scheduled.
type handoff struct {
	mu    sync.Mutex
	moved *sync.Cond // next moved on; nil at width 1, where no one waits
	ms    []morsel
	next  atomic.Int64 // stored under mu, read by claim and keep without it
	width int
	sink  func(*batch)
}

// claim waits until morsel i is among the width morsels from next on.
// The worker of morsel next never waits, so next moves on.
func (h *handoff) claim(i int) {
	if int64(i) < h.next.Load()+int64(h.width) {
		return
	}
	h.mu.Lock()
	for int64(i) >= h.next.Load()+int64(h.width) {
		h.moved.Wait()
	}
	h.mu.Unlock()
}

// keep passes s, a batch of morsel i's kept lanes, to the sink — after
// those i holds — when i is next, or else holds it in i. It returns the
// batch to read i's next lanes into.
func (h *handoff) keep(i int, s *batch) *batch {
	m := &h.ms[i]
	if h.next.Load() != int64(i) {
		m.kept = append(m.kept, s)
		return emptyLanes()
	}
	h.flush(m)
	h.sink(s)
	return s
}

// flush passes the batches m holds to the sink and returns them to
// lanePool.
func (h *handoff) flush(m *morsel) {
	for _, s := range m.kept {
		h.sink(s)
		lanePool.Put(s)
	}
	m.kept = m.kept[:0]
}

// finish marks morsel i complete. The worker that completes the lowest
// morsel not yet sunk passes on what it holds, then what every later
// morsel already complete holds, in order; next moves past a morsel only
// once it is sunk, so no other worker sinks meanwhile, and the lock is
// not held while the sink runs. A morsel WHERE failed in has passed on
// its lanes up to the failing batch and ends the hand-off: nothing after
// it reaches the sink.
func (h *handoff) finish(i int) {
	h.mu.Lock()
	h.ms[i].done = true
	for ; int64(i) == h.next.Load() && i < len(h.ms) && h.ms[i].done; i++ {
		h.mu.Unlock()
		m := &h.ms[i]
		h.flush(m)
		h.mu.Lock()
		// keep reads next without the lock, so it is stored once: a failed
		// morsel's successor must never see its own turn.
		next := i + 1
		if m.failed {
			next = len(h.ms)
		}
		h.next.Store(int64(next))
		if h.moved != nil {
			h.moved.Broadcast()
		}
	}
	h.mu.Unlock()
}

// emptyLanes takes a batch from lanePool, emptied.
func emptyLanes() *batch {
	s := lanePool.Get().(*batch)
	s.rows, s.tids = s.rows[:0], s.tids[:0]
	return s
}

// scanTable is the full scan of tbl at the statement's snapshot: slots
// are read a batch at a time and the lanes WHERE keeps go to sink by
// reference, in pooled batches. Without a WHERE, or below two morsels,
// the whole slot array is one range streamed straight into sink.
// Otherwise workers claim morselSlots-sized ranges and hand their kept
// lanes to sink in range order (handoff), so sink may run on any worker,
// never on two at once. The workers' machines share b, whose subqueries
// run once for all of them. A WHERE error aborts the scan without
// counting the tally; the lanes kept before it, in slot order, have
// reached sink, as at width 1.
func (e *Engine) scanTable(tbl *storage.Table, b *binder, where *evalPlan, sink func(*batch)) error {
	ctx := b.ctx
	view := tbl.View(ctx.snap)
	n := view.Slots()
	nw := 1
	if where != nil && where.kinds != nil {
		nw = e.workers(n, ctx)
		defer e.releaseWorkers(nw - 1)
	}
	step := n
	if nw > 1 {
		step = morselSlots
	}
	h := &handoff{width: nw, sink: sink}
	if nw > 1 {
		h.moved = sync.NewCond(&h.mu)
	}
	if n > 0 {
		h.ms = make([]morsel, (n+step-1)/step)
	}
	err := fanOut(nw, len(h.ms), func(next func() (int, bool)) error {
		ev := b.evaluator(where) // per worker: machines are not goroutine-safe
		in := emptyLanes()
		defer func() { lanePool.Put(in) }()
		for ri, ok := next(); ok; ri, ok = next() {
			h.claim(ri)
			m := &h.ms[ri]
			var err error
			for it := view.IterateRange(ri*step, (ri+1)*step); err == nil; {
				sr, more := it.Next()
				if more {
					m.scanned++
					in.rows, in.tids = append(in.rows, sr.Values), append(in.tids, sr.TID)
				}
				if len(in.rows) == vm.BatchSize || !more && len(in.rows) > 0 {
					if err = ev.filter(e, in); err == nil && len(in.rows) > 0 {
						in = h.keep(ri, in)
					}
					in.rows, in.tids = in.rows[:0], in.tids[:0]
				}
				if !more {
					break
				}
			}
			m.failed = err != nil
			h.finish(ri)
			if err != nil {
				return err
			}
		}
		return nil
	})
	scanned := 0
	for i := range h.ms {
		scanned += h.ms[i].scanned
		for _, s := range h.ms[i].kept { // morsels past a WHERE error
			lanePool.Put(s)
		}
	}
	if err != nil {
		return err
	}
	e.countScanned(ctx, scanned)
	if nw > 1 && e.reg.Enabled() {
		e.mParMorsels.Add(int64(len(h.ms)))
	}
	return nil
}

// usedCols unions the columns the given programs (nil entries skipped)
// read, ascending — the fill list of the batch they share.
func usedCols(progs []*vm.Program) []int {
	var used []int
	for _, p := range progs {
		if p != nil {
			used = append(used, p.Cols()...)
		}
	}
	slices.Sort(used)
	return slices.Compact(used)
}

// ---------------------------------------------------------------------------
// Column-native aggregate folds.

type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

func aggOpOf(name string) (aggOp, bool) {
	switch name {
	case "COUNT":
		return aggCount, true
	case "SUM":
		return aggSum, true
	case "AVG":
		return aggAvg, true
	case "MIN":
		return aggMin, true
	case "MAX":
		return aggMax, true
	}
	return 0, false
}

// aggState is one (aggregate item, group) accumulator, folded directly
// from typed vector lanes — no boxed per-row value cache. argErr is the
// first lane error in row order (what the interpreter's collect loop
// would surface, always beating fold errors); foldErr is the first
// error the fold itself raised (AsFloat on a non-numeric SUM operand,
// cross-class Compare). Errors stay in the state until its result is
// read, so a group HAVING rejects never surfaces one. nonInt counts the
// non-integer operands of a sum, which finalizes as a float while there
// are any. seen is a DISTINCT item's dedup set — only a value's first
// occurrence in row order is folded — and, in a view's fold, the counted
// multiset of a MIN/MAX or DISTINCT item (apply).
type aggState struct {
	seen    map[string]*tally
	cnt     int64
	si      int64
	sf      float64
	best    types.Value
	argErr  error
	foldErr error
	have    bool
	nonInt  int32
}

// tally is one value of a counted set: the operand folded for it and how
// many operands with its key (types.AppendKey) the state holds.
type tally struct {
	v types.Value
	n int64
}

// fold folds one non-NULL operand. An operand it cannot fold (a SUM of a
// non-number, a MIN/MAX across comparability classes) leaves the state
// as it was and is the error.
func (st *aggState) fold(op aggOp, v types.Value) error {
	switch op {
	case aggCount:
		st.cnt++
	case aggSum, aggAvg:
		if v.LaneKind() == types.KindInt {
			st.si += v.LaneInt()
			st.cnt++
			return nil
		}
		fl, err := v.AsFloat()
		if err != nil {
			return err
		}
		st.sf += fl
		st.cnt++
		st.nonInt++
	default: // aggMin, aggMax
		if !st.have {
			st.best, st.have = v, true
			return nil
		}
		c, err := types.Compare(v, st.best)
		if err != nil {
			return err
		}
		if (op == aggMin && c < 0) || (op == aggMax && c > 0) {
			st.best = v
		}
	}
	return nil
}

// apply folds (w = +1) or retracts (w = −1) one non-NULL operand of a
// materialized view's fold. Every MIN/MAX operand and every operand of a
// DISTINCT item is counted in seen by its key and reaches the fold only
// when its count moves between 0 and 1; when a MIN/MAX extreme's count
// reaches 0 the rest of seen is rescanned, never the base table. An
// error leaves the state as it was; retracting an operand the state
// holds cannot fail.
func (st *aggState) apply(op aggOp, distinct bool, v types.Value, w int64) error {
	if distinct || op == aggMin || op == aggMax {
		var kb, bb [64]byte
		k := types.AppendKey(kb[:0], v)
		t := st.seen[string(k)]
		switch {
		case w > 0 && t == nil:
			if err := st.fold(op, v); err != nil {
				return err
			}
			if st.seen == nil {
				st.seen = map[string]*tally{}
			}
			st.seen[string(k)] = &tally{v: v, n: 1}
			return nil
		case t == nil:
			return fmt.Errorf("engine: retracted %s was never folded", v)
		case w > 0 || t.n > 1:
			t.n += w
			return nil
		}
		delete(st.seen, string(k))
		if op == aggMin || op == aggMax {
			if bytes.Equal(k, types.AppendKey(bb[:0], st.best)) {
				st.have = false
				for _, t := range st.seen {
					_ = st.fold(op, t.v) // one comparability class: cannot fail
				}
			}
			return nil
		}
		v = t.v // the operand folded for this value
	} else if w > 0 {
		return st.fold(op, v)
	}
	st.cnt--
	switch {
	case op == aggCount:
	case v.LaneKind() == types.KindInt:
		st.si -= v.LaneInt()
	default:
		fl, _ := v.AsFloat()
		st.sf -= fl
		if st.nonInt--; st.nonInt == 0 {
			st.sf = 0 // what remains is integers only, exactly
		}
	}
	return nil
}

// result finalizes a state into the aggregate's value: NULL on empty,
// int/float promotion, argument errors before fold errors.
func (st *aggState) result(op aggOp) (types.Value, error) {
	if st.argErr != nil {
		return types.Null, st.argErr
	}
	if st.foldErr != nil {
		return types.Null, st.foldErr
	}
	switch op {
	case aggCount:
		return types.NewInt(st.cnt), nil
	case aggSum:
		if st.cnt == 0 {
			return types.Null, nil
		}
		if st.nonInt == 0 {
			return types.NewInt(st.si), nil
		}
		return types.NewFloat(st.sf + float64(st.si)), nil
	case aggAvg:
		if st.cnt == 0 {
			return types.Null, nil
		}
		return types.NewFloat((st.sf + float64(st.si)) / float64(st.cnt)), nil
	default: // aggMin, aggMax
		if !st.have {
			return types.Null, nil
		}
		return st.best, nil
	}
}

// aggCall is one aggregate call of an aggregate SELECT's items and
// HAVING, and one column of its group layout.
type aggCall struct {
	op       aggOp
	distinct bool
	arg      sqltext.Expr // nil for COUNT(*) and a malformed call
	err      error        // a malformed call: SUM(*), the wrong number of arguments
	vec      int          // its argument's vector in the fold's evaluator (aggSpec.fold)
}

// result is the call's value over a group of count rows whose state,
// for a call with an argument, is st.
func (c *aggCall) result(st *aggState, count int64) (types.Value, error) {
	switch {
	case c.err != nil:
		return types.Null, c.err
	case c.arg == nil: // COUNT(*): the group's size
		return types.NewInt(count), nil
	}
	return st.result(c.op)
}

// aggSpec is what an aggregate query's text fixes about its fold: its
// GROUP BY keys, and every aggregate call in its items and HAVING —
// nested ones too; an aggregate's own argument and a subquery are other
// contexts — each given a column of the group layout: cols maps a call
// to its index in calls, which is its column past the source relation's
// (compile's aggs). The fold's programs run the keys, then each call's
// argument (fold); a call's vec is its argument's place among them.
type aggSpec struct {
	cols  map[*sqltext.FuncCall]int
	calls []aggCall
	keys  []sqltext.Expr
	fold  []sqltext.Expr
}

func newAggSpec(keys, exprs []sqltext.Expr) *aggSpec {
	f := &aggSpec{cols: map[*sqltext.FuncCall]int{}, keys: keys, fold: slices.Clip(keys)}
	for i := range exprs {
		sqltext.WalkExpr(&exprs[i], func(p *sqltext.Expr) bool {
			fc, ok := (*p).(*sqltext.FuncCall)
			if !ok || !sqltext.IsAggregateName(fc.Name) {
				return true
			}
			if _, dup := f.cols[fc]; dup {
				return false
			}
			name := strings.ToUpper(fc.Name)
			c := aggCall{distinct: fc.Distinct}
			switch {
			case fc.Star && name != "COUNT":
				c.err = fmt.Errorf("engine: %s(*) is not valid", name)
			case fc.Star:
			case len(fc.Args) != 1:
				c.err = fmt.Errorf("engine: %s takes one argument", name)
			default:
				c.op, _ = aggOpOf(name)
				c.arg, c.vec = fc.Args[0], len(f.fold)
				f.fold = append(f.fold, c.arg)
			}
			f.cols[fc] = len(f.calls)
			f.calls = append(f.calls, c)
			return false
		})
	}
	return f
}

// foldGroup is one group of an aggregate fold, SELECT's or a view's: its
// key, a copy of the row that opened it at layout width (nil for a
// view's implicit group and an empty query's), per aggregate call its
// state, and its row count. out and touched are a view's (viewFold).
type foldGroup struct {
	key     string
	rep     types.Row
	states  []aggState
	count   int64
	out     types.Row
	touched bool
}

// foldSink is the sink of an aggregate query: per batch it evaluates
// the GROUP BY programs and every aggregate call's argument, and looks
// each lane's group up in one map, opening a group — copying its first
// row — on a key's first sight. A SELECT then folds the argument lanes
// into the groups' states at once (add); a view gathers them, to apply
// with weights once the whole delta evaluated cleanly (gather). A GROUP
// BY error is held (err) and stops the fold; WHERE runs on.
type foldSink struct {
	*aggSpec
	groups map[string]*foldGroup

	// One run's state (start).
	e      *Engine
	ev     evaluator    // the GROUP BY programs, then each argument
	kb     []byte       // the current lane's group key
	lanes  []*foldGroup // the current batch's lanes' groups
	st     []*aggState
	opened []*foldGroup // in opening order
	err    error
	// A view's gathered rows: per kept lane its group (nil for a delete
	// from no group) and one value per call with an argument.
	gs     []*foldGroup
	args   []types.Value
	argErr error
}

// open adds the group of key, opened by rep.
func (f *foldSink) open(key string, rep types.Row) *foldGroup {
	g := &foldGroup{key: key, rep: rep, states: make([]aggState, len(f.calls))}
	f.groups[key] = g
	f.opened = append(f.opened, g)
	return g
}

// start readies one run of the fold's programs (aggSpec.fold) and clears
// what the last run left.
func (f *foldSink) start(e *Engine, b *binder, ep *evalPlan) {
	f.e, f.ev = e, b.evaluator(ep)
	f.opened, f.gs, f.args, f.err, f.argErr = nil, nil, nil, nil, nil
}

// group evaluates src's lanes and finds each one's group, opening the
// missing ones when open is set. Group keys are read row-major: the
// first error is held and reported false.
func (f *foldSink) group(src *batch, open bool) bool {
	f.ev.load(f.e, src)
	f.lanes = f.lanes[:0]
	for k := range src.rows {
		var g *foldGroup
		if k > 0 && len(f.keys) == 0 {
			g = f.lanes[0]
		} else {
			f.kb = f.kb[:0]
			for _, v := range f.ev.vecs[:len(f.keys)] {
				if err := v.Err(k); err != nil {
					f.err = err
					return false
				}
				f.kb = types.AppendKey(f.kb, v.Value(k))
			}
			if g = f.groups[string(f.kb)]; g == nil && open {
				g = f.open(string(f.kb), src.row(k))
			}
		}
		f.lanes = append(f.lanes, g)
	}
	return true
}

// add folds src's lanes into their groups with weight +1: typed lanes
// through foldVec, argument errors held in the states.
func (f *foldSink) add(src *batch) {
	if f.err != nil || !f.group(src, true) {
		return
	}
	for _, g := range f.lanes {
		g.count++
	}
	f.st = slices.Grow(f.st[:0], len(f.lanes))[:len(f.lanes)]
	for ci := range f.calls {
		c := &f.calls[ci]
		if c.arg == nil {
			continue
		}
		for k, g := range f.lanes {
			f.st[k] = &g.states[ci]
		}
		foldVec(f.st, c.op, c.distinct, f.ev.vecs[c.vec])
	}
}

// gather records src's lanes for a view's fold: each lane's group —
// opening missing ones when open is set (inserted rows) — and its
// argument values, the first argument error held after any GROUP BY
// error.
func (f *foldSink) gather(src *batch, open bool) {
	if f.err != nil || !f.group(src, open) || f.argErr != nil {
		return
	}
	for k := range src.rows {
		for _, c := range f.calls {
			if c.arg == nil {
				continue
			}
			v := f.ev.vecs[c.vec]
			if err := v.Err(k); err != nil {
				f.argErr = err
				return
			}
			f.args = append(f.args, v.Value(k))
		}
	}
	f.gs = append(f.gs, f.lanes...)
}

// foldVec folds one result vector into the states of its lanes. Per
// lane: a state that already holds an argument error is done; a lane error
// becomes the state's argument error (first in row order, matching the
// interpreter's collect loop, which surfaces any argument error before
// folding); a state with a fold error keeps watching for argument
// errors only; NULL lanes are skipped, and a DISTINCT item's operand
// goes through apply, which folds only a value's first occurrence.
func foldVec(states []*aggState, op aggOp, distinct bool, vec *vm.Vec) {
	kind := vec.Kind()
	for ri, st := range states {
		if st.argErr != nil {
			continue
		}
		if err := vec.Err(ri); err != nil {
			st.argErr = err
			continue
		}
		if st.foldErr != nil {
			continue
		}
		if vec.IsNull(ri) {
			continue
		}
		if distinct {
			if err := st.apply(op, true, vec.Value(ri), 1); err != nil {
				st.foldErr = err
			}
			continue
		}
		switch {
		case op == aggCount:
			st.cnt++
		case op != aggMin && op != aggMax && kind == types.KindInt:
			st.si += vec.Int(ri)
			st.cnt++
		case op != aggMin && op != aggMax && kind == types.KindFloat:
			st.sf += vec.Float(ri)
			st.cnt++
			st.nonInt++
		case kind == types.KindInt && st.have && st.best.LaneKind() == types.KindInt:
			// Typed compare; strict replacement keeps the first of
			// equals, and cmpInt agrees with < and >.
			if x := vec.Int(ri); (op == aggMin && x < st.best.LaneInt()) || (op == aggMax && x > st.best.LaneInt()) {
				st.best = types.NewInt(x)
			}
		case kind == types.KindFloat && st.have && st.best.LaneKind() == types.KindFloat:
			// Strict < and > agree with types.Compare's cmpFloat for NaN
			// too: NaN compares equal, first value kept.
			if x := vec.Float(ri); (op == aggMin && x < st.best.LaneFloat()) || (op == aggMax && x > st.best.LaneFloat()) {
				st.best = types.NewFloat(x)
			}
		default:
			st.foldErr = st.fold(op, vec.Value(ri))
		}
	}
}

// ---------------------------------------------------------------------------
// Hash-join build.

// joinKey appends the key of lane i's key columns cols to dst (emptied
// first), or reports ok=false when any is NULL (NULL never joins). A
// build or a probe passes one buffer for every lane.
func joinKey(dst []byte, s *batch, i int, cols []int) ([]byte, bool) {
	dst = dst[:0]
	for _, c := range cols {
		v := s.col(i, c)
		if v.IsNull() {
			return dst, false
		}
		dst = types.AppendKey(dst, v)
	}
	return dst, true
}

// joinIndex is a hash join's index of its right side's lanes: the lanes
// carrying a join key run from first[at[key]] along next to −1, in
// ascending lane order. Lanes with a NULL key column are left out.
type joinIndex struct {
	at    map[string]int
	first []int
	next  []int
}

// buildJoinIndex indexes the right side's lanes by their key columns
// eqR. It walks the lanes backwards, so each lane goes to the front of
// its key's chain; a key string is made once per distinct key. kb is
// the build's key buffer, returned grown.
func buildJoinIndex(right *batch, eqR []int, kb []byte) (joinIndex, []byte) {
	n := len(right.rows)
	x := joinIndex{at: make(map[string]int, n), first: make([]int, 0, n), next: make([]int, n)}
	for i := n - 1; i >= 0; i-- {
		var ok bool
		if kb, ok = joinKey(kb, right, i, eqR); !ok {
			continue
		}
		if s, seen := x.at[string(kb)]; seen {
			x.next[i], x.first[s] = x.first[s], i
		} else {
			x.at[string(kb)] = len(x.first)
			x.first, x.next[i] = append(x.first, i), -1
		}
	}
	return x, kb
}

// find returns the first lane of key, or −1.
func (x *joinIndex) find(key []byte) int {
	if s, ok := x.at[string(key)]; ok {
		return x.first[s]
	}
	return -1
}
