package engine

import (
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

// Morsel-driven intra-query parallelism, and the batched operators over
// materialized rows.
//
// The engine has one parallel operator: the compiled snapshot scan
// (scanFiltered). A full scan over an MVCC snapshot is embarrassingly
// parallel: the slot array is captured once (storage.SlotView), every
// worker resolves visibility lock-free against the same pinned sequence
// number, and the only coordination is an atomic cursor handing out
// morsels — fixed runs of version-chain slots, each a few VM batches
// long. Morsel outputs concatenate in slot order, so rows, the first
// surfaced error and the rows-scanned tally are byte-identical at every
// width.
//
// Everything downstream of the scan — program evaluation over
// materialized rows, group keys, aggregate folds, the hash-join build —
// runs front to back over [0, n) on the statement's goroutine. Splitting
// those phases paid for nothing measurable (DESIGN.md §16) and needed
// partial-state merges to stay exact.
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

// scanOut is what one scan range produced. A WHERE error is the range's
// task error; a projection error is only recorded, because it must not
// surface before a WHERE error from a later row (the interpreter
// filters the whole table before projecting anything).
type scanOut struct {
	rows    []types.Row
	scanned int
	projErr error
}

// scanFiltered is the compiled streaming full scan: snapshot rows are
// pulled into a column batch, the compiled WHERE runs over ~1k lanes at
// a time, and matched lanes are emitted through the pushed-down
// projection (or copied out at full table width). Only the columns the
// programs read are copied into vectors; version values (immutable
// under MVCC) are referenced, not copied, until a lane passes the
// filter. At width 1 the whole slot array is one range whose output
// becomes rel.rows as is; wider plans claim morselSlots-sized ranges and
// concatenate their outputs in range order. The workers' machines share
// b, whose subqueries run once for all of them.
func (e *Engine) scanFiltered(tbl *storage.Table, b *binder, prog *vm.Program, proj *scanProj, nUser int) error {
	rel, ctx := b.rel, b.ctx
	view := tbl.View(ctx.snap)
	n := view.Slots()
	nw := e.workers(n, ctx)
	defer e.releaseWorkers(nw - 1)
	step := n
	if nw > 1 {
		step = morselSlots
	}
	var outs []scanOut
	if n > 0 {
		outs = make([]scanOut, (n+step-1)/step)
	}
	progs := []*vm.Program{prog}
	if proj != nil {
		progs = append(progs, proj.progs...)
	}
	used := usedCols(progs)
	// Programs reading the tid/created pseudo-columns get them spliced
	// into a scratch row, filled row-at-a-time.
	needSys := len(used) > 0 && used[len(used)-1] >= nUser

	err := fanOut(nw, len(outs), func(next func() (int, bool)) error {
		ev := b.evaluator(progs) // per worker: machines are not goroutine-safe
		m, batch := ev.machines[0], ev.batch
		var scratch types.Row
		if needSys {
			scratch = make(types.Row, nUser+2)
		}
		vals := make([]types.Row, 0, vm.BatchSize)
		tids := make([]int64, 0, vm.BatchSize)
		created := make([]int64, 0, vm.BatchSize)
		var out *scanOut
		flush := func() error {
			if len(vals) == 0 {
				return nil
			}
			if needSys {
				batch.Reset()
				for i := range vals {
					copy(scratch, vals[i])
					scratch[nUser] = types.NewInt(tids[i])
					scratch[nUser+1] = types.NewInt(created[i])
					batch.Append(scratch)
				}
			} else {
				batch.Fill(vals)
			}
			lanes, err := m.Filter(batch)
			if err != nil {
				return err
			}
			if len(lanes) > 0 && out.projErr == nil {
				if proj != nil {
					out.projErr = proj.emit(&out.rows, &ev, lanes, vals, tids, created, nUser)
				} else {
					// One slab per batch instead of one allocation per
					// matched row.
					w := nUser + 2
					slab := make([]types.Value, len(lanes)*w)
					for k, i := range lanes {
						full := types.Row(slab[k*w : (k+1)*w : (k+1)*w])
						copy(full, vals[i])
						full[nUser] = types.NewInt(tids[i])
						full[nUser+1] = types.NewInt(created[i])
						out.rows = append(out.rows, full)
					}
				}
			}
			e.countVM(batch.Len())
			vals, tids, created = vals[:0], tids[:0], created[:0]
			return nil
		}
		for ri, ok := next(); ok; ri, ok = next() {
			out = &outs[ri]
			for it := view.IterateRange(ri*step, (ri+1)*step); ; {
				sr, more := it.Next()
				if !more {
					break
				}
				out.scanned++
				vals = append(vals, sr.Values)
				tids = append(tids, sr.TID)
				created = append(created, sr.Created)
				if len(vals) == vm.BatchSize {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			if err := flush(); err != nil {
				return err
			}
		}
		return nil
	})
	// A WHERE error aborts without counting the tally; a projection
	// error surfaces only when no range hit a WHERE error, and every range
	// was scanned to find that out.
	if err != nil {
		return err
	}
	scanned := 0
	for i := range outs {
		scanned += outs[i].scanned
	}
	e.countScanned(ctx, scanned)
	total := 0
	for i := range outs {
		if outs[i].projErr != nil {
			return outs[i].projErr
		}
		total += len(outs[i].rows)
	}
	if len(outs) == 1 {
		rel.rows = outs[0].rows
	} else if len(outs) > 1 {
		rel.rows = make([]types.Row, 0, total)
		for i := range outs {
			rel.rows = append(rel.rows, outs[i].rows...)
		}
	}
	if nw > 1 && e.reg.Enabled() {
		e.mParMorsels.Add(int64(len(outs)))
	}
	if proj != nil {
		rel.cols = make([]colMeta, len(proj.names))
		for i, n := range proj.names {
			rel.cols[i] = colMeta{name: strings.ToLower(n)}
		}
		rel.projNames = proj.names
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

// evalVecs runs several programs over b.rel.rows front to back, chunk by
// chunk, invoking sink with each chunk's start index and result vectors
// (valid only during the callback). The first sink error stops the run.
func (e *Engine) evalVecs(progs []*vm.Program, b *binder, sink func(start, count int, vecs []*vm.Vec) error) error {
	ev := b.evaluator(progs)
	rows := b.rel.rows
	for start := 0; start < len(rows); start += vm.BatchSize {
		chunk := rows[start:min(start+vm.BatchSize, len(rows))]
		ev.run(e, chunk)
		if err := sink(start, len(chunk), ev.vecs); err != nil {
			return err
		}
	}
	return nil
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
	seen    map[string]tally
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
// many operands with its HashKey the state holds.
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
// DISTINCT item is counted in seen by HashKey and reaches the fold only
// when its count moves between 0 and 1; when a MIN/MAX extreme's count
// reaches 0 the rest of seen is rescanned, never the base table. An
// error leaves the state as it was; retracting an operand the state
// holds cannot fail.
func (st *aggState) apply(op aggOp, distinct bool, v types.Value, w int64) error {
	if distinct || op == aggMin || op == aggMax {
		k := v.HashKey()
		t, ok := st.seen[k]
		switch {
		case w > 0 && !ok:
			if err := st.fold(op, v); err != nil {
				return err
			}
			if st.seen == nil {
				st.seen = map[string]tally{}
			}
			st.seen[k] = tally{v: v, n: 1}
			return nil
		case !ok:
			return fmt.Errorf("engine: retracted %s was never folded", v)
		case w > 0 || t.n > 1:
			t.n += w
			st.seen[k] = t
			return nil
		}
		delete(st.seen, k)
		if op == aggMin || op == aggMax {
			if k == st.best.HashKey() {
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
	states   []aggState   // per group, for a call with an argument
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

// aggCalls gives every aggregate call in exprs — nested ones too; an
// aggregate's own argument and a subquery are other contexts — a column
// of the group layout: cols maps a call to its index in calls, which is
// its column past the source relation's (binder.aggCol).
func aggCalls(exprs []sqltext.Expr) (cols map[*sqltext.FuncCall]int, calls []aggCall) {
	cols = map[*sqltext.FuncCall]int{}
	for _, x := range exprs {
		sqltext.WalkExpr(x, func(x sqltext.Expr) bool {
			fc, ok := x.(*sqltext.FuncCall)
			if !ok || !sqltext.IsAggregateName(fc.Name) {
				return true
			}
			if _, dup := cols[fc]; dup {
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
				c.arg = fc.Args[0]
			}
			cols[fc] = len(calls)
			calls = append(calls, c)
			return false
		})
	}
	return cols, calls
}

// aggFold is every aggregate call of an aggregate SELECT, folded per
// group.
type aggFold struct {
	cols   map[*sqltext.FuncCall]int
	calls  []aggCall
	groups []aggGroup
}

// result is call ci's value for group g, or the error reading it raises.
func (f *aggFold) result(ci, g int) (types.Value, error) {
	c := &f.calls[ci]
	var st *aggState
	if c.states != nil {
		st = &c.states[g]
	}
	return c.result(st, int64(f.groups[g].count))
}

// buildAggFold folds the arguments of every aggregate call in exprs
// (aggCalls) over rel.rows front to back, column-natively from typed
// lanes: typed int/float lanes fold without boxing a single value. A
// relation with no rows leaves every state empty.
func (e *Engine) buildAggFold(exprs []sqltext.Expr, b *binder, rowGroup []int32, groups []aggGroup) *aggFold {
	f := &aggFold{groups: groups}
	f.cols, f.calls = aggCalls(exprs)
	var progs []*vm.Program
	var folded []int // the calls progs belong to
	for ci := range f.calls {
		if c := &f.calls[ci]; c.arg != nil {
			c.states = make([]aggState, len(groups))
			progs, folded = append(progs, e.compiledProg(c.arg, b)), append(folded, ci)
		}
	}
	_ = e.evalVecs(progs, b, func(start, count int, vecs []*vm.Vec) error {
		for k, ci := range folded {
			c := &f.calls[ci]
			foldVec(c.states, c.op, c.distinct, vecs[k], rowGroup, start, count)
		}
		return nil
	})
	return f
}

// foldVec folds one result vector into per-group states. Per lane: a
// state that already holds an argument error is done; a lane error
// becomes the state's argument error (first in row order, matching the
// interpreter's collect loop, which surfaces any argument error before
// folding); a state with a fold error keeps watching for argument
// errors only; NULL lanes are skipped, and a DISTINCT item's operand
// goes through apply, which folds only a value's first occurrence.
func foldVec(states []aggState, op aggOp, distinct bool, vec *vm.Vec, rowGroup []int32, start, count int) {
	kind := vec.Kind()
	for ri := 0; ri < count; ri++ {
		st := &states[0]
		if rowGroup != nil {
			st = &states[rowGroup[start+ri]]
		}
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

// joinKey builds the equality key for a row, or ok=false when any key
// column is NULL (NULL never joins).
func joinKey(row types.Row, cols []int) (string, bool) {
	key := make(types.Row, len(cols))
	for j, c := range cols {
		if row[c].IsNull() {
			return "", false
		}
		key[j] = row[c]
	}
	return types.RowKey(key), true
}

// buildJoinIndex maps each join key of the right side to the indexes of
// the rows carrying it, in ascending row order; rows with a NULL key
// column are left out.
func buildJoinIndex(rows []types.Row, eqR []int) map[string][]int {
	idx := make(map[string][]int, len(rows))
	for i, r := range rows {
		if k, ok := joinKey(r, eqR); ok {
			idx[k] = append(idx[k], i)
		}
	}
	return idx
}
