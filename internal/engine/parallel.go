package engine

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// Range operators and morsel-driven intra-query parallelism.
//
// Every batched engine stage — the compiled snapshot scan, program
// evaluation over materialized rows, group keys, aggregate folds, the
// hash-join build — is one operator over a range [lo, hi). A statement
// at width 1 calls it once over [0, n) on its own goroutine; a wider
// one hands ranges out through fanOut. Nothing else differs between the
// two, so parallel execution is an invisible implementation detail:
// rows, the first surfaced error, and the rows-scanned tally are
// byte-identical at every width.
//
// A full scan over an MVCC snapshot is embarrassingly parallel: the
// slot array is captured once (storage.SlotView), every worker resolves
// visibility lock-free against the same pinned sequence number, and the
// only coordination is an atomic cursor handing out morsels — fixed
// runs of version-chain slots, each a few VM batches long.
//
// The worker budget is engine-wide (Engine.parExtra): a phase reserves
// extra workers against the configured parallelism before fanning out
// and releases them when it completes, so concurrent sessions degrade
// to narrower plans instead of oversubscribing the cores.

// morselSlots is the number of version-chain slots per morsel: 16 VM
// batches, small enough to load-balance skewed filters, large enough to
// amortize batch refills. Package variable (not const) so tests can
// shrink it to force multi-morsel plans on small tables.
var morselSlots = 16 * vm.BatchSize

// parallelGroupCap bounds per-worker aggregate state slabs: beyond this
// many groups the partial-state memory (workers x items x groups)
// outweighs the fold savings and grouped folds stay at width 1.
const parallelGroupCap = 4096

// SetParallelism sets the target number of workers an eligible query
// may fan out to. 1 disables intra-query parallelism; 0 resets to
// runtime.GOMAXPROCS. The default is GOMAXPROCS at engine start.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.parallelism.Store(int64(n))
}

// Parallelism reports the configured per-query worker target.
func (e *Engine) Parallelism() int { return int(e.parallelism.Load()) }

// parallelWidth reports how many workers a phase over n rows would
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
// count when the phase completes.
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

// workers settles the width of a phase that runs progs over n rows —
// the calling goroutine plus whatever extras the budget grants — and
// notes a fan-out for the vm.parallel_* metrics. 1 means the phase runs
// inline, which it always does when a program is Interpreted: it calls
// into the statement's binder, whose subquery and IN caches are not
// goroutine-safe. Callers releaseWorkers(nw - 1) when the phase
// completes.
func (e *Engine) workers(n int, ctx *stmtCtx, progs ...*vm.Program) int {
	for _, p := range progs {
		if p.Interpreted() {
			return 1
		}
	}
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

// contiguousRanges splits [0, n) into nw near-equal ranges aligned to
// batch boundaries, so no batch straddles two workers.
func contiguousRanges(n, nw int) [][2]int {
	per := (n/nw + vm.BatchSize) / vm.BatchSize * vm.BatchSize
	var rs [][2]int
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
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
// filter. At width 1 (always, for an Interpreted WHERE) the whole slot
// array is one range whose output becomes rel.rows as is; wider plans
// claim morselSlots-sized ranges and concatenate their outputs in range
// order.
func (e *Engine) scanFiltered(tbl *storage.Table, b *binder, prog *vm.Program, proj *scanProj, nUser int) error {
	rel, ctx := b.rel, b.ctx
	view := tbl.View(ctx.snap)
	n := view.Slots()
	nw := e.workers(n, ctx, prog)
	defer e.releaseWorkers(nw - 1)
	step := n
	if nw > 1 {
		step = morselSlots
	}
	var outs []scanOut
	if n > 0 {
		outs = make([]scanOut, (n+step-1)/step)
	}
	kinds := batchKinds(rel.cols)
	progs := []*vm.Program{prog}
	if proj != nil {
		progs = append(progs, proj.progs...)
	}
	used := usedCols(progs)
	// Programs reading the tid/created pseudo-columns get them spliced
	// into a scratch row, filled row-at-a-time.
	needSys := len(used) > 0 && used[len(used)-1] >= nUser

	err := fanOut(nw, len(outs), func(next func() (int, bool)) error {
		m := b.machine(prog)
		wproj := proj.bind(b)
		batch := m.Batch(kinds, used)
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
				if wproj != nil {
					out.projErr = wproj.emit(&out.rows, batch, lanes, vals, tids, created, nUser)
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
	// error surfaces only when no range hit a WHERE error.
	if err != nil {
		return err
	}
	total, scanned := 0, 0
	for i := range outs {
		if outs[i].projErr != nil {
			return outs[i].projErr
		}
		total += len(outs[i].rows)
		scanned += outs[i].scanned
	}
	if len(outs) == 1 {
		rel.rows = outs[0].rows
	} else if len(outs) > 1 {
		rel.rows = make([]types.Row, 0, total)
		for i := range outs {
			rel.rows = append(rel.rows, outs[i].rows...)
		}
	}
	e.countScanned(ctx, scanned)
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

// scratchBatch returns the batch several machines over rel share — the
// first machine's scratch batch, laid out for the columns progs read.
func scratchBatch(machines []*vm.Machine, rel *relation, progs []*vm.Program) *vm.Batch {
	for _, m := range machines {
		if m != nil {
			return m.Batch(batchKinds(rel.cols), usedCols(progs))
		}
	}
	return nil
}

// bind returns a worker-private copy of a scan projection: programs
// and bare-column maps are shared (immutable), machines are per-worker
// (vm.Machine is not goroutine-safe).
func (sp *scanProj) bind(b *binder) *scanProj {
	if sp == nil {
		return nil
	}
	c := &scanProj{
		names:    sp.names,
		progs:    sp.progs,
		bare:     sp.bare,
		machines: make([]*vm.Machine, len(sp.progs)),
		vecs:     make([]*vm.Vec, len(sp.progs)),
	}
	for i, p := range sp.progs {
		if p != nil {
			c.machines[i] = b.machine(p)
		}
	}
	return c
}

// evalVecsRange runs several programs over b.rel.rows[lo:hi) chunk by
// chunk, invoking sink with each chunk's absolute start index and
// result vectors (valid only during the callback). Machines and the
// batch are private to the call, so disjoint ranges may run on
// different goroutines — unless a program is Interpreted.
func (e *Engine) evalVecsRange(progs []*vm.Program, b *binder, lo, hi int, sink func(start, count int, vecs []*vm.Vec) error) error {
	rel := b.rel
	machines := make([]*vm.Machine, len(progs))
	for i, p := range progs {
		machines[i] = b.machine(p)
	}
	batch := scratchBatch(machines, rel, progs)
	vecs := make([]*vm.Vec, len(progs))
	for start := lo; start < hi; start += vm.BatchSize {
		end := start + vm.BatchSize
		if end > hi {
			end = hi
		}
		batch.Fill(rel.rows[start:end])
		for i, mch := range machines {
			vecs[i] = mch.Eval(batch)
		}
		e.countVM(batch.Len())
		if err := sink(start, batch.Len(), vecs); err != nil {
			return err
		}
	}
	return nil
}

// groupKeysRange computes the RowKey of the compiled GROUP BY
// expressions for rel.rows[lo:hi) into keys, stopping at the range's
// first (row, expression) error.
func (e *Engine) groupKeysRange(progs []*vm.Program, b *binder, lo, hi int, keys []string) error {
	keyVals := make(types.Row, len(progs))
	return e.evalVecsRange(progs, b, lo, hi, func(start, count int, vecs []*vm.Vec) error {
		for ri := 0; ri < count; ri++ {
			for gi := range progs {
				if err := vecs[gi].Err(ri); err != nil {
					return err
				}
				keyVals[gi] = vecs[gi].Value(ri)
			}
			keys[start+ri] = types.RowKey(keyVals)
		}
		return nil
	})
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

// Comparability classes for MIN/MAX merge safety. types.Compare never
// errors between two values of the same class (INT and FLOAT form one
// numeric class); any cross-class or unknown-kind comparison may, so a
// fold that saw mixed classes cannot be merged from partials — the
// serial fold's error depends on accumulation order.
const (
	clsNumeric uint8 = iota
	clsBool
	clsString
	clsTime
	clsBytes
	clsOther
)

func classOf(v types.Value) uint8 {
	switch v.LaneKind() {
	case types.KindInt, types.KindFloat:
		return clsNumeric
	case types.KindBool:
		return clsBool
	case types.KindString:
		return clsString
	case types.KindTime:
		return clsTime
	case types.KindBytes:
		return clsBytes
	}
	return clsOther
}

// aggState is one (aggregate item, group) accumulator, folded directly
// from typed vector lanes — no boxed per-row value cache. argErr is the
// first lane error in row order (what the interpreter's collect loop
// would surface, always beating fold errors); foldErr is the first
// error the fold itself raised (AsFloat on a non-numeric SUM operand,
// cross-class Compare). Errors stay in the state until its result is
// read, so a group HAVING rejects never surfaces one. notAllInt / mixed
// mark states whose partials cannot be merged across row ranges (float
// addition is not associative; cross-class Compare errors are
// order-dependent). seen is a DISTINCT item's dedup set: only a value's
// first occurrence in row order is folded.
type aggState struct {
	seen      map[string]struct{}
	cnt       int64
	si        int64
	sf        float64
	best      types.Value
	argErr    error
	foldErr   error
	have      bool
	notAllInt bool
	mixed     bool
	class     uint8
}

// step folds one MIN/MAX operand through the generic Compare path.
func (st *aggState) step(op aggOp, v types.Value) {
	cls := classOf(v)
	if !st.have {
		st.best, st.class, st.have = v, cls, true
		if cls == clsOther {
			st.mixed = true
		}
		return
	}
	if cls != st.class || cls == clsOther {
		st.mixed = true
	}
	c, err := types.Compare(v, st.best)
	if err != nil {
		st.foldErr = err
		return
	}
	if (op == aggMin && c < 0) || (op == aggMax && c > 0) {
		st.best = v
	}
}

// result finalizes a state into the aggregate's value with exactly
// the interpreter's semantics (evalAggregateCall: NULL on empty,
// int/float promotion, argument errors before fold errors).
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
		if !st.notAllInt {
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

// aggFold holds the column-native fold states for every simple
// aggregate item, laid out [item][group].
type aggFold struct {
	calls    map[*sqltext.FuncCall]int
	ops      []aggOp
	distinct []bool
	progs    []*vm.Program
	states   []aggState
	nGroups  int
}

// state returns item fc's accumulator for group gi and its operator, or
// nil when the fold does not cover fc and the interpreter must evaluate
// it.
func (f *aggFold) state(fc *sqltext.FuncCall, gi int) (*aggState, aggOp) {
	if f == nil {
		return nil, 0
	}
	ci, ok := f.calls[fc]
	if !ok {
		return nil, 0
	}
	return &f.states[ci*f.nGroups+gi], f.ops[ci]
}

// buildAggFold selects the foldable aggregate items (simple call, one
// argument) and folds them over rel.rows, column-natively
// from typed lanes: one range at width 1, else contiguous row ranges
// whose partials merge in range order. Going wide needs a large
// relation, a bounded group count, and every item statically
// merge-safe; any state that still turns out merge-unsafe at runtime
// (float SUM, mixed-class MIN/MAX) triggers one refold over [0, n),
// which is always exact.
func (e *Engine) buildAggFold(items []projItem, rel *relation, b *binder, rowGroup []int32, nGroups int) *aggFold {
	n := len(rel.rows)
	if e.interpretAll.Load() || n == 0 || nGroups == 0 {
		return nil
	}
	f := &aggFold{calls: map[*sqltext.FuncCall]int{}, nGroups: nGroups}
	for _, it := range items {
		fc, ok := it.Expr.(*sqltext.FuncCall)
		if !ok || !sqltext.IsAggregateName(fc.Name) || fc.Star || len(fc.Args) != 1 {
			continue
		}
		if _, dup := f.calls[fc]; dup {
			continue
		}
		op, ok := aggOpOf(strings.ToUpper(fc.Name))
		if !ok {
			continue
		}
		f.calls[fc] = len(f.ops)
		f.ops = append(f.ops, op)
		f.distinct = append(f.distinct, fc.Distinct)
		f.progs = append(f.progs, e.compiledProg(fc.Args[0], b))
	}
	if len(f.ops) == 0 {
		return nil
	}
	nw := 1
	if nGroups <= parallelGroupCap && e.parallelWidth(n) > 1 && f.staticMergeSafe(batchKinds(rel.cols)) {
		nw = e.workers(n, b.ctx, f.progs...)
	}
	ranges := contiguousRanges(n, nw)
	partials := make([][]aggState, len(ranges))
	_ = fanOut(nw, len(ranges), func(next func() (int, bool)) error {
		for ri, ok := next(); ok; ri, ok = next() {
			partials[ri] = e.foldRange(f, b, ranges[ri][0], ranges[ri][1], rowGroup)
		}
		return nil
	})
	e.releaseWorkers(nw - 1)
	f.states = partials[0]
	for _, part := range partials[1:] {
		mergeAggStates(f.states, part, f.ops, nGroups)
	}
	if len(partials) > 1 {
		// A merged float sum or mixed-class extremum could diverge from
		// the front-to-back fold: redo it as one range.
		for i := range f.states {
			st, op := &f.states[i], f.ops[i/nGroups]
			if ((op == aggSum || op == aggAvg) && st.notAllInt) || ((op == aggMin || op == aggMax) && st.mixed) {
				f.states = e.foldRange(f, b, 0, n, rowGroup)
				break
			}
		}
	}
	return f
}

// staticMergeSafe reports whether every item's fold partials can be
// merged across row ranges given the arguments' statically inferred
// kinds: integer sums are associative, single-kind MIN/MAX never hits a
// cross-class Compare; a DISTINCT item's dedup set spans the whole
// relation, so it never is. Kinds are advisory (columns can promote),
// so the runtime notAllInt/mixed flags remain the backstop.
func (f *aggFold) staticMergeSafe(kinds []types.Kind) bool {
	for i, op := range f.ops {
		k := f.progs[i].StaticKind(kinds)
		switch {
		case f.distinct[i]:
			return false
		case op == aggSum || op == aggAvg:
			if k != types.KindInt {
				return false
			}
		case op == aggMin || op == aggMax:
			if k == types.KindNull {
				return false
			}
		}
	}
	return true
}

// mergeAggStates folds src's partial states (a later contiguous row
// range) into dst's in range order. Error selection mirrors the serial
// fold: the earliest range's argument error wins, fold errors for
// integer sums are range-independent, and MIN/MAX partials merge by a
// single Compare against the accumulated best (exact for single-class
// folds; mixed-class folds are flagged and refolded serially).
func mergeAggStates(dst, src []aggState, ops []aggOp, nGroups int) {
	for ci, op := range ops {
		for g := 0; g < nGroups; g++ {
			d := &dst[ci*nGroups+g]
			s := &src[ci*nGroups+g]
			if d.argErr == nil {
				d.argErr = s.argErr
			}
			if d.foldErr == nil {
				d.foldErr = s.foldErr
			}
			d.cnt += s.cnt
			d.si += s.si
			d.sf += s.sf
			d.notAllInt = d.notAllInt || s.notAllInt
			d.mixed = d.mixed || s.mixed
			if op != aggMin && op != aggMax || !s.have {
				continue
			}
			if !d.have {
				d.best, d.class, d.have = s.best, s.class, true
				continue
			}
			if s.class != d.class || s.class == clsOther {
				d.mixed = true
			}
			c, err := types.Compare(s.best, d.best)
			if err != nil {
				d.mixed = true
				continue
			}
			if (op == aggMin && c < 0) || (op == aggMax && c > 0) {
				d.best = s.best
			}
		}
	}
}

// foldRange folds every item of f over rel.rows[lo:hi), column-native:
// typed int/float lanes fold without boxing a single value.
func (e *Engine) foldRange(f *aggFold, b *binder, lo, hi int, rowGroup []int32) []aggState {
	states := make([]aggState, len(f.ops)*f.nGroups)
	_ = e.evalVecsRange(f.progs, b, lo, hi, func(start, count int, vecs []*vm.Vec) error {
		for ci := range f.ops {
			foldVec(states[ci*f.nGroups:(ci+1)*f.nGroups], f.ops[ci], f.distinct[ci], vecs[ci], rowGroup, start, count)
		}
		return nil
	})
	return states
}

// foldVec folds one result vector into per-group states. Per lane: a
// state that already holds an argument error is done; a lane error
// becomes the state's argument error (first in row order, matching the
// interpreter's collect loop, which surfaces any argument error before
// folding); a state with a fold error keeps watching for argument
// errors only; NULL lanes are skipped, and so is every repeat of a
// value a DISTINCT item has already folded.
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
			k := vec.Value(ri).HashKey()
			if _, dup := st.seen[k]; dup {
				continue
			}
			if st.seen == nil {
				st.seen = map[string]struct{}{}
			}
			st.seen[k] = struct{}{}
		}
		switch op {
		case aggCount:
			st.cnt++
		case aggSum, aggAvg:
			switch kind {
			case types.KindInt:
				st.si += vec.Int(ri)
				st.cnt++
			case types.KindFloat:
				st.sf += vec.Float(ri)
				st.cnt++
				st.notAllInt = true
			default:
				v := vec.Value(ri)
				if v.LaneKind() == types.KindInt {
					st.si += v.LaneInt()
					st.cnt++
					continue
				}
				fl, err := v.AsFloat()
				if err != nil {
					st.foldErr = err
					continue
				}
				st.sf += fl
				st.cnt++
				st.notAllInt = true
			}
		case aggMin, aggMax:
			switch kind {
			case types.KindInt:
				x := vec.Int(ri)
				if st.have && st.class == clsNumeric && st.best.LaneKind() == types.KindInt {
					// Typed compare; strict replacement keeps the first
					// of equals, and cmpInt agrees with < and >.
					if (op == aggMin && x < st.best.LaneInt()) || (op == aggMax && x > st.best.LaneInt()) {
						st.best = types.NewInt(x)
					}
					continue
				}
				st.step(op, types.NewInt(x))
			case types.KindFloat:
				x := vec.Float(ri)
				if st.have && st.class == clsNumeric && st.best.LaneKind() == types.KindFloat {
					// Strict < and > agree with types.Compare's cmpFloat
					// for NaN too: NaN compares equal, first value kept.
					if (op == aggMin && x < st.best.LaneFloat()) || (op == aggMax && x > st.best.LaneFloat()) {
						st.best = types.NewFloat(x)
					}
					continue
				}
				st.step(op, types.NewFloat(x))
			default:
				st.step(op, vec.Value(ri))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Hash-join build.

// joinIndex maps a join key to the right-side row indexes carrying it,
// in ascending row order, as one hash partition per build worker. Each
// partition builder scans the precomputed keys ascending, so per-key
// index lists — and with them the probe's output — are the same at
// every width.
type joinIndex struct {
	parts []map[string][]int
}

func (ix *joinIndex) lookup(k string) []int { return ix.parts[keyPart(k, len(ix.parts))][k] }

// keyPart assigns a join key to one of n partitions by FNV-1a; a lone
// partition needs no hash.
func keyPart(k string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return int(h % uint32(n))
}

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

// buildJoinIndex builds the right-side hash index in two phases, each
// fanned out when the build side is large enough: keys and partition
// assignments over contiguous row ranges, then one builder per
// partition.
func (e *Engine) buildJoinIndex(rows []types.Row, eqR []int, ctx *stmtCtx) *joinIndex {
	n := len(rows)
	nw := e.workers(n, ctx)
	defer e.releaseWorkers(nw - 1)

	keys := make([]string, n)
	part := make([]int32, n) // -1 = NULL key, never joins
	ranges := contiguousRanges(n, nw)
	_ = fanOut(nw, len(ranges), func(next func() (int, bool)) error {
		for ri, ok := next(); ok; ri, ok = next() {
			for i := ranges[ri][0]; i < ranges[ri][1]; i++ {
				k, ok := joinKey(rows[i], eqR)
				if !ok {
					part[i] = -1
					continue
				}
				keys[i] = k
				part[i] = int32(keyPart(k, nw))
			}
		}
		return nil
	})

	ix := &joinIndex{parts: make([]map[string][]int, nw)}
	_ = fanOut(nw, nw, func(next func() (int, bool)) error {
		for p, ok := next(); ok; p, ok = next() {
			m := make(map[string][]int, n/nw)
			for i, pi := range part {
				if int(pi) == p {
					m[keys[i]] = append(m[keys[i]], i)
				}
			}
			ix.parts[p] = m
		}
		return nil
	})
	return ix
}
