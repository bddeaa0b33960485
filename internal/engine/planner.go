package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// The planner resolves every FROM entry once per plan (resolveRef): its
// layout, its source and, for the entry of a join-free SELECT or a
// mutation, an access path; and it chooses a strategy for every join
// (analyzeJoin). Analysis is purely structural — key expressions stay
// unevaluated, no row is read — so a cached plan serves every
// execution, which opens what it resolved, and EXPLAIN prints the same
// objects, with unbound parameters: a probed join's right side as
// probe(<index>).

// tidCol is the pseudo column position of the `_tid` system column in
// planner equality maps (real schema positions are >= 0).
const tidCol = -1

// pathKind enumerates the access paths available for one table scan.
type pathKind int

// Access paths.
const (
	pathFullScan pathKind = iota
	pathTID               // _tid = const or _tid IN (consts): storage.Table.GetAt
	pathIndex             // an index's key columns bound by = or IN: storage.Table.Lookup
)

// scanPlan is the planner's choice for one table scan: the index and the
// keys to look up in it — for a point predicate one tuple, in index-key
// order (a one-tuple for _tid); for an IN list (in) the list itself, one
// one-column key per element. Key expressions are kept unevaluated, and
// the plan holds the statement's own list, not a copy; resolveScan binds
// them against the statement's arguments at execution time.
type scanPlan struct {
	kind  pathKind
	index *storage.IndexInfo // pathIndex only
	tuple []sqltext.Expr
	in    bool
}

// constKeyExpr reports whether x can serve as an index key: a literal or
// a positional parameter. NULL literals qualify (a NULL key matches
// nothing, which resolveScan handles).
func constKeyExpr(x sqltext.Expr) bool {
	switch x.(type) {
	case *sqltext.Literal, *sqltext.Param:
		return true
	}
	return false
}

// andConjuncts flattens the top-level AND chain of an expression.
func andConjuncts(x sqltext.Expr) []sqltext.Expr {
	var out []sqltext.Expr
	var collect func(sqltext.Expr)
	collect = func(x sqltext.Expr) {
		if bin, ok := x.(*sqltext.Binary); ok && bin.Op == "AND" {
			collect(bin.L)
			collect(bin.R)
			return
		}
		out = append(out, x)
	}
	collect(x)
	return out
}

// analyzeScan picks an access path for a single-table scan with the
// given WHERE clause. It walks the top-level AND chain collecting
// equality and IN conjuncts over columns; because any conjunct only
// *restricts* the result, using one conjunct as the access path and
// re-checking the full WHERE on the fetched rows is always sound.
//
// Ranking: _tid =, then the first index in storage's rank order (pk,
// column UNIQUE by position, named by most key columns then name) whose
// key columns are all bound by =; then _tid IN and the first
// single-column index under an IN, in the same order.
func analyzeScan(where sqltext.Expr, schema *catalog.TableSchema, tbl *storage.Table, qual string) *scanPlan {
	full := &scanPlan{kind: pathFullScan}
	if where == nil || tbl == nil {
		return full
	}

	colFor := func(cr *sqltext.ColumnRef) (int, bool) {
		if cr.Table != "" && !strings.EqualFold(cr.Table, qual) {
			return 0, false
		}
		if strings.EqualFold(cr.Column, catalog.SysTID) {
			return tidCol, true
		}
		p := schema.ColIndex(cr.Column)
		return p, p >= 0
	}

	// Per column, the first usable conjunct of each shape.
	eq := map[int]sqltext.Expr{}
	in := map[int][]sqltext.Expr{}
	for _, c := range andConjuncts(where) {
		switch x := c.(type) {
		case *sqltext.Binary:
			if x.Op != "=" {
				continue
			}
			cr, ok := x.L.(*sqltext.ColumnRef)
			key := x.R
			if !ok || !constKeyExpr(key) {
				cr, ok = x.R.(*sqltext.ColumnRef)
				key = x.L
				if !ok || !constKeyExpr(key) {
					continue
				}
			}
			if col, okc := colFor(cr); okc {
				if _, dup := eq[col]; !dup {
					eq[col] = key
				}
			}
		case *sqltext.InExpr:
			if x.Not || x.Query != nil {
				continue
			}
			cr, ok := x.X.(*sqltext.ColumnRef)
			if !ok {
				continue
			}
			col, okc := colFor(cr)
			if _, dup := in[col]; !okc || dup {
				continue
			}
			usable := len(x.List) > 0
			for _, le := range x.List {
				usable = usable && constKeyExpr(le)
			}
			if usable {
				in[col] = x.List
			}
		}
	}

	if k, ok := eq[tidCol]; ok {
		return &scanPlan{kind: pathTID, tuple: []sqltext.Expr{k}}
	}
	indexes := tbl.Indexes()
	for _, ix := range indexes {
		tuple := make([]sqltext.Expr, len(ix.Cols))
		for i, c := range ix.Cols {
			tuple[i] = eq[c]
		}
		if !slices.Contains(tuple, nil) {
			return &scanPlan{kind: pathIndex, index: ix, tuple: tuple}
		}
	}
	if list, ok := in[tidCol]; ok {
		return &scanPlan{kind: pathTID, tuple: list, in: true}
	}
	for _, ix := range indexes {
		if list, ok := in[ix.Cols[0]]; ok && len(ix.Cols) == 1 {
			return &scanPlan{kind: pathIndex, index: ix, tuple: list, in: true}
		}
	}
	return full
}

// constVal binds a planner key expression against the statement's
// arguments. ok=false (unbound parameter) makes the executor fall back
// to a streaming full scan.
func constVal(x sqltext.Expr, args []types.Value) (types.Value, bool) {
	switch v := x.(type) {
	case *sqltext.Literal:
		return v.Value, true
	case *sqltext.Param:
		if v.Index < len(args) {
			return args[v.Index], true
		}
	}
	return types.Null, false
}

// bindKey converts a key constant to the kind of the indexed column so
// that key equality in the index is exactly types.Compare equality on the
// column — the one rule that keeps a statement's outcome independent of
// which indexes exist. ok=false: Compare is not defined for the pair (or
// cannot be mirrored by one key), so the full scan must decide, erroring
// or not as it would without the index. match=false: the key provably
// equals no value of the column (NULL; a fractional FLOAT against INT).
func bindKey(col types.Kind, v types.Value) (key types.Value, match, ok bool) {
	switch k := v.Kind(); {
	case k == types.KindNull:
		return v, false, true
	case k == types.KindFloat && math.IsNaN(v.Float()):
		return v, false, false // Compare calls NaN equal to every number
	case k == col:
		return v, true, true
	case col == types.KindFloat && k == types.KindInt:
		return types.NewFloat(float64(v.Int())), true, true // Compare rounds the same way
	case col == types.KindInt && k == types.KindFloat:
		f := v.Float()
		if f != math.Trunc(f) {
			return v, false, true
		}
		if math.Abs(f) < 1<<53 { // beyond, several INTs round to f
			return types.NewInt(int64(f)), true, true
		}
	}
	return v, false, false
}

// resolveScan turns a non-full-scan plan into the rows it selects as of
// asOf, each once even when several key tuples name it (`pk IN (5, 5)`),
// as a base table's source batch: values and tids.
// ok=false means the plan could not be applied (unbound parameter, key
// bindKey refuses) and the caller must fall back to a full scan; ok=true
// with no rows means the predicate provably matches nothing.
func resolveScan(plan *scanPlan, schema *catalog.TableSchema, tbl *storage.Table, args []types.Value, asOf int64) (m batch, ok bool) {
	nk, w := 1, len(plan.tuple) // the keys, and the columns of each
	if plan.in {
		nk, w = w, 1
	}
	// The finds go straight into the batch, a base table's (tids beside
	// the rows, even when it finds none): with several keys, sized by
	// their count (one row a key, as a unique key finds); with one, by
	// what Lookup finds.
	m = batch{tids: []int64{}}
	var seen map[int64]bool
	if nk > 1 {
		seen = make(map[int64]bool, nk)
		m = batch{rows: make([]types.Row, 0, nk), tids: make([]int64, 0, nk)}
	}
	var kbuf [4]types.Value // the key, on the stack while it is short
	key := slices.Grow(kbuf[:0], w)[:w]
	for k := range nk {
		tuple := plan.tuple
		if plan.in {
			tuple = tuple[k : k+1]
		}
		match := true
		for i, kx := range tuple {
			v, bound := constVal(kx, args)
			if !bound {
				return batch{}, false
			}
			col := types.KindInt // _tid
			if plan.kind == pathIndex {
				col = schema.Columns[plan.index.Cols[i]].Type
			}
			kv, eq, ok := bindKey(col, v)
			if !ok {
				return batch{}, false
			}
			key[i], match = kv, match && eq
		}
		if !match {
			continue
		}
		n := len(m.tids)
		if plan.kind == pathIndex {
			m.rows, m.tids = tbl.Lookup(plan.index, key, asOf, m.rows, m.tids)
		} else if sr, hit := tbl.GetAt(key[0].Int(), asOf); hit {
			m.rows, m.tids = append(m.rows, sr.Values), append(m.tids, sr.TID)
		}
		if seen != nil { // keep each tid's first find
			kept := n
			for i, tid := range m.tids[n:] {
				if !seen[tid] {
					seen[tid] = true
					m.rows[kept], m.tids[kept] = m.rows[n+i], tid
					kept++
				}
			}
			m.rows, m.tids = m.rows[:kept], m.tids[:kept]
		}
	}
	return m, true
}

// ------------------------------------------------------------ FROM entries

// fromRef is one FROM entry resolved without reading any rows: its
// layout, and the source of its rows — a subquery (sub), a virtual table
// (virtual), or a base table (rel.tbl), read through plan when the entry
// has a WHERE to choose an access path from, unless IVM override rows
// replace the table named key. err is why the entry does not resolve.
type fromRef struct {
	rel     *relation
	sub     *selPlan
	virtual *virtualTable
	key     string
	plan    *scanPlan
	err     error
}

// resolveRef resolves one FROM entry (see fromRef): the executor opens
// what it returns (open), and EXPLAIN prints it. where is the WHERE of a
// join-free SELECT or of a mutation, nil for any other entry. A
// subquery's layout is its items over its own resolved FROM.
func (pl *planner) resolveRef(tr sqltext.TableRef, where sqltext.Expr) fromRef {
	e, qual := pl.e, strings.ToLower(tr.Alias)
	if tr.Subquery != nil {
		sub := pl.selectPlan(tr.Subquery)
		ref := fromRef{sub: sub, err: cmp.Or(sub.err, sub.itemsErr)}
		if ref.err == nil { // its output columns under qual
			ref.rel = &relation{cols: make([]colMeta, len(sub.names))}
			for i, n := range sub.names {
				ref.rel.cols[i] = colMeta{qual: qual, name: strings.ToLower(n)}
			}
		}
		return ref
	}
	if qual == "" {
		qual = strings.ToLower(tr.Table)
	}
	// Virtual system tables (sys_metrics, sys_slow_queries, sys_sessions)
	// are computed on the fly and shadow the catalog.
	if vt := e.lookupVirtual(tr.Table); vt != nil {
		rel := &relation{cols: make([]colMeta, len(vt.cols))}
		for i, c := range vt.cols {
			rel.cols[i] = colMeta{qual: qual, name: c}
		}
		return fromRef{rel: rel, virtual: vt}
	}
	// View resolution: the backing table holds the materialized rows.
	name := tr.Table
	if v, ok := e.cat.View(name); ok {
		name = v.Backing
	}
	tbl := e.store.Table(name)
	if tbl == nil {
		return fromRef{err: fmt.Errorf("engine: no such table %q", tr.Table)}
	}
	rel := &relation{cols: make([]colMeta, 0, len(tbl.Schema.Columns)+2), tbl: tbl}
	for _, c := range tbl.Schema.Columns {
		rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(c.Name), kind: c.Type})
	}
	if !pl.delta {
		rel.cols = append(rel.cols,
			colMeta{qual: qual, name: catalog.SysTID, hidden: true, kind: types.KindInt},
			colMeta{qual: qual, name: catalog.SysCreated, hidden: true, kind: types.KindInt},
		)
	}
	ref := fromRef{rel: rel, key: strings.ToLower(tr.Table)}
	if where != nil {
		ref.plan = analyzeScan(where, tbl.Schema, tbl, qual)
	}
	return ref
}

// label renders the entry's access path for EXPLAIN.
func (ref *fromRef) label() string {
	switch p := ref.plan; {
	case ref.sub != nil:
		return "subquery"
	case ref.virtual != nil:
		return "virtual"
	case p == nil:
		return "full-scan"
	case p.kind == pathFullScan:
		// The executor runs a full-scan WHERE through the expression VM;
		// index paths evaluate inside the index itself.
		return "full-scan [compiled]"
	case p.kind == pathTID || p.index.Origin == storage.OriginPK:
		return "pk-point"
	case p.index.Origin == storage.OriginColumn:
		return "unique-point"
	}
	return "index(" + ref.plan.index.Name + ")"
}

// ----------------------------------------------------------------- joins

// joinStep is one JOIN's plan: its right side as resolved, the strategy
// analyzeJoin chose, and the ON conjuncts left to check, compiled over
// the joined layout, lw then w columns wide. A right side that does not
// resolve (right.err) ends the plan.
type joinStep struct {
	jc    sqltext.JoinClause
	right fromRef
	plan  *joinPlan
	on    evalPlan
	lw, w int
}

// joinPlan is the planner's choice for one JOIN step.
type joinPlan struct {
	kind     string         // "hash-join", "nested-loop" or "cross-join", as EXPLAIN prints it
	eqL, eqR []int          // equality key positions in the left/right relation
	residual []sqltext.Expr // non-equality ON conjuncts, checked per match
	// Probe-side shortcut, set when the right side is a base table with
	// an index over exactly the join key: the first such index in rank
	// order, and for each of its key positions the position in eqL/eqR
	// that feeds it. An execution whose right side IVM overrides rows
	// cannot probe, and hashes them instead.
	probe *storage.IndexInfo
	perm  []int
}

// analyzeJoin classifies one join clause. A hash join applies when ON is
// an AND chain containing at least one equality between a left-side and
// a right-side column; the remaining conjuncts become a residual filter
// evaluated on each candidate match.
func analyzeJoin(left, right *relation, jc sqltext.JoinClause) *joinPlan {
	if jc.Kind == "CROSS" {
		return &joinPlan{kind: "cross-join"}
	}
	plan := &joinPlan{kind: "nested-loop"}
	for _, c := range andConjuncts(jc.On) {
		eqv, ok := c.(*sqltext.Binary)
		if !ok || eqv.Op != "=" {
			plan.residual = append(plan.residual, c)
			continue
		}
		lcr, lok := eqv.L.(*sqltext.ColumnRef)
		rcr, rok := eqv.R.(*sqltext.ColumnRef)
		if !lok || !rok {
			plan.residual = append(plan.residual, c)
			continue
		}
		li, lerr := left.resolve(lcr)
		ri, rerr := right.resolve(rcr)
		if lerr != nil || rerr != nil {
			// Maybe the refs are swapped relative to the sides.
			li2, lerr2 := left.resolve(rcr)
			ri2, rerr2 := right.resolve(lcr)
			if lerr2 != nil || rerr2 != nil {
				plan.residual = append(plan.residual, c)
				continue
			}
			li, ri = li2, ri2
		}
		plan.eqL = append(plan.eqL, li)
		plan.eqR = append(plan.eqR, ri)
	}
	if len(plan.eqL) == 0 {
		// Nested loop re-evaluates the whole ON clause; no residual split.
		plan.residual = nil
		return plan
	}
	plan.kind = "hash-join"

	// Build on the indexed side: when the right side is an unread base
	// table and storage already maintains a hash index over exactly the
	// join key columns, probe that index per left row instead of
	// collecting the right side and building a second hash table.
	if right.tbl != nil {
		for _, ix := range right.tbl.Indexes() {
			if perm := coverPerm(ix.Cols, plan.eqR); perm != nil {
				plan.probe, plan.perm = ix, perm
				break
			}
		}
	}
	return plan
}

// coverPerm reports whether the index key columns are exactly the given
// relation positions (order-insensitive, as multisets): for each index-key
// position, the position in cols that feeds it; nil if not. System
// columns sit past the user columns and so match no index column.
func coverPerm(ixCols, cols []int) []int {
	if len(ixCols) != len(cols) {
		return nil
	}
	perm := make([]int, len(ixCols))
	used := make([]bool, len(cols))
	for i, ic := range ixCols {
		found := -1
		for j, c := range cols {
			if c == ic && !used[j] {
				found = j
				break
			}
		}
		if found < 0 {
			return nil
		}
		used[found] = true
		perm[i] = found
	}
	return perm
}

// ---------------------------------------------------------------- EXPLAIN

// evalExplain renders the plan the executor runs for a statement,
// without executing it: each FROM entry as resolveRef resolved it, each
// join as analyzeJoin planned it. With no arguments bound, a parameter
// is no LIMIT bound. Only the parallel marker reads the snapshot.
func (e *Engine) evalExplain(p *plan, ctx *stmtCtx) (*Result, error) {
	var lines []string
	var err error
	switch p.stmt.(type) {
	case *sqltext.Select:
		lines, err = e.explainSelect(p.sel, "", ctx)
	case *sqltext.Update, *sqltext.Delete:
		// An UPDATE's or DELETE's scan of its table, after the checks the
		// statement makes first (writeTarget).
		if err = cmp.Or(p.mut.err, p.mut.ref.err); err == nil {
			lines = []string{strings.ToLower(p.kind.Keyword()) + " " + p.mut.table + ": " + p.mut.ref.label()}
		}
	default:
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT, UPDATE or DELETE")
	}
	if err != nil {
		return nil, err
	}
	rows := make([]types.Row, len(lines))
	for i, l := range lines {
		rows[i] = types.Row{types.NewString(l)}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows}, nil
}

func (e *Engine) explainSelect(sp *selPlan, indent string, ctx *stmtCtx) ([]string, error) {
	var lines []string
	sel := sp.sel
	if sel.From == nil {
		lines = append(lines, indent+"result: constant")
	} else {
		ref := &sp.from
		if ref.err != nil {
			return nil, ref.err
		}
		label := ref.label()
		if ref.plan != nil && ref.plan.kind == pathFullScan {
			// Morsel-parallel fan-out: shown with the configured width when
			// the snapshot's slot count clears the threshold. The executor
			// may still run narrower (or serial) if the engine-wide worker
			// budget is taken.
			if k := e.parallelWidth(ref.rel.tbl.View(ctx.snap).Slots()); k > 1 {
				label += fmt.Sprintf(" [parallel n=%d]", k)
			}
		}
		var err error
		if lines, err = e.explainScan(lines, *sel.From, ref, label, indent, ctx); err != nil {
			return nil, err
		}
		for i := range sp.joins {
			js := &sp.joins[i]
			if js.right.err != nil {
				return nil, js.right.err
			}
			label := js.right.label()
			if js.plan.probe != nil {
				label = "probe(" + js.plan.probe.Name + ")"
			}
			if lines, err = e.explainScan(lines, js.jc.Right, &js.right, label, indent, ctx); err != nil {
				return nil, err
			}
			lines = append(lines, indent+"join "+refName(js.jc.Right)+": "+js.plan.kind)
		}
		if sp.itemsErr == nil && sp.agg == nil && len(sp.proj.bare) > 0 {
			lines = append(lines, indent+"project: compiled")
		}
	}
	if len(sel.OrderBy) > 0 {
		label := "full"
		if k := sortBound(sel, nil); k >= 0 {
			label = fmt.Sprintf("top-k(%d)", k)
		}
		lines = append(lines, indent+"sort: "+label)
	}
	return lines, nil
}

// explainScan appends the scan line of one resolved FROM entry, and a
// subquery's own plan indented beneath it.
func (e *Engine) explainScan(lines []string, tr sqltext.TableRef, ref *fromRef, label, indent string, ctx *stmtCtx) ([]string, error) {
	lines = append(lines, indent+"scan "+refName(tr)+": "+label)
	if ref.sub == nil {
		return lines, nil
	}
	sub, err := e.explainSelect(ref.sub, indent+"  ", ctx)
	return append(lines, sub...), err
}

func refName(tr sqltext.TableRef) string {
	if tr.Alias != "" {
		return tr.Alias
	}
	if tr.Subquery != nil {
		return "(subquery)"
	}
	return tr.Table
}
