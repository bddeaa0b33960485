package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// The planner chooses an access path for every base-table scan and a
// strategy for every join. Analysis is purely structural — key
// expressions stay unevaluated — so the same analysis backs both the
// executor and EXPLAIN, and EXPLAIN works with unbound parameters.

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
// key tuples to look up in it, each in index-key order (one-tuples for
// _tid). A point predicate is a one-tuple list, an IN list one tuple per
// element. Key expressions are kept unevaluated; resolveScan binds them
// against the statement's arguments at execution time.
type scanPlan struct {
	kind  pathKind
	index *storage.IndexInfo // pathIndex only
	keys  [][]sqltext.Expr
}

// label renders the path for EXPLAIN output.
func (p *scanPlan) label() string {
	switch {
	case p.kind == pathFullScan:
		return "full-scan"
	case p.kind == pathTID || p.index.Origin == storage.OriginPK:
		return "pk-point"
	case p.index.Origin == storage.OriginColumn:
		return "unique-point"
	}
	return "index(" + p.index.Name + ")"
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
		return &scanPlan{kind: pathTID, keys: [][]sqltext.Expr{{k}}}
	}
	indexes := tbl.Indexes()
	for _, ix := range indexes {
		tuple := make([]sqltext.Expr, len(ix.Cols))
		for i, c := range ix.Cols {
			tuple[i] = eq[c]
		}
		if !slices.Contains(tuple, nil) {
			return &scanPlan{kind: pathIndex, index: ix, keys: [][]sqltext.Expr{tuple}}
		}
	}
	// An IN list is one one-tuple per element (slices of the list itself).
	inPlan := func(kind pathKind, ix *storage.IndexInfo, list []sqltext.Expr) *scanPlan {
		keys := make([][]sqltext.Expr, len(list))
		for i := range list {
			keys[i] = list[i : i+1]
		}
		return &scanPlan{kind: kind, index: ix, keys: keys}
	}
	if list, ok := in[tidCol]; ok {
		return inPlan(pathTID, nil, list)
	}
	for _, ix := range indexes {
		if list, ok := in[ix.Cols[0]]; ok && len(ix.Cols) == 1 {
			return inPlan(pathIndex, ix, list)
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
// asOf, each once even when several key tuples name it (`pk IN (5, 5)`).
// ok=false means the plan could not be applied (unbound parameter, key
// bindKey refuses) and the caller must fall back to a full scan; ok=true
// with no rows means the predicate provably matches nothing.
func resolveScan(plan *scanPlan, schema *catalog.TableSchema, tbl *storage.Table, args []types.Value, asOf int64) (rows []storage.StoredRow, ok bool) {
	// Sized by the key count: one row a key, as a unique key finds.
	var seen map[int64]bool
	if len(plan.keys) > 1 {
		seen = make(map[int64]bool, len(plan.keys))
	}
	rows = make([]storage.StoredRow, 0, len(plan.keys))
	key := make(types.Row, len(plan.keys[0]))
	for _, tuple := range plan.keys {
		match := true
		for i, kx := range tuple {
			v, bound := constVal(kx, args)
			if !bound {
				return nil, false
			}
			col := types.KindInt // _tid
			if plan.kind == pathIndex {
				col = schema.Columns[plan.index.Cols[i]].Type
			}
			kv, m, ok := bindKey(col, v)
			if !ok {
				return nil, false
			}
			key[i], match = kv, match && m
		}
		if !match {
			continue
		}
		found := len(rows)
		if plan.kind == pathIndex {
			rows = tbl.Lookup(plan.index, key, asOf, rows)
		} else if sr, hit := tbl.GetAt(key[0].Int(), asOf); hit {
			rows = append(rows, sr)
		}
		if seen != nil { // keep each tid's first find
			kept := found
			for _, sr := range rows[found:] {
				if !seen[sr.TID] {
					seen[sr.TID] = true
					rows[kept] = sr
					kept++
				}
			}
			rows = rows[:kept]
		}
	}
	return rows, true
}

// ----------------------------------------------------------------- joins

// joinPlan is the planner's choice for one JOIN step.
type joinPlan struct {
	kind     string         // "hash", "nested" or "cross"
	eqL, eqR []int          // equality key positions in the left/right relation
	residual []sqltext.Expr // non-equality ON conjuncts, checked per match
	// Probe-side shortcut, set when the right side is an unmaterialized
	// base table with an index over exactly the join key: the first such
	// index in rank order, and for each of its key positions the position
	// in eqL/eqR that feeds it.
	probe *storage.IndexInfo
	perm  []int
}

// analyzeJoin classifies one join clause. A hash join applies when ON is
// an AND chain containing at least one equality between a left-side and
// a right-side column; the remaining conjuncts become a residual filter
// evaluated on each candidate match.
func (e *Engine) analyzeJoin(left, right *relation, jc sqltext.JoinClause, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) *joinPlan {
	if jc.Kind == "CROSS" {
		return &joinPlan{kind: "cross"}
	}
	plan := &joinPlan{kind: "nested"}
	lb := newBinder(e, args, left, ctx)
	rb := newBinder(e, args, right, ctx)
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
		li, lerr := lb.resolve(lcr)
		ri, rerr := rb.resolve(rcr)
		if lerr != nil || rerr != nil {
			// Maybe the refs are swapped relative to the sides.
			li2, lerr2 := lb.resolve(rcr)
			ri2, rerr2 := rb.resolve(lcr)
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
	plan.kind = "hash"

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

// evalExplain renders the planner's choices for a statement without
// executing it. Planning is purely structural (catalog and table metadata
// are internally synchronized), so no engine lock is required.
func (e *Engine) evalExplain(x *sqltext.Explain, args []types.Value, ctx *stmtCtx) (*Result, error) {
	var lines []string
	var err error
	switch s := x.Stmt.(type) {
	case *sqltext.Select:
		lines, err = e.explainSelect(s, "", ctx)
	case *sqltext.Update:
		lines, err = e.explainMutation("update", s.Table, s.Where)
	case *sqltext.Delete:
		lines, err = e.explainMutation("delete", s.Table, s.Where)
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

func (e *Engine) explainSelect(sel *sqltext.Select, indent string, ctx *stmtCtx) ([]string, error) {
	var lines []string
	if sel.From == nil {
		lines = append(lines, indent+"result: constant")
	} else {
		fl, err := e.explainRef(*sel.From, sel, indent, ctx)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fl...)
		left, err := e.refCols(*sel.From)
		if err != nil {
			return nil, err
		}
		for _, j := range sel.Joins {
			rl, err := e.explainRef(j.Right, nil, indent, ctx)
			if err != nil {
				return nil, err
			}
			lines = append(lines, rl...)
			right, err := e.refCols(j.Right)
			if err != nil {
				return nil, err
			}
			plan := e.analyzeJoin(left, right, j, nil, nil, ctx)
			label := "nested-loop"
			switch plan.kind {
			case "cross":
				label = "cross-join"
			case "hash":
				label = "hash-join"
			}
			lines = append(lines, indent+"join "+refName(j.Right)+": "+label)
			left = &relation{cols: append(append([]colMeta{}, left.cols...), right.cols...)}
		}
		if items, _, err := expandItems(sel, left); err == nil && len(items) > 0 {
			agg := len(sel.GroupBy) > 0
			for i := range items {
				agg = agg || sqltext.HasAggregate(&items[i].Expr)
			}
			if !agg {
				lines = append(lines, indent+"project: compiled")
			}
		}
	}
	if len(sel.OrderBy) > 0 {
		sortLabel := "full"
		if sel.Limit != nil {
			if n, ok := staticInt(sel.Limit); ok {
				k, usable := n, true
				if sel.Offset != nil {
					if m, ok2 := staticInt(sel.Offset); ok2 {
						k += m
					} else {
						usable = false
					}
				}
				if usable && k >= 0 {
					sortLabel = fmt.Sprintf("top-k(%d)", k)
				}
			}
		}
		lines = append(lines, indent+"sort: "+sortLabel)
	}
	return lines, nil
}

// explainRef renders the scan line for one FROM entry. sel is non-nil
// only for the first entry of a join-free SELECT — the same condition
// under which the executor applies index fast paths.
func (e *Engine) explainRef(tr sqltext.TableRef, sel *sqltext.Select, indent string, ctx *stmtCtx) ([]string, error) {
	name := refName(tr)
	if tr.Subquery != nil {
		lines := []string{indent + "scan " + name + ": subquery"}
		sub, err := e.explainSelect(tr.Subquery, indent+"  ", ctx)
		if err != nil {
			return nil, err
		}
		return append(lines, sub...), nil
	}
	if vt := e.lookupVirtual(tr.Table); vt != nil {
		return []string{indent + "scan " + name + ": virtual"}, nil
	}
	target := tr.Table
	if v, ok := e.cat.View(target); ok {
		target = v.Backing
	}
	schema, ok := e.cat.Table(target)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", tr.Table)
	}
	label := "full-scan"
	if sel != nil && len(sel.Joins) == 0 && sel.Where != nil {
		qual := strings.ToLower(tr.Alias)
		if qual == "" {
			qual = strings.ToLower(tr.Table)
		}
		label = analyzeScan(sel.Where, schema, e.store.Table(target), qual).label()
		if label == "full-scan" {
			// The executor runs a full-scan WHERE through the expression VM;
			// index paths evaluate inside the index itself.
			label += " [compiled]"
			// Morsel-parallel fan-out: shown with the configured width when
			// the snapshot's slot count clears the threshold. The executor
			// may still run narrower (or serial) if the engine-wide worker
			// budget is taken.
			if tbl := e.store.Table(target); tbl != nil {
				if k := e.parallelWidth(tbl.View(ctx.snap).Slots()); k > 1 {
					label += fmt.Sprintf(" [parallel n=%d]", k)
				}
			}
		}
	}
	return []string{indent + "scan " + name + ": " + label}, nil
}

func (e *Engine) explainMutation(verb, table string, where sqltext.Expr) ([]string, error) {
	if _, isView := e.cat.View(table); isView {
		return nil, fmt.Errorf("engine: cannot %s view %q", strings.ToUpper(verb), table)
	}
	schema, ok := e.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", table)
	}
	label := "full-scan"
	if where != nil {
		label = analyzeScan(where, schema, e.store.Table(table), strings.ToLower(table)).label()
		if label == "full-scan" {
			label += " [compiled]"
		}
	}
	return []string{verb + " " + table + ": " + label}, nil
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

// refCols builds the column shape of one FROM entry without touching any
// rows (EXPLAIN never materializes).
func (e *Engine) refCols(tr sqltext.TableRef) (*relation, error) {
	qual := strings.ToLower(tr.Alias)
	if tr.Subquery != nil {
		names, err := e.selectCols(tr.Subquery)
		if err != nil {
			return nil, err
		}
		rel := &relation{}
		for _, n := range names {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(n)})
		}
		return rel, nil
	}
	if qual == "" {
		qual = strings.ToLower(tr.Table)
	}
	if vt := e.lookupVirtual(tr.Table); vt != nil {
		rel := &relation{}
		for _, c := range vt.cols {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: c})
		}
		return rel, nil
	}
	name := tr.Table
	if v, ok := e.cat.View(name); ok {
		name = v.Backing
	}
	schema, ok := e.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", tr.Table)
	}
	rel := &relation{tbl: e.store.Table(name)}
	for _, c := range schema.Columns {
		rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(c.Name), kind: c.Type})
	}
	rel.cols = append(rel.cols,
		colMeta{qual: qual, name: catalog.SysTID, hidden: true, kind: types.KindInt},
		colMeta{qual: qual, name: catalog.SysCreated, hidden: true, kind: types.KindInt},
	)
	return rel, nil
}

// selectCols computes a SELECT's output column names without executing.
func (e *Engine) selectCols(sel *sqltext.Select) ([]string, error) {
	rel := &relation{}
	if sel.From != nil {
		left, err := e.refCols(*sel.From)
		if err != nil {
			return nil, err
		}
		rel = left
		for _, j := range sel.Joins {
			right, err := e.refCols(j.Right)
			if err != nil {
				return nil, err
			}
			rel = &relation{cols: append(append([]colMeta{}, rel.cols...), right.cols...)}
		}
	}
	_, names, err := expandItems(sel, rel)
	return names, err
}

// staticInt extracts a non-parameter integer literal (EXPLAIN runs with
// no bound arguments, so only literals count as statically known).
func staticInt(x sqltext.Expr) (int, bool) {
	lit, ok := x.(*sqltext.Literal)
	if !ok || lit.Value.Kind() != types.KindInt {
		return 0, false
	}
	return int(lit.Value.Int()), true
}
