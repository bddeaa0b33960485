package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// refEval is the tree-walk interpreter the engine evaluated
// expressions with until the VM became total, kept as the tests' oracle
// of what every expression means: eval against one row, evalAgg over a
// group. It resolves names through the production layout and runs
// subqueries through the production binder, which it wraps.
type refEval struct {
	*binder
	rel *relation
	// inCache memoizes the value set of constant IN lists so membership
	// is O(1) per row instead of O(list).
	inCache map[*sqltext.InExpr]*inSet
	// group is what aggregate calls fold over inside evalAgg; inGroup is
	// false in row context, where an aggregate call is an error.
	group   []types.Row
	inGroup bool
}

// newRefEval is an oracle over rel, whose subqueries run by the plans
// of subs.
func newRefEval(e *Engine, subs map[*sqltext.Select]*selPlan, rel *relation, ctx *stmtCtx) *refEval {
	return &refEval{binder: e.newBinder(subs, nil, ctx), rel: rel}
}

func (o *refEval) resolve(cr *sqltext.ColumnRef) (int, error) { return o.rel.resolve(cr) }

// eval evaluates a scalar expression against one row.
//
// NULL handling follows SQL's three-valued logic: arithmetic and
// comparisons with a NULL operand yield NULL (unknown), NOT NULL is
// NULL, and AND/OR treat NULL as "unknown" (FALSE AND NULL is FALSE,
// TRUE OR NULL is TRUE, otherwise NULL propagates). Only at a filter
// boundary (WHERE, HAVING, JOIN ON — see evalBool) does unknown
// collapse to false. The previous two-valued reduction made
// `NOT (x = NULL)` evaluate to TRUE, silently keeping rows SQL excludes.
func (o *refEval) eval(e sqltext.Expr, row types.Row) (types.Value, error) {
	switch x := e.(type) {
	case *sqltext.Literal:
		return x.Value, nil
	case *sqltext.ColumnRef:
		i, err := o.resolve(x)
		if err != nil {
			return types.Null, err
		}
		if i >= len(row) {
			return types.Null, nil // empty-group evaluation
		}
		return row[i], nil
	case *sqltext.Param:
		if x.Index >= len(o.args) {
			return types.Null, fmt.Errorf("engine: missing argument for parameter %d", x.Index+1)
		}
		return o.args[x.Index], nil
	case *sqltext.Unary:
		v, err := o.eval(x.X, row)
		if err != nil {
			return types.Null, err
		}
		if x.Op == "NOT" {
			if v.IsNull() {
				return types.Null, nil
			}
			bv, err := v.AsBool()
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(!bv), nil
		}
		return types.Neg(v)
	case *sqltext.Binary:
		return o.evalBinary(x, row)
	case *sqltext.FuncCall:
		if sqltext.IsAggregateName(x.Name) {
			if !o.inGroup {
				return types.Null, fmt.Errorf("engine: aggregate %s outside GROUP BY context", x.Name)
			}
			return o.evalAggregateCall(x, o.group)
		}
		return o.evalFunc(x, row)
	case *sqltext.InExpr:
		return o.evalIn(x, row)
	case *sqltext.IsNull:
		v, err := o.eval(x.X, row)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqltext.Like:
		return o.evalLike(x, row)
	case *sqltext.Between:
		v, err := o.eval(x.X, row)
		if err != nil {
			return types.Null, err
		}
		lo, err := o.eval(x.Lo, row)
		if err != nil {
			return types.Null, err
		}
		hi, err := o.eval(x.Hi, row)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return types.Null, nil // x BETWEEN lo AND hi is unknown on NULL
		}
		cl, err := types.Compare(v, lo)
		if err != nil {
			return types.Null, err
		}
		ch, err := types.Compare(v, hi)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((cl >= 0 && ch <= 0) != x.Not), nil
	case *sqltext.CaseExpr:
		return o.evalCase(x, row)
	case *sqltext.Exists:
		rows, err := o.subquery(x.Query)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(rows) > 0) != x.Not), nil
	case *sqltext.Subquery:
		rows, err := o.subquery(x.Query)
		if err != nil {
			return types.Null, err
		}
		if len(rows) == 0 {
			return types.Null, nil
		}
		if len(rows) > 1 || len(rows[0]) != 1 {
			return types.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows))
		}
		return rows[0][0], nil
	}
	return types.Null, fmt.Errorf("engine: cannot evaluate %T", e)
}

// Three-valued truth of a predicate value.
const (
	tvFalse = iota
	tvTrue
	tvUnknown
)

func truth3(v types.Value) (int, error) {
	if v.IsNull() {
		return tvUnknown, nil
	}
	bv, err := v.AsBool()
	if err != nil {
		return tvFalse, err
	}
	if bv {
		return tvTrue, nil
	}
	return tvFalse, nil
}

func (o *refEval) evalBinary(x *sqltext.Binary, row types.Row) (types.Value, error) {
	// Short-circuit AND/OR with three-valued logic: FALSE dominates AND
	// and TRUE dominates OR regardless of a NULL on the other side.
	switch x.Op {
	case "AND":
		lv, err := o.eval(x.L, row)
		if err != nil {
			return types.Null, err
		}
		lt, err := truth3(lv)
		if err != nil {
			return types.Null, err
		}
		if lt == tvFalse {
			return types.NewBool(false), nil
		}
		rv, err := o.eval(x.R, row)
		if err != nil {
			return types.Null, err
		}
		rt, err := truth3(rv)
		if err != nil {
			return types.Null, err
		}
		if rt == tvFalse {
			return types.NewBool(false), nil
		}
		if lt == tvUnknown || rt == tvUnknown {
			return types.Null, nil
		}
		return types.NewBool(true), nil
	case "OR":
		lv, err := o.eval(x.L, row)
		if err != nil {
			return types.Null, err
		}
		lt, err := truth3(lv)
		if err != nil {
			return types.Null, err
		}
		if lt == tvTrue {
			return types.NewBool(true), nil
		}
		rv, err := o.eval(x.R, row)
		if err != nil {
			return types.Null, err
		}
		rt, err := truth3(rv)
		if err != nil {
			return types.Null, err
		}
		if rt == tvTrue {
			return types.NewBool(true), nil
		}
		if lt == tvUnknown || rt == tvUnknown {
			return types.Null, nil
		}
		return types.NewBool(false), nil
	}
	l, err := o.eval(x.L, row)
	if err != nil {
		return types.Null, err
	}
	r, err := o.eval(x.R, row)
	if err != nil {
		return types.Null, err
	}
	switch x.Op {
	case "+":
		return types.Add(l, r)
	case "-":
		return types.Sub(l, r)
	case "*":
		return types.Mul(l, r)
	case "/":
		return types.Div(l, r)
	case "%":
		return types.Mod(l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.NewString(l.AsString() + r.AsString()), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return types.Null, nil // comparison with NULL is unknown
		}
		c, err := types.Compare(l, r)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case "=":
			return types.NewBool(c == 0), nil
		case "!=":
			return types.NewBool(c != 0), nil
		case "<":
			return types.NewBool(c < 0), nil
		case "<=":
			return types.NewBool(c <= 0), nil
		case ">":
			return types.NewBool(c > 0), nil
		case ">=":
			return types.NewBool(c >= 0), nil
		}
	}
	return types.Null, fmt.Errorf("engine: unknown operator %q", x.Op)
}

// evalBool evaluates a predicate at a filter boundary (WHERE, HAVING,
// JOIN ON, CASE WHEN): three-valued "unknown" collapses to false, so a
// row whose predicate is NULL is excluded — never kept.
func (o *refEval) evalBool(e sqltext.Expr, row types.Row) (bool, error) {
	v, err := o.eval(e, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

func (o *refEval) evalIn(x *sqltext.InExpr, row types.Row) (types.Value, error) {
	v, err := o.eval(x.X, row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil // NULL IN (...) is unknown
	}
	found := false
	hadNull := false
	if x.Query != nil {
		rows, err := o.subquery(x.Query)
		if err != nil {
			return types.Null, err
		}
		key := hashKey(v)
		for _, r := range rows {
			if len(r) != 1 {
				return types.Null, fmt.Errorf("engine: IN subquery must return one column")
			}
			if r[0].IsNull() {
				hadNull = true
				continue
			}
			if hashKey(r[0]) == key {
				found = true
				break
			}
		}
	} else if set, ok := o.constInSet(x); ok {
		found = set.vals[hashKey(v)]
		hadNull = set.hasNull
	} else {
		for _, le := range x.List {
			lv, err := o.eval(le, row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() {
				hadNull = true
				continue
			}
			c, err := types.Compare(v, lv)
			if err != nil {
				continue // incomparable kinds never match
			}
			if c == 0 {
				found = true
				break
			}
		}
	}
	if found {
		return types.NewBool(!x.Not), nil
	}
	if hadNull {
		// `x IN (.., NULL)` without a match is x = NULL OR ... = unknown,
		// and NOT unknown stays unknown.
		return types.Null, nil
	}
	return types.NewBool(x.Not), nil
}

// inSet is a memoized constant IN list: its value set plus whether the
// list contained a NULL (which turns a non-match into unknown).
type inSet struct {
	vals    map[string]bool
	hasNull bool
}

// constInSet returns a memoized hash set of an IN list whose elements are
// all constants (literals or bound parameters), making membership O(1)
// per row — important for the tid-list extraction queries of the
// table-sync protocol, whose lists grow with the batch size.
func (o *refEval) constInSet(x *sqltext.InExpr) (*inSet, bool) {
	if o.inCache == nil {
		o.inCache = map[*sqltext.InExpr]*inSet{}
	}
	if set, ok := o.inCache[x]; ok {
		return set, set != nil
	}
	set := &inSet{vals: make(map[string]bool, len(x.List))}
	for _, le := range x.List {
		var v types.Value
		switch e := le.(type) {
		case *sqltext.Literal:
			v = e.Value
		case *sqltext.Param:
			if e.Index >= len(o.args) {
				o.inCache[x] = nil
				return nil, false
			}
			v = o.args[e.Index]
		default:
			o.inCache[x] = nil // not constant: remember the failure
			return nil, false
		}
		if v.IsNull() {
			set.hasNull = true
		} else {
			set.vals[hashKey(v)] = true
		}
	}
	o.inCache[x] = set
	return set, true
}

func (o *refEval) evalLike(x *sqltext.Like, row types.Row) (types.Value, error) {
	v, err := o.eval(x.X, row)
	if err != nil {
		return types.Null, err
	}
	p, err := o.eval(x.Pattern, row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return types.Null, nil // LIKE with NULL operand is unknown
	}
	m := vm.LikeMatch(v.AsString(), p.AsString())
	return types.NewBool(m != x.Not), nil
}

func (o *refEval) evalCase(x *sqltext.CaseExpr, row types.Row) (types.Value, error) {
	if x.Operand != nil {
		op, err := o.eval(x.Operand, row)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := o.eval(w.Cond, row)
			if err != nil {
				return types.Null, err
			}
			if !op.IsNull() && !wv.IsNull() {
				if c, err := types.Compare(op, wv); err == nil && c == 0 {
					return o.eval(w.Result, row)
				}
			}
		}
	} else {
		for _, w := range x.Whens {
			ok, err := o.evalBool(w.Cond, row)
			if err != nil {
				return types.Null, err
			}
			if ok {
				return o.eval(w.Result, row)
			}
		}
	}
	if x.Else != nil {
		return o.eval(x.Else, row)
	}
	return types.Null, nil
}

// evalAgg evaluates an expression that may contain aggregate calls over a
// group of rows: an aggregate call folds the group where evaluation
// reaches it — AND/OR/CASE/COALESCE short-circuit past aggregates as they
// do in row context — and everything else evaluates on the group's first
// row, or on no row at all for the empty implicit group.
func (o *refEval) evalAgg(e sqltext.Expr, group []types.Row) (types.Value, error) {
	o.group, o.inGroup = group, true
	defer func() { o.group, o.inGroup = nil, false }()
	var first types.Row
	if len(group) > 0 {
		first = group[0]
	}
	return o.eval(e, first)
}

func (o *refEval) evalAggregateCall(x *sqltext.FuncCall, group []types.Row) (types.Value, error) {
	name := strings.ToUpper(x.Name)
	if x.Star {
		if name != "COUNT" {
			return types.Null, fmt.Errorf("engine: %s(*) is not valid", name)
		}
		return types.NewInt(int64(len(group))), nil
	}
	if len(x.Args) != 1 {
		return types.Null, fmt.Errorf("engine: %s takes one argument", name)
	}
	// The argument is row context: an aggregate inside it is an error.
	o.inGroup = false
	defer func() { o.inGroup = true }()
	var vals []types.Value
	seen := map[string]bool{}
	for _, r := range group {
		v, err := o.eval(x.Args[0], r)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			k := hashKey(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	return foldAggregate(name, vals)
}

// foldAggregate reduces the collected (non-NULL, DISTINCT-deduped)
// argument values of one aggregate call.
func foldAggregate(name string, vals []types.Value) (types.Value, error) {
	switch name {
	case "COUNT":
		return types.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return types.Null, nil
		}
		allInt := true
		var si int64
		var sf float64
		for _, v := range vals {
			if v.Kind() == types.KindInt {
				si += v.Int()
				continue
			}
			f, err := v.AsFloat()
			if err != nil {
				return types.Null, err
			}
			allInt = false
			sf += f
		}
		if name == "SUM" {
			if allInt {
				return types.NewInt(si), nil
			}
			return types.NewFloat(sf + float64(si)), nil
		}
		return types.NewFloat((sf + float64(si)) / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return types.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := types.Compare(v, best)
			if err != nil {
				return types.Null, err
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return types.Null, fmt.Errorf("engine: unknown aggregate %s", name)
}

// evalFunc evaluates a scalar (non-aggregate) function call.
func (o *refEval) evalFunc(x *sqltext.FuncCall, row types.Row) (types.Value, error) {
	name := strings.ToUpper(x.Name)
	// COALESCE short-circuits, so it is handled before argument evaluation.
	if name == "COALESCE" {
		for _, a := range x.Args {
			v, err := o.eval(a, row)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	}
	args := make([]types.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := o.eval(a, row)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	return o.e.callScalarFn(name, args)
}

// callScalarFn dispatches a scalar function call: built-ins first, then
// the user registry — the precedence vmFunc resolves with.
func (e *Engine) callScalarFn(name string, args []types.Value) (types.Value, error) {
	if _, ok := builtinScalars[name]; ok {
		return callScalar(name, args)
	}
	if fn := e.userFunc(name); fn != nil {
		return fn(args)
	}
	return types.Null, fmt.Errorf("engine: unknown function %s", name)
}

// fullRow is a stored version as a base-table relation row: the user
// columns, then the _tid and _created system columns.
func fullRow(sr storage.StoredRow) types.Row {
	full := make(types.Row, 0, len(sr.Values)+2)
	full = append(full, sr.Values...)
	return append(full, types.NewInt(sr.TID), types.NewInt(sr.TID)) // _tid, _created
}

// refRead reads a base table of a FROM clause straight from storage, as
// of ctx's snapshot: its layout and every row at layout width. A nil
// layout means the entry is not a base table.
func refRead(e *Engine, tr sqltext.TableRef, ctx *stmtCtx) (*relation, []types.Row, error) {
	ref := (&planner{e: e, subs: map[*sqltext.Select]*selPlan{}}).resolveRef(tr, nil)
	if err := ref.err; err != nil || ref.rel.tbl == nil {
		return nil, nil, err
	}
	rel := ref.rel
	var rows []types.Row
	for it := rel.tbl.Iterate(ctx.snap); ; {
		sr, more := it.Next()
		if !more {
			return rel, rows, nil
		}
		rows = append(rows, fullRow(sr))
	}
}

// refJoin joins two relations' rows as the planner classifies the
// clause, one pair at a time: each left row meets, in order, the right
// rows with its hash key (every right row for a nested loop or a cross
// join; a NULL key column finds none), and a pair is kept when each ON conjunct left to check is TRUE
// — the first that errs is the error, the first that is not TRUE drops
// the pair. A LEFT join pads a left row none of whose pairs was kept.
func refJoin(e *Engine, subs map[*sqltext.Select]*selPlan, left *relation, lrows []types.Row, right *relation, rrows []types.Row, jc sqltext.JoinClause, ctx *stmtCtx) (*relation, []types.Row, error) {
	out := &relation{cols: append(append([]colMeta{}, left.cols...), right.cols...)}
	plan := analyzeJoin(left, right, jc)
	on := plan.residual
	if plan.kind == "nested-loop" {
		on = []sqltext.Expr{jc.On}
	}
	key := func(r types.Row, cols []int) (string, bool) {
		k := make(types.Row, len(cols))
		for i, c := range cols {
			if k[i] = r[c]; k[i].IsNull() {
				return "", false // NULL never joins
			}
		}
		return rowKey(k), true
	}
	all := make([]int, len(rrows))
	byKey := map[string][]int{}
	for i, rr := range rrows {
		all[i] = i
		if k, ok := key(rr, plan.eqR); ok {
			byKey[k] = append(byKey[k], i)
		}
	}
	o := newRefEval(e, subs, out, ctx)
	var rows []types.Row
	for _, lr := range lrows {
		cands := all
		if plan.kind == "hash-join" {
			k, ok := key(lr, plan.eqL)
			if cands = byKey[k]; !ok {
				cands = nil
			}
		}
		matched := false
	pairs:
		for _, i := range cands {
			row := append(append(types.Row{}, lr...), rrows[i]...)
			for _, c := range on {
				if keep, err := o.evalBool(c, row); err != nil {
					return nil, nil, err
				} else if !keep {
					continue pairs
				}
			}
			rows, matched = append(rows, row), true
		}
		if !matched && jc.Kind == "LEFT" {
			rows = append(rows, append(append(types.Row{}, lr...), make(types.Row, len(right.cols))...))
		}
	}
	return out, rows, nil
}

// refSelect evaluates a SELECT of the shapes the fuzz sites produce —
// FROM a table or a join, WHERE, then a projection or GROUP BY/HAVING
// with aggregates; no DISTINCT, ORDER BY, LIMIT or AS OF — the way the
// tree-walk interpreter did: the source relation (WHERE's candidate rows
// from the planner's access path, as the engine reads them) filtered row
// by row, then projected row by row, or grouped with keys row by row and
// evaluated group by group. ok is false for any other shape.
func refSelect(e *Engine, sel *sqltext.Select) (res *Result, err error, ok bool) {
	if sel.From == nil || sel.Distinct || len(sel.OrderBy) > 0 || sel.Limit != nil || sel.Offset != nil || sel.AsOf != nil {
		return nil, nil, false
	}
	ctx := &stmtCtx{snap: storage.SeqLatest, top: sel}
	defer ctx.release()
	subs := e.newPlan(sel, false).sel.subs
	rel, rows, err := refRead(e, *sel.From, ctx)
	if err != nil || rel == nil {
		return nil, err, rel != nil
	}
	for _, j := range sel.Joins {
		right, rrows, err := refRead(e, j.Right, ctx)
		if err != nil || right == nil {
			return nil, err, right != nil
		}
		right.tbl = nil // the oracle hashes; it never probes
		if rel, rows, err = refJoin(e, subs, rel, rows, right, rrows, j, ctx); err != nil {
			return nil, err, true
		}
	}
	o := newRefEval(e, subs, rel, ctx)
	if sel.Where != nil {
		if rel.tbl != nil && len(sel.Joins) == 0 {
			qual := strings.ToLower(sel.From.Alias)
			if qual == "" {
				qual = strings.ToLower(sel.From.Table)
			}
			if plan := analyzeScan(sel.Where, rel.tbl.Schema, rel.tbl, qual); plan.kind != pathFullScan {
				if found, ok := resolveScan(plan, rel.tbl.Schema, rel.tbl, nil, ctx.snap); ok {
					rows = nil
					for i := range found.rows {
						rows = append(rows, found.row(i))
					}
				}
			}
		}
		var kept []types.Row
		for _, r := range rows {
			keep, err := o.evalBool(sel.Where, r)
			if err != nil {
				return nil, err, true
			}
			if keep {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	items, names, err := expandItems(sel, rel)
	if err != nil {
		return nil, err, true
	}
	res = &Result{Columns: names}
	aggregate := len(sel.GroupBy) > 0 || sel.Having != nil
	for i := range items {
		aggregate = aggregate || sqltext.HasAggregate(&items[i].Expr)
	}
	eval := func(group []types.Row, r types.Row) (types.Row, error) {
		out := make(types.Row, len(items))
		for i, it := range items {
			var err error
			if aggregate {
				out[i], err = o.evalAgg(it.Expr, group)
			} else {
				out[i], err = o.eval(it.Expr, r)
			}
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if !aggregate {
		for _, r := range rows {
			row, err := eval(nil, r)
			if err != nil {
				return nil, err, true
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil, true
	}
	groups := [][]types.Row{rows}
	if len(sel.GroupBy) > 0 {
		groups = nil
		index := map[string]int{}
		for _, r := range rows {
			key := make(types.Row, len(sel.GroupBy))
			for i, g := range sel.GroupBy {
				if key[i], err = o.eval(g, r); err != nil {
					return nil, err, true
				}
			}
			gi, seen := index[rowKey(key)]
			if !seen {
				gi = len(groups)
				index[rowKey(key)] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], r)
		}
	}
	for _, g := range groups {
		if sel.Having != nil {
			v, err := o.evalAgg(sel.Having, g)
			keep := false
			if err == nil && !v.IsNull() {
				keep, err = v.AsBool()
			}
			if err != nil {
				return nil, err, true
			}
			if !keep {
				continue
			}
		}
		row, err := eval(g, nil)
		if err != nil {
			return nil, err, true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil, true
}

// refUpdate is what UPDATE w SET a = <x>, with w a fresh copy of v,
// leaves in w (ordered by id) by the tree-walk interpreter: x evaluated
// and coerced to INT row by row, and on the first row that errs, the
// error and w untouched — a failing statement leaves nothing. ok is false
// for any other UPDATE shape.
func refUpdate(t testing.TB, e *Engine, up *sqltext.Update) (res *Result, err error, ok bool) {
	if !strings.EqualFold(up.Table, "w") || up.Where != nil || len(up.Set) != 1 || !strings.EqualFold(up.Set[0].Column, "a") {
		return nil, nil, false
	}
	refillW(t, e)
	ctx := &stmtCtx{snap: storage.SeqLatest}
	defer ctx.release()
	rel, rows, err := refRead(e, sqltext.TableRef{Table: "w"}, ctx)
	if err != nil {
		return nil, err, true
	}
	o := newRefEval(e, e.newPlan(up, false).mut.subs, rel, ctx)
	byID := func(rows []types.Row) *Result {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
		return &Result{Rows: rows}
	}
	orig := make([]types.Row, len(rows))
	for i, r := range rows {
		orig[i] = r[:5:5]
	}
	upd := make([]types.Row, len(rows))
	for i, r := range rows {
		v, err := o.eval(up.Set[0].Value, r)
		if err == nil {
			if v, err = v.CoerceTo(types.KindInt); err != nil {
				err = fmt.Errorf("engine: column %s.%s: %w", up.Table, up.Set[0].Column, err)
			}
		}
		if err != nil {
			return byID(orig), err, true
		}
		upd[i] = types.Row{r[0], v, r[2], r[3], r[4]}
	}
	return byID(upd), nil, true
}

// hashKey is the oracle's own value key, the decimal-text encoding the
// engine used before its binary keys (types.AppendKey), so the
// differentials do not share the encoding under test. The law: two
// values of the same kind have equal keys iff they are Equal (NaN, which
// Compare cannot order, excepted), and an INT and a FLOAT share a key iff
// they are the same number exactly.
func hashKey(v types.Value) string {
	switch v.Kind() {
	case types.KindNull:
		return "\x00"
	case types.KindBool:
		if v.Bool() {
			return "b1"
		}
		return "b0"
	case types.KindInt:
		return "n" + strconv.FormatInt(v.Int(), 10)
	case types.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return "n" + strconv.FormatInt(int64(f), 10)
		}
		return "n" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case types.KindString:
		return "s" + v.Str()
	case types.KindTime:
		return "t" + strconv.FormatInt(v.Time().UnixNano(), 10)
	case types.KindBytes:
		return "y" + string(v.Bytes())
	}
	return "?"
}

// rowKey concatenates the hash keys of the row's values into the
// oracle's map key.
func rowKey(r types.Row) string {
	var sb strings.Builder
	for _, v := range r {
		k := hashKey(v)
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String()
}
