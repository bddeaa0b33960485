package engine

import (
	"fmt"
	"strings"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// colMeta identifies one column of an intermediate relation.
type colMeta struct {
	qual   string     // lower-cased table alias, "" for computed columns
	name   string     // lower-cased column name
	hidden bool       // system columns (_tid, _created) excluded from `*`
	kind   types.Kind // declared kind; KindNull when unknown/computed. Advisory
	// only: the VM batch layer verifies each value and falls back to
	// boxed lanes on mismatch (view backing tables infer kinds).
}

// relation is an intermediate result. Base-table sources may start lazy
// (cols known, rows not yet fetched) so joins can probe the table's
// storage indexes instead of materializing it; materializeRel fills rows
// on demand.
type relation struct {
	cols []colMeta
	rows []types.Row

	tbl  *storage.Table // backing table for a base-table source, else nil
	lazy bool           // true until rows are filled from tbl

	// projNames is non-nil when the compiled scan already evaluated the
	// statement's projection (see scanProjection): rows are the final
	// output tuples and cols describe them, not the source table.
	projNames []string
}

// binder resolves column references and parameters during evaluation of
// one statement.
type binder struct {
	e    *Engine
	args []types.Value
	rel  *relation
	ctx  *stmtCtx // statement context (snapshot seq, scan tally)

	byQual    map[string]int // "qual.name" → position
	byName    map[string]int // "name" → position (unambiguous only)
	ambiguous map[string]bool

	subCache  map[*sqltext.Select]subResult
	overrides map[string][]types.Row // IVM table substitution

	// inCache memoizes the value set of constant IN lists so membership
	// is O(1) per row instead of O(list).
	inCache map[*sqltext.InExpr]*inSet
}

func newBinder(e *Engine, args []types.Value, rel *relation, overrides map[string][]types.Row, ctx *stmtCtx) *binder {
	ncols := 0
	if rel != nil {
		ncols = len(rel.cols)
	}
	b := &binder{
		e: e, args: args, rel: rel, ctx: ctx,
		byQual:    make(map[string]int, ncols),
		byName:    make(map[string]int, ncols),
		ambiguous: map[string]bool{},
		subCache:  map[*sqltext.Select]subResult{},
		overrides: overrides,
	}
	if rel != nil {
		for i, c := range rel.cols {
			if c.qual != "" {
				b.byQual[c.qual+"."+c.name] = i
			}
			if _, dup := b.byName[c.name]; dup {
				b.ambiguous[c.name] = true
			} else {
				b.byName[c.name] = i
			}
		}
	}
	return b
}

// resolve returns the column position of a reference.
func (b *binder) resolve(cr *sqltext.ColumnRef) (int, error) {
	name := strings.ToLower(cr.Column)
	if cr.Table != "" {
		q := strings.ToLower(cr.Table) + "." + name
		if i, ok := b.byQual[q]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("engine: unknown column %s.%s", cr.Table, cr.Column)
	}
	if b.ambiguous[name] {
		return 0, fmt.Errorf("engine: ambiguous column %s", cr.Column)
	}
	if i, ok := b.byName[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("engine: unknown column %s", cr.Column)
}

// eval evaluates a scalar expression against one row.
//
// NULL handling follows SQL's three-valued logic: arithmetic and
// comparisons with a NULL operand yield NULL (unknown), NOT NULL is
// NULL, and AND/OR treat NULL as "unknown" (FALSE AND NULL is FALSE,
// TRUE OR NULL is TRUE, otherwise NULL propagates). Only at a filter
// boundary (WHERE, HAVING, JOIN ON — see evalBool) does unknown
// collapse to false. The previous two-valued reduction made
// `NOT (x = NULL)` evaluate to TRUE, silently keeping rows SQL excludes.
func (b *binder) eval(e sqltext.Expr, row types.Row) (types.Value, error) {
	switch x := e.(type) {
	case *sqltext.Literal:
		return x.Value, nil
	case *sqltext.ColumnRef:
		i, err := b.resolve(x)
		if err != nil {
			return types.Null, err
		}
		if i >= len(row) {
			return types.Null, nil // empty-group evaluation
		}
		return row[i], nil
	case *sqltext.Param:
		if x.Index >= len(b.args) {
			return types.Null, fmt.Errorf("engine: missing argument for parameter %d", x.Index+1)
		}
		return b.args[x.Index], nil
	case *sqltext.Unary:
		v, err := b.eval(x.X, row)
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
		return b.evalBinary(x, row)
	case *sqltext.FuncCall:
		if sqltext.IsAggregateName(x.Name) {
			return types.Null, fmt.Errorf("engine: aggregate %s outside GROUP BY context", x.Name)
		}
		return b.evalFunc(x, row)
	case *sqltext.InExpr:
		return b.evalIn(x, row)
	case *sqltext.IsNull:
		v, err := b.eval(x.X, row)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqltext.Like:
		return b.evalLike(x, row)
	case *sqltext.Between:
		v, err := b.eval(x.X, row)
		if err != nil {
			return types.Null, err
		}
		lo, err := b.eval(x.Lo, row)
		if err != nil {
			return types.Null, err
		}
		hi, err := b.eval(x.Hi, row)
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
		return b.evalCase(x, row)
	case *sqltext.Exists:
		rows, err := b.subquery(x.Query)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(rows) > 0) != x.Not), nil
	case *sqltext.Subquery:
		rows, err := b.subquery(x.Query)
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

func (b *binder) evalBinary(x *sqltext.Binary, row types.Row) (types.Value, error) {
	// Short-circuit AND/OR with three-valued logic: FALSE dominates AND
	// and TRUE dominates OR regardless of a NULL on the other side.
	switch x.Op {
	case "AND":
		lv, err := b.eval(x.L, row)
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
		rv, err := b.eval(x.R, row)
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
		lv, err := b.eval(x.L, row)
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
		rv, err := b.eval(x.R, row)
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
	l, err := b.eval(x.L, row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.eval(x.R, row)
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
func (b *binder) evalBool(e sqltext.Expr, row types.Row) (bool, error) {
	v, err := b.eval(e, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

func (b *binder) evalIn(x *sqltext.InExpr, row types.Row) (types.Value, error) {
	v, err := b.eval(x.X, row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil // NULL IN (...) is unknown
	}
	found := false
	hadNull := false
	if x.Query != nil {
		rows, err := b.subquery(x.Query)
		if err != nil {
			return types.Null, err
		}
		key := v.HashKey()
		for _, r := range rows {
			if len(r) != 1 {
				return types.Null, fmt.Errorf("engine: IN subquery must return one column")
			}
			if r[0].IsNull() {
				hadNull = true
				continue
			}
			if r[0].HashKey() == key {
				found = true
				break
			}
		}
	} else if set, ok := b.constInSet(x); ok {
		found = set.vals[v.HashKey()]
		hadNull = set.hasNull
	} else {
		for _, le := range x.List {
			lv, err := b.eval(le, row)
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
func (b *binder) constInSet(x *sqltext.InExpr) (*inSet, bool) {
	if b.inCache == nil {
		b.inCache = map[*sqltext.InExpr]*inSet{}
	}
	if set, ok := b.inCache[x]; ok {
		return set, set != nil
	}
	set := &inSet{vals: make(map[string]bool, len(x.List))}
	for _, le := range x.List {
		var v types.Value
		switch e := le.(type) {
		case *sqltext.Literal:
			v = e.Value
		case *sqltext.Param:
			if e.Index >= len(b.args) {
				b.inCache[x] = nil
				return nil, false
			}
			v = b.args[e.Index]
		default:
			b.inCache[x] = nil // not constant: remember the failure
			return nil, false
		}
		if v.IsNull() {
			set.hasNull = true
		} else {
			set.vals[v.HashKey()] = true
		}
	}
	b.inCache[x] = set
	return set, true
}

func (b *binder) evalLike(x *sqltext.Like, row types.Row) (types.Value, error) {
	v, err := b.eval(x.X, row)
	if err != nil {
		return types.Null, err
	}
	p, err := b.eval(x.Pattern, row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return types.Null, nil // LIKE with NULL operand is unknown
	}
	m := likeMatch(v.AsString(), p.AsString())
	return types.NewBool(m != x.Not), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-sensitive. The matcher lives in the vm package so the compiled
// and interpreted paths cannot diverge.
func likeMatch(s, pattern string) bool {
	return vm.LikeMatch(s, pattern)
}

func (b *binder) evalCase(x *sqltext.CaseExpr, row types.Row) (types.Value, error) {
	if x.Operand != nil {
		op, err := b.eval(x.Operand, row)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := b.eval(w.Cond, row)
			if err != nil {
				return types.Null, err
			}
			if !op.IsNull() && !wv.IsNull() {
				if c, err := types.Compare(op, wv); err == nil && c == 0 {
					return b.eval(w.Result, row)
				}
			}
		}
	} else {
		for _, w := range x.Whens {
			ok, err := b.evalBool(w.Cond, row)
			if err != nil {
				return types.Null, err
			}
			if ok {
				return b.eval(w.Result, row)
			}
		}
	}
	if x.Else != nil {
		return b.eval(x.Else, row)
	}
	return types.Null, nil
}

// subResult is a subquery's cached outcome.
type subResult struct {
	rows []types.Row
	err  error
}

// subquery evaluates an uncorrelated subquery, cached per statement —
// its error too: batch evaluation holds errors per lane and goes on, so
// an uncached failing subquery would run once per row.
func (b *binder) subquery(q *sqltext.Select) ([]types.Row, error) {
	r, ok := b.subCache[q]
	if !ok {
		var res *Result
		if res, r.err = b.e.evalSelect(q, b.args, b.overrides, b.ctx); r.err == nil {
			r.rows = res.Rows
		}
		b.subCache[q] = r
	}
	return r.rows, r.err
}

// evalAgg evaluates an expression that may contain aggregate calls over a
// group of rows. Non-aggregate subexpressions are evaluated on the first
// row of the group.
func (b *binder) evalAgg(e sqltext.Expr, group []types.Row) (types.Value, error) {
	switch x := e.(type) {
	case *sqltext.FuncCall:
		if sqltext.IsAggregateName(x.Name) {
			return b.evalAggregateCall(x, group)
		}
		// Scalar function over aggregated arguments.
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := b.evalAgg(a, group)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return b.e.callScalarFn(strings.ToUpper(x.Name), args)
	case *sqltext.Binary:
		if !sqltext.HasAggregate(x) {
			break
		}
		l, err := b.evalAgg(x.L, group)
		if err != nil {
			return types.Null, err
		}
		r, err := b.evalAgg(x.R, group)
		if err != nil {
			return types.Null, err
		}
		return b.evalBinary(&sqltext.Binary{Op: x.Op, L: &sqltext.Literal{Value: l}, R: &sqltext.Literal{Value: r}}, nil)
	case *sqltext.Unary:
		if !sqltext.HasAggregate(x) {
			break
		}
		v, err := b.evalAgg(x.X, group)
		if err != nil {
			return types.Null, err
		}
		return b.eval(&sqltext.Unary{Op: x.Op, X: &sqltext.Literal{Value: v}}, nil)
	}
	if len(group) == 0 {
		// Implicit group over an empty relation: literals and functions of
		// literals still evaluate; column references yield NULL (guarded in
		// the ColumnRef case).
		return b.eval(e, nil)
	}
	return b.eval(e, group[0])
}

func (b *binder) evalAggregateCall(x *sqltext.FuncCall, group []types.Row) (types.Value, error) {
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
	var vals []types.Value
	seen := map[string]bool{}
	for _, r := range group {
		v, err := b.eval(x.Args[0], r)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			k := v.HashKey()
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
// argument values of one aggregate call. Shared by the interpreter
// (evalAggregateCall) and the VM's batched argument path, so the two
// cannot disagree on aggregate semantics.
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
