package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// Machine executes one Program. It owns the register file, the constant
// and parameter broadcasts, the selection vector, a scratch batch — all
// sized by the widest batch it has run — and the sets of literal IN
// lists, plus the bind-time state (arguments, the subquery runner, the
// sets of IN lists that mention a parameter, subquery outcomes).
// Machines are pooled on their Program: Acquire one, Bind it to the
// statement, run any number of batches, Release it when the statement is
// done. A machine must not be shared between goroutines.
type Machine struct {
	p      *Program
	regs   []Vec
	consts []Vec // broadcast at opConst; n = lanes filled
	params []Vec // broadcast at opParam; n = lanes filled, 0 after Bind
	sets   []*runInSet
	subs   []*subResult // opSubquery outcomes, nil until first use after Bind
	args   []types.Value
	sub    SubqueryFunc
	argBuf []types.Value // reused per-lane scratch for opCall
	sel    []int
	batch  *Batch
	kb     []byte // reused key buffer for IN probes
}

// SubqueryFunc runs an uncorrelated subquery of the statement and returns
// its rows. It must be safe for concurrent callers — the machines of every
// morsel worker of a scan share it — and should run each subquery once.
type SubqueryFunc func(q *sqltext.Select) ([]types.Row, error)

// subResult is one subquery's outcome on one machine, and for IN its set.
type subResult struct {
	rows []types.Row
	err  error
	set  *runInSet
}

// runInSet is a bound IN list: either a hash set (all parameters in
// range, mirroring the interpreter's constInSet; or a subquery's rows)
// or the element-walk slow path when a parameter is missing.
//
// A value types.NumKey reads is held by that number in ints, as the
// storage index holds it, so a list of ids makes no key strings; any
// other value is held in strs under its types.AppendKey key. The two
// never hold the same key: AppendKey keys exactly the NumKey values as
// INTs.
type runInSet struct {
	ints    map[int64]struct{}
	strs    map[string]struct{} // made on the first value ints cannot hold
	hasNull bool
	slow    bool // walk elements per lane (a parameter was out of range)
}

// newInSet returns an empty set sized for n numbers.
func newInSet(n int) *runInSet {
	return &runInSet{ints: make(map[int64]struct{}, n)}
}

// add puts the non-NULL value v in the set.
func (rs *runInSet) add(v types.Value) {
	if n, ok := types.NumKey(v); ok {
		rs.ints[n] = struct{}{}
		return
	}
	if rs.strs == nil {
		rs.strs = map[string]struct{}{}
	}
	var kb [64]byte
	rs.strs[string(types.AppendKey(kb[:0], v))] = struct{}{}
}

// has reports whether v is in the set, building a string key, when v
// needs one, in m's buffer.
func (m *Machine) has(rs *runInSet, v types.Value) bool {
	if n, ok := types.NumKey(v); ok {
		_, in := rs.ints[n]
		return in
	}
	m.kb = types.AppendKey(m.kb[:0], v)
	_, in := rs.strs[string(m.kb)]
	return in
}

// NewMachine prepares an unpooled machine for p. Nothing is broadcast
// and no lane is allocated until a batch asks for it.
func NewMachine(p *Program) *Machine {
	return &Machine{
		p:      p,
		regs:   make([]Vec, p.nregs),
		consts: make([]Vec, len(p.consts)),
		params: make([]Vec, p.maxParam),
		sets:   make([]*runInSet, len(p.sets)),
		subs:   make([]*subResult, p.nsubs),
	}
}

// Acquire returns a machine for p: a released one with its storage and
// constant broadcasts intact, or a new one. The pool is a sync.Pool so
// that idle machines are the collector's to drop — a warm pool never
// counts as live heap.
func (p *Program) Acquire() *Machine {
	if m, ok := p.pool.Get().(*Machine); ok {
		return m
	}
	return NewMachine(p)
}

// Release unbinds the machine — it keeps no reference to the statement's
// arguments, subqueries or parameter IN sets — and returns it to its
// program's pool. The caller must not use it, or any vector it
// returned, again.
func (m *Machine) Release() {
	m.args, m.sub = nil, nil
	clear(m.subs)
	for i, spec := range m.p.sets {
		if spec.hasParam {
			m.sets[i] = nil
		}
	}
	m.p.pool.Put(m)
}

// Bind fixes the statement arguments and subquery runner for the
// batches that follow. Parameter broadcasts go stale (opParam refills the
// ones the program reads, in place); IN lists that mention a parameter
// get their set built here, literal-only lists on the machine's first
// Bind alone; each subquery runs on its first use after Bind. sub may be
// nil for a program without subqueries.
func (m *Machine) Bind(args []types.Value, sub SubqueryFunc) {
	m.args, m.sub = args, sub
	clear(m.subs)
	for i := range m.params {
		m.params[i].n = 0
	}
	for i, spec := range m.p.sets {
		if spec.hasParam || m.sets[i] == nil {
			m.sets[i] = spec.bind(args)
		}
	}
}

// Batch returns the machine's scratch batch for the given layout,
// replacing it when the layout differs from the one it was built for.
func (m *Machine) Batch(kinds []types.Kind, used []int) *Batch {
	if b := m.batch; b == nil || !slices.Equal(b.kinds, kinds) || !slices.Equal(b.used, used) {
		m.batch = NewBatch(kinds, used)
	}
	return m.batch
}

// bind builds the list's set from its literals and the bound arguments.
func (spec *inListSpec) bind(args []types.Value) *runInSet {
	rs := newInSet(len(spec.elems))
	for _, el := range spec.elems {
		v := el.val
		if el.param >= 0 {
			if el.param >= len(args) {
				// The interpreter's constInSet gives up and walks the
				// list per row, erroring at the missing parameter unless
				// an earlier element matches first.
				rs.slow = true
				break
			}
			v = args[el.param]
		}
		if v.IsNull() {
			rs.hasNull = true
		} else {
			rs.add(v)
		}
	}
	return rs
}

// Eval runs the program over the batch and returns the result vector.
// Lanes may carry errors; callers must check Err before Value.
func (m *Machine) Eval(b *Batch) *Vec {
	n := b.n
	for idx := range m.p.insts {
		ins := &m.p.insts[idx]
		switch ins.op {
		case opCol:
			m.regs[ins.dst] = *b.Col(ins.imm)
		case opConst:
			v := &m.consts[ins.imm]
			if v.n < n {
				v.broadcast(m.p.consts[ins.imm], n)
			}
			m.regs[ins.dst] = *v
		case opParam:
			v := &m.params[ins.imm]
			if v.n < n {
				if ins.imm < len(m.args) {
					v.broadcast(m.args[ins.imm], n)
				} else {
					v.broadcastErr(m.p.missingParam(ins.imm), n)
				}
			}
			m.regs[ins.dst] = *v
		case opCmp:
			m.cmp(ins, n)
		case opAdd, opSub, opMul:
			m.arith(ins, n)
		case opDiv, opMod:
			m.divmod(ins, n)
		case opConcat:
			m.arithGeneric(ins, n)
		case opNeg:
			m.neg(ins, n)
		case opNot:
			m.not(ins, n)
		case opAnd:
			m.and(ins, n)
		case opOr:
			m.or(ins, n)
		case opIsNull:
			m.isNullOp(ins, n)
		case opLike:
			m.like(ins, n)
		case opBetween:
			m.between(ins, n)
		case opInList:
			m.inList(ins, n)
		case opInExpr:
			m.inExpr(ins, n)
		case opCall:
			m.callFn(ins, n)
		case opCoalesce:
			m.coalesce(ins, n)
		case opCase:
			m.caseOp(ins, n)
		case opCaseMatch:
			m.caseMatch(ins, n)
		case opErr:
			m.regs[ins.dst].broadcastErr(ins.err, n)
		case opSubquery:
			m.subquery(ins, n)
		}
	}
	r := &m.regs[m.p.result]
	r.n = n
	return r
}

// Filter evaluates the program as a predicate and returns the selection
// vector of passing lanes (indexes into the batch, ascending). The
// returned slice is reused by the next call. Error semantics match the
// interpreter's scan loop: the first erroring lane in row order aborts.
func (m *Machine) Filter(b *Batch) ([]int, error) {
	v := m.Eval(b)
	m.sel = m.sel[:0]
	if v.errs == nil && v.kind == types.KindBool {
		// Error-free bool result: a lane passes iff set and not NULL.
		for i := 0; i < b.n; i++ {
			if v.bs[i] && !v.null.Get(i) {
				m.sel = append(m.sel, i)
			}
		}
		return m.sel, nil
	}
	for i := 0; i < b.n; i++ {
		t, err := v.Truth(i)
		if err != nil {
			return nil, err
		}
		if t {
			m.sel = append(m.sel, i)
		}
	}
	return m.sel, nil
}

// Truth reads lane i the way a filter boundary (WHERE, HAVING, JOIN ON)
// does: the lane's error, else false for NULL — unknown collapses to
// false — else the value's truth.
func (v *Vec) Truth(i int) (bool, error) {
	if err := v.Err(i); err != nil {
		return false, err
	}
	t, err := truthLane(v, i)
	return t == tvTrue, err
}

// truthLane is truth3 over one lane: tvFalse/tvTrue/tvUnknown exactly
// as the interpreter defines them.
const (
	tvFalse = iota
	tvTrue
	tvUnknown
)

func truthLane(v *Vec, i int) (int, error) {
	if v.isNull(i) {
		return tvUnknown, nil
	}
	switch v.kind {
	case types.KindBool:
		if v.bs[i] {
			return tvTrue, nil
		}
		return tvFalse, nil
	case types.KindInt:
		if v.i64[i] != 0 {
			return tvTrue, nil
		}
		return tvFalse, nil
	case types.KindFloat:
		if v.f64[i] != 0 {
			return tvTrue, nil
		}
		return tvFalse, nil
	default:
		bv, err := v.any[i].AsBool()
		if err != nil {
			return tvFalse, err
		}
		if bv {
			return tvTrue, nil
		}
		return tvFalse, nil
	}
}

func cmpHolds(c, imm int) bool {
	switch imm {
	case cmpEq:
		return c == 0
	case cmpNe:
		return c != 0
	case cmpLt:
		return c < 0
	case cmpLe:
		return c <= 0
	case cmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func (m *Machine) cmp(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	imm := ins.imm
	if a.errs == nil && b.errs == nil && a.kind == types.KindInt && b.kind == types.KindInt {
		dst.resetBool(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) || b.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			x, y := a.i64[i], b.i64[i]
			c := 0
			if x < y {
				c = -1
			} else if x > y {
				c = 1
			}
			dst.bs[i] = cmpHolds(c, imm)
		}
		return
	}
	if a.errs == nil && b.errs == nil && numericVec(a) && numericVec(b) {
		// At least one side is FLOAT: types.Compare promotes both via
		// AsFloat, which is exact for the typed lanes we hold.
		dst.resetBool(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) || b.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			x, y := a.lanef(i), b.lanef(i)
			c := 0
			if x < y {
				c = -1
			} else if x > y {
				c = 1
			}
			dst.bs[i] = cmpHolds(c, imm)
		}
		return
	}
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		l, r := a.Value(i), b.Value(i)
		if l.IsNull() || r.IsNull() {
			dst.null.Set(i)
			continue
		}
		c, err := types.Compare(l, r)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		dst.bs[i] = cmpHolds(c, imm)
	}
}

func numericVec(v *Vec) bool {
	return v.kind == types.KindInt || v.kind == types.KindFloat
}

// lanef reads a numeric typed lane as float64; only valid on
// KindInt/KindFloat vectors.
func (v *Vec) lanef(i int) float64 {
	if v.kind == types.KindInt {
		return float64(v.i64[i])
	}
	return v.f64[i]
}

// arith handles + - * with typed fast paths. Int×Int uses native
// (wrapping) int64 arithmetic and mixed numeric promotes to float64,
// both exactly as types.numericOp does.
func (m *Machine) arith(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	if a.errs == nil && b.errs == nil && a.kind == types.KindInt && b.kind == types.KindInt {
		dst.resetInt(n)
		switch ins.op {
		case opAdd:
			for i := 0; i < n; i++ {
				if a.null.Get(i) || b.null.Get(i) {
					dst.null.Set(i)
					continue
				}
				dst.i64[i] = a.i64[i] + b.i64[i]
			}
		case opSub:
			for i := 0; i < n; i++ {
				if a.null.Get(i) || b.null.Get(i) {
					dst.null.Set(i)
					continue
				}
				dst.i64[i] = a.i64[i] - b.i64[i]
			}
		default:
			for i := 0; i < n; i++ {
				if a.null.Get(i) || b.null.Get(i) {
					dst.null.Set(i)
					continue
				}
				dst.i64[i] = a.i64[i] * b.i64[i]
			}
		}
		return
	}
	if a.errs == nil && b.errs == nil && numericVec(a) && numericVec(b) {
		dst.resetFloat(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) || b.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			x, y := a.lanef(i), b.lanef(i)
			switch ins.op {
			case opAdd:
				dst.f64[i] = x + y
			case opSub:
				dst.f64[i] = x - y
			default:
				dst.f64[i] = x * y
			}
		}
		return
	}
	m.arithGeneric(ins, n)
}

// errDivZero and errModZero carry the exact text types.Div and
// types.Mod produce, so the typed fast paths below cannot diverge from
// the interpreter on the error message.
var (
	errDivZero = errors.New("types: division by zero")
	errModZero = errors.New("types: modulo by zero")
)

// divmod handles / and % with typed fast paths that mirror types.Div
// and types.Mod exactly: NULL propagates, a zero divisor errors only
// that lane, Int/Int division truncates. Anything outside the typed
// numeric cases falls to the generic per-lane kernel.
func (m *Machine) divmod(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	if a.errs == nil && b.errs == nil && a.kind == types.KindInt && b.kind == types.KindInt {
		dst.resetInt(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) || b.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			if b.i64[i] == 0 {
				if ins.op == opDiv {
					dst.setErr(i, errDivZero)
				} else {
					dst.setErr(i, errModZero)
				}
				continue
			}
			if ins.op == opDiv {
				dst.i64[i] = a.i64[i] / b.i64[i]
			} else {
				dst.i64[i] = a.i64[i] % b.i64[i]
			}
		}
		return
	}
	if ins.op == opDiv && a.errs == nil && b.errs == nil && numericVec(a) && numericVec(b) {
		dst.resetFloat(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) || b.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			y := b.lanef(i)
			if y == 0 {
				dst.setErr(i, errDivZero)
				continue
			}
			dst.f64[i] = a.lanef(i) / y
		}
		return
	}
	m.arithGeneric(ins, n)
}

// arithGeneric evaluates arithmetic per lane through the exact
// types.Add/Sub/Mul/Div/Mod/concat code the interpreter uses, so error
// messages and coercion behavior cannot diverge.
func (m *Machine) arithGeneric(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	dst.resetBoxed(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		l, r := a.Value(i), b.Value(i)
		var v types.Value
		var err error
		switch ins.op {
		case opAdd:
			v, err = types.Add(l, r)
		case opSub:
			v, err = types.Sub(l, r)
		case opMul:
			v, err = types.Mul(l, r)
		case opDiv:
			v, err = types.Div(l, r)
		case opMod:
			v, err = types.Mod(l, r)
		default: // opConcat: || is NULL-propagating string concat
			if l.IsNull() || r.IsNull() {
				v = types.Null
			} else {
				v = types.NewString(l.AsString() + r.AsString())
			}
		}
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		dst.any[i] = v
	}
}

func (m *Machine) neg(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	if a.errs == nil && a.kind == types.KindInt {
		dst.resetInt(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			dst.i64[i] = -a.i64[i]
		}
		return
	}
	if a.errs == nil && a.kind == types.KindFloat {
		dst.resetFloat(n)
		for i := 0; i < n; i++ {
			if a.null.Get(i) {
				dst.null.Set(i)
				continue
			}
			dst.f64[i] = -a.f64[i]
		}
		return
	}
	dst.resetBoxed(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		v, err := types.Neg(a.Value(i))
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		dst.any[i] = v
	}
}

func (m *Machine) not(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		t, err := truthLane(a, i)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		if t == tvUnknown {
			dst.null.Set(i)
			continue
		}
		dst.bs[i] = t == tvFalse
	}
}

// and mirrors evalBinary's AND lane by lane, including error
// precedence: a FALSE left operand suppresses the right operand's
// error, exactly like the interpreter's short-circuit.
func (m *Machine) and(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	dst.resetBool(n)
	if a.errs == nil && b.errs == nil && a.kind == types.KindBool && b.kind == types.KindBool {
		// Bool×Bool (the common shape: both operands are comparison
		// outputs): 3VL without per-lane truthLane dispatch.
		for i := 0; i < n; i++ {
			an, bn := a.null.Get(i), b.null.Get(i)
			if (!an && !a.bs[i]) || (!bn && !b.bs[i]) {
				continue // either side FALSE
			}
			if an || bn {
				dst.null.Set(i)
				continue
			}
			dst.bs[i] = true
		}
		return
	}
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		lt, err := truthLane(a, i)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		if lt == tvFalse {
			continue // false
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		rt, err := truthLane(b, i)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		if rt == tvFalse {
			continue
		}
		if lt == tvUnknown || rt == tvUnknown {
			dst.null.Set(i)
			continue
		}
		dst.bs[i] = true
	}
}

func (m *Machine) or(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	dst.resetBool(n)
	if a.errs == nil && b.errs == nil && a.kind == types.KindBool && b.kind == types.KindBool {
		for i := 0; i < n; i++ {
			an, bn := a.null.Get(i), b.null.Get(i)
			if (!an && a.bs[i]) || (!bn && b.bs[i]) {
				dst.bs[i] = true // either side TRUE
				continue
			}
			if an || bn {
				dst.null.Set(i)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		lt, err := truthLane(a, i)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		if lt == tvTrue {
			dst.bs[i] = true
			continue
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		rt, err := truthLane(b, i)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		if rt == tvTrue {
			dst.bs[i] = true
			continue
		}
		if lt == tvUnknown || rt == tvUnknown {
			dst.null.Set(i)
		}
	}
}

func (m *Machine) isNullOp(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	not := ins.imm == 1
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		dst.bs[i] = a.isNull(i) != not
	}
}

func (m *Machine) like(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	not := ins.imm&1 == 1
	dst.resetBool(n)
	if shape := ins.imm >> 1; shape != likeGeneric {
		// Literal-needle specialization: the pattern register was never
		// compiled (ins.b is -1), the needle is baked into the
		// instruction and compared with direct string kernels.
		needle := ins.str
		for i := 0; i < n; i++ {
			if e := a.Err(i); e != nil {
				dst.setErr(i, e)
				continue
			}
			if a.isNull(i) {
				dst.null.Set(i)
				continue
			}
			s := a.Value(i).AsString()
			var match bool
			switch shape {
			case likeExact:
				match = s == needle
			case likePrefix:
				match = strings.HasPrefix(s, needle)
			case likeSuffix:
				match = strings.HasSuffix(s, needle)
			default: // likeContains
				match = strings.Contains(s, needle)
			}
			dst.bs[i] = match != not
		}
		return
	}
	b := &m.regs[ins.b]
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) || b.isNull(i) {
			dst.null.Set(i)
			continue
		}
		dst.bs[i] = LikeMatch(a.Value(i).AsString(), b.Value(i).AsString()) != not
	}
}

func (m *Machine) between(ins *inst, n int) {
	a, lo, hi, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.c], &m.regs[ins.dst]
	not := ins.imm == 1
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := lo.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := hi.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) || lo.isNull(i) || hi.isNull(i) {
			dst.null.Set(i)
			continue
		}
		v := a.Value(i)
		cl, err := types.Compare(v, lo.Value(i))
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		ch, err := types.Compare(v, hi.Value(i))
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		dst.bs[i] = (cl >= 0 && ch <= 0) != not
	}
}

func (m *Machine) inList(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	rs := m.sets[ins.imm]
	not := ins.set.not
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) {
			dst.null.Set(i)
			continue
		}
		v := a.Value(i)
		var found, hadNull bool
		if !rs.slow {
			found = m.has(rs, v)
			hadNull = rs.hasNull
		} else {
			// A parameter is unbound: walk elements in order like the
			// interpreter, erroring at the missing parameter unless an
			// earlier element already matched.
			var laneErr error
			for _, el := range ins.set.elems {
				var lv types.Value
				if el.param < 0 {
					lv = el.val
				} else if el.param < len(m.args) {
					lv = m.args[el.param]
				} else {
					laneErr = m.p.missingParam(el.param)
					break
				}
				if lv.IsNull() {
					hadNull = true
					continue
				}
				if c, err := types.Compare(v, lv); err == nil && c == 0 {
					found = true
					break
				}
			}
			if laneErr != nil {
				dst.setErr(i, laneErr)
				continue
			}
		}
		switch {
		case found:
			dst.bs[i] = !not
		case hadNull:
			dst.null.Set(i)
		default:
			dst.bs[i] = not
		}
	}
}

func (m *Machine) inExpr(ins *inst, n int) {
	a, dst := &m.regs[ins.a], &m.regs[ins.dst]
	not := ins.imm == 1
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) {
			dst.null.Set(i)
			continue
		}
		v := a.Value(i)
		var found, hadNull bool
		var laneErr error
		for _, r := range ins.args {
			el := &m.regs[r]
			if e := el.Err(i); e != nil {
				laneErr = e
				break
			}
			if el.isNull(i) {
				hadNull = true
				continue
			}
			if c, err := types.Compare(v, el.Value(i)); err == nil && c == 0 {
				found = true
				break
			}
			// incomparable kinds never match
		}
		if laneErr != nil {
			dst.setErr(i, laneErr)
			continue
		}
		switch {
		case found:
			dst.bs[i] = !not
		case hadNull:
			dst.null.Set(i)
		default:
			dst.bs[i] = not
		}
	}
}

func (m *Machine) callFn(ins *inst, n int) {
	dst := &m.regs[ins.dst]
	dst.resetBoxed(n)
	if cap(m.argBuf) < len(ins.args) {
		m.argBuf = make([]types.Value, len(ins.args))
	}
	buf := m.argBuf[:len(ins.args)]
	for i := 0; i < n; i++ {
		var laneErr error
		for j, r := range ins.args {
			el := &m.regs[r]
			if e := el.Err(i); e != nil {
				laneErr = e
				break
			}
			buf[j] = el.Value(i)
		}
		if laneErr != nil {
			dst.setErr(i, laneErr)
			continue
		}
		v, err := ins.fn(buf)
		if err != nil {
			dst.setErr(i, err)
			continue
		}
		dst.any[i] = v
	}
}

func (m *Machine) coalesce(ins *inst, n int) {
	dst := &m.regs[ins.dst]
	dst.resetBoxed(n)
	for i := 0; i < n; i++ {
		out := types.Null
		var laneErr error
		for _, r := range ins.args {
			el := &m.regs[r]
			if e := el.Err(i); e != nil {
				laneErr = e
				break
			}
			if v := el.Value(i); !v.IsNull() {
				out = v
				break
			}
		}
		if laneErr != nil {
			dst.setErr(i, laneErr)
			continue
		}
		dst.any[i] = out
	}
}

// subquery evaluates an opSubquery: a scalar or EXISTS outcome broadcast
// to every lane, or [NOT] IN per lane. The subquery runs on the first
// lane that needs it — never for an IN whose operand lanes are all NULL
// or errors — and its error is held by the lanes that read it.
func (m *Machine) subquery(ins *inst, n int) {
	dst := &m.regs[ins.dst]
	not, kind := ins.imm&1 == 1, ins.imm>>1
	if kind != subIn {
		v, err := m.runSub(ins).value(kind, not)
		if err != nil {
			dst.broadcastErr(err, n)
		} else {
			dst.broadcast(v, n)
		}
		return
	}
	a := &m.regs[ins.a]
	dst.resetBool(n)
	var set *runInSet
	var setErr error
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) {
			dst.null.Set(i) // NULL IN (subquery) is unknown, the set unread
			continue
		}
		if set == nil && setErr == nil {
			set, setErr = m.runSub(ins).inSet()
		}
		switch {
		case setErr != nil:
			dst.setErr(i, setErr)
		case m.has(set, a.Value(i)):
			dst.bs[i] = !not
		case set.hasNull:
			dst.null.Set(i)
		default:
			dst.bs[i] = not
		}
	}
}

// runSub returns the outcome of ins's subquery, running it on first use.
func (m *Machine) runSub(ins *inst) *subResult {
	s := m.subs[ins.b]
	if s == nil {
		s = &subResult{}
		s.rows, s.err = m.sub(ins.q)
		m.subs[ins.b] = s
	}
	return s
}

// value is a scalar subquery's or EXISTS's outcome, with the
// interpreter's error texts.
func (s *subResult) value(kind int, not bool) (types.Value, error) {
	switch {
	case s.err != nil:
		return types.Null, s.err
	case kind == subExists:
		return types.NewBool((len(s.rows) > 0) != not), nil
	case len(s.rows) == 0:
		return types.Null, nil
	case len(s.rows) > 1 || len(s.rows[0]) != 1:
		return types.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(s.rows))
	}
	return s.rows[0][0], nil
}

// inSet is an IN subquery's rows as a set matched by key, built once.
func (s *subResult) inSet() (*runInSet, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.rows) > 0 && len(s.rows[0]) != 1 {
		return nil, errors.New("engine: IN subquery must return one column")
	}
	if s.set == nil {
		s.set = newInSet(len(s.rows))
		for _, r := range s.rows {
			if r[0].IsNull() {
				s.set.hasNull = true
			} else {
				s.set.add(r[0])
			}
		}
	}
	return s.set, nil
}

// caseMatch computes one operand-form CASE arm's match: NULL operand or
// NULL when-value never matches, and an incomparable pair is a
// non-match (the interpreter swallows that Compare error).
func (m *Machine) caseMatch(ins *inst, n int) {
	a, b, dst := &m.regs[ins.a], &m.regs[ins.b], &m.regs[ins.dst]
	dst.resetBool(n)
	for i := 0; i < n; i++ {
		if e := a.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if e := b.Err(i); e != nil {
			dst.setErr(i, e)
			continue
		}
		if a.isNull(i) || b.isNull(i) {
			continue // false
		}
		if c, err := types.Compare(a.Value(i), b.Value(i)); err == nil && c == 0 {
			dst.bs[i] = true
		}
	}
}

func (m *Machine) caseOp(ins *inst, n int) {
	dst := &m.regs[ins.dst]
	dst.resetBoxed(n)
lanes:
	for i := 0; i < n; i++ {
		for j := 0; j+1 < len(ins.args); j += 2 {
			cond := &m.regs[ins.args[j]]
			if e := cond.Err(i); e != nil {
				dst.setErr(i, e)
				continue lanes
			}
			t, err := truthLane(cond, i)
			if err != nil {
				dst.setErr(i, err)
				continue lanes
			}
			if t == tvTrue {
				res := &m.regs[ins.args[j+1]]
				if e := res.Err(i); e != nil {
					dst.setErr(i, e)
					continue lanes
				}
				dst.any[i] = res.Value(i)
				continue lanes
			}
		}
		if ins.a >= 0 {
			el := &m.regs[ins.a]
			if e := el.Err(i); e != nil {
				dst.setErr(i, e)
				continue
			}
			dst.any[i] = el.Value(i)
			continue
		}
		dst.any[i] = types.Null
	}
}

// LikeMatch implements SQL LIKE with % (any run) and _ (any single
// rune), case-sensitive, via iterative backtracking. The %
// case must be tried before the literal case: a '%' pattern rune is
// always a wildcard, even when the subject rune at that position is
// itself '%' — otherwise 'a%b' LIKE 'a%' would consume the subject's
// '%' literally and fail.
func LikeMatch(s, pattern string) bool {
	sr := []rune(s)
	pr := []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(sr) {
		switch {
		case pi < len(pr) && pr[pi] == '%':
			starSi, starPi = si, pi
			pi++
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}
