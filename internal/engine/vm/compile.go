package vm

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// ScalarFunc evaluates a scalar function over already-evaluated
// arguments, exactly like the engine's built-ins (callScalar): the function is
// responsible for its own NULL handling. The args slice is reused
// between lanes and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// Env is the compile-time environment the engine supplies: how column
// references and aggregate calls resolve against the layout the program
// will run over, which scalar functions exist, and how a missing
// positional parameter errors (so compiled statements fail with the
// engine's exact messages). Every callback answers for every input — a
// name that does not resolve answers with the error its lanes carry —
// which is what makes Compile total.
type Env struct {
	// Resolve maps a column reference to a column index, or to the error
	// (unknown, ambiguous) every lane reading it holds.
	Resolve func(cr *sqltext.ColumnRef) (int, error)
	// Agg maps an aggregate call to the layout column that holds its
	// result, or to the error every lane reading it holds (an aggregate
	// outside an aggregate context).
	Agg func(fc *sqltext.FuncCall) (int, error)
	// Func resolves a scalar function by upper-cased name. An unknown name
	// resolves to a function returning the engine's error, so argument
	// errors still come first. The implementation is baked into the
	// program, so the engine must purge compiled programs when its
	// function registry changes.
	Func func(name string) ScalarFunc
	// MissingParam builds the error for a parameter index with no bound
	// argument.
	MissingParam func(idx int) error
}

type opcode uint8

const (
	opCol       opcode = iota // dst = batch column imm
	opConst                   // dst = broadcast of consts[imm]
	opParam                   // dst = broadcast of args[imm]
	opCmp                     // dst = cmp(a, b) holds per imm (cmpEq..cmpGe)
	opAdd                     // dst = a + b
	opSub                     // dst = a - b
	opMul                     // dst = a * b
	opDiv                     // dst = a / b
	opMod                     // dst = a % b
	opConcat                  // dst = a || b
	opNeg                     // dst = -a
	opNot                     // dst = NOT a (three-valued)
	opAnd                     // dst = a AND b (three-valued)
	opOr                      // dst = a OR b (three-valued)
	opIsNull                  // dst = a IS [NOT] NULL (imm = not)
	opLike                    // dst = a [NOT] LIKE b (imm = not)
	opBetween                 // dst = a [NOT] BETWEEN b AND c (imm = not)
	opInList                  // dst = a [NOT] IN (const list) (set spec)
	opInExpr                  // dst = a [NOT] IN (args regs) (imm = not)
	opCall                    // dst = fn(args regs)
	opCoalesce                // dst = first non-NULL of args regs
	opCase                    // dst = CASE: args = cond/result reg pairs, a = else reg or -1
	opCaseMatch               // dst = (a == b) for operand-form CASE arms
	opErr                     // dst = err in every lane
	opSubquery                // dst = subquery q: scalar, EXISTS, or a [NOT] IN a (imm = not | kind<<1, b = slot)
)

// Subquery kinds, packed into opSubquery's imm above the NOT bit.
const (
	subScalar = iota
	subExists
	subIn
)

// comparison immediates for opCmp, in terms of types.Compare's result.
const (
	cmpEq = iota // == 0
	cmpNe        // != 0
	cmpLt        // < 0
	cmpLe        // <= 0
	cmpGt        // > 0
	cmpGe        // >= 0
)

type inst struct {
	op      opcode
	dst     int
	a, b, c int
	imm     int
	str     string // literal LIKE needle for specialized shapes
	args    []int
	fn      ScalarFunc
	set     *inListSpec
	err     error           // opErr
	q       *sqltext.Select // opSubquery
}

// Specialized LIKE shapes, packed into opLike's imm above the NOT bit
// (imm = not | shape<<1). likeGeneric runs the rune-wise backtracking
// matcher against the pattern register; the rest compare the operand
// against a literal needle with direct string kernels.
const (
	likeGeneric = iota
	likeExact
	likePrefix
	likeSuffix
	likeContains
)

// classifyLike recognizes literal patterns whose wildcards reduce to
// exact/prefix/suffix/substring string comparison. The needle must be
// valid UTF-8 and free of U+FFFD: the rune-wise matcher decodes invalid
// operand bytes to RuneError, and only under those two conditions is a
// byte-wise comparison against the needle equivalent to the rune-wise
// one for every operand, valid UTF-8 or not.
func classifyLike(pat string) (shape int, needle string, ok bool) {
	if strings.ContainsRune(pat, '_') {
		return 0, "", false
	}
	switch {
	case !strings.Contains(pat, "%"):
		shape, needle = likeExact, pat
	case strings.HasSuffix(pat, "%") && !strings.Contains(pat[:len(pat)-1], "%"):
		shape, needle = likePrefix, pat[:len(pat)-1]
	case strings.HasPrefix(pat, "%") && !strings.Contains(pat[1:], "%"):
		shape, needle = likeSuffix, pat[1:]
	case len(pat) >= 2 && strings.HasPrefix(pat, "%") && strings.HasSuffix(pat, "%") &&
		!strings.Contains(pat[1:len(pat)-1], "%"):
		shape, needle = likeContains, pat[1:len(pat)-1]
	default:
		return 0, "", false
	}
	if !utf8.ValidString(needle) || strings.ContainsRune(needle, utf8.RuneError) {
		return 0, "", false
	}
	return shape, needle, true
}

// inListSpec describes an IN list whose elements are all literals or
// parameters. A machine builds the set of a list of literals alone
// once and keeps it for life; a list that mentions a parameter is
// rebuilt by every Machine.Bind.
type inListSpec struct {
	elems    []inElem
	not      bool
	hasParam bool
}

// inElem is one element of a const IN list: a literal value, or a
// parameter index (param >= 0).
type inElem struct {
	param int // -1 for literal
	val   types.Value
}

// Program is a compiled expression: a flat instruction sequence over
// virtual registers, plus the constants, IN-list specs, and parameter
// error builder the machine needs at bind time, and the pool of idle
// machines built for it (see Acquire). A Program is shared by pointer
// and never copied.
type Program struct {
	insts        []inst
	nregs        int
	consts       []types.Value
	sets         []*inListSpec // opInList specs, indexed by the instruction's imm
	result       int
	cols         []int
	maxParam     int // highest parameter index referenced + 1
	nsubs        int // opSubquery slots
	missingParam func(idx int) error
	pool         sync.Pool // of *Machine
}

// Cols returns the sorted set of column indexes the program reads; the
// engine fills only these in each batch.
func (p *Program) Cols() []int { return p.cols }

// Subqueries reports whether the program runs subqueries: only then does
// a machine need a SubqueryFunc bound.
func (p *Program) Subqueries() bool { return p.nsubs > 0 }

// Compile lowers an expression tree into a Program. It is total: a name
// that does not resolve, an aggregate outside an aggregate context, or a
// node the engine cannot evaluate lowers to an instruction whose lanes
// hold the error evaluation raises, where it raises it — masked, like
// any lane error, by AND/OR/CASE/COALESCE, and never raised over a
// relation with no rows.
func Compile(x sqltext.Expr, env *Env) *Program {
	c := &compiler{env: env, p: &Program{missingParam: env.MissingParam}, colSet: map[int]bool{}}
	c.p.result = c.expr(x)
	// A plan keeps its programs as long as it is cached: no spare room.
	c.p.insts, c.p.consts = slices.Clone(c.p.insts), slices.Clone(c.p.consts)
	for col := range c.colSet {
		c.p.cols = append(c.p.cols, col)
	}
	sort.Ints(c.p.cols)
	return c.p
}

type compiler struct {
	env    *Env
	p      *Program
	colSet map[int]bool
}

func (c *compiler) reg() int {
	r := c.p.nregs
	c.p.nregs++
	return r
}

func (c *compiler) emit(i inst) int {
	i.dst = c.reg()
	c.p.insts = append(c.p.insts, i)
	return i.dst
}

func (c *compiler) expr(x sqltext.Expr) int {
	switch x := x.(type) {
	case *sqltext.Literal:
		return c.constReg(x.Value)
	case *sqltext.ColumnRef:
		col, err := c.env.Resolve(x)
		if err != nil {
			return c.fail(err)
		}
		return c.col(col)
	case *sqltext.Param:
		c.param(x.Index)
		return c.emit(inst{op: opParam, imm: x.Index})
	case *sqltext.Unary:
		a := c.expr(x.X)
		if x.Op == "NOT" {
			return c.emit(inst{op: opNot, a: a})
		}
		return c.emit(inst{op: opNeg, a: a})
	case *sqltext.Binary:
		return c.binary(x)
	case *sqltext.FuncCall:
		if sqltext.IsAggregateName(x.Name) {
			col, err := c.env.Agg(x)
			if err != nil {
				return c.fail(err)
			}
			return c.col(col)
		}
		return c.call(x)
	case *sqltext.InExpr:
		return c.in(x)
	case *sqltext.IsNull:
		return c.emit(inst{op: opIsNull, a: c.expr(x.X), imm: boolImm(x.Not)})
	case *sqltext.Like:
		a := c.expr(x.X)
		if lit, ok := x.Pattern.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindString {
			if kind, needle, ok := classifyLike(lit.Value.AsString()); ok {
				// Specialized shape: the pattern register is never
				// materialized, the kernel compares against the needle
				// directly. The shape is packed above the NOT bit.
				return c.emit(inst{op: opLike, a: a, b: -1, imm: boolImm(x.Not) | kind<<1, str: needle})
			}
		}
		return c.emit(inst{op: opLike, a: a, b: c.expr(x.Pattern), imm: boolImm(x.Not)})
	case *sqltext.Between:
		a, lo, hi := c.expr(x.X), c.expr(x.Lo), c.expr(x.Hi)
		return c.emit(inst{op: opBetween, a: a, b: lo, c: hi, imm: boolImm(x.Not)})
	case *sqltext.CaseExpr:
		return c.caseExpr(x)
	case *sqltext.Subquery:
		return c.subquery(x.Query, subScalar, false, -1)
	case *sqltext.Exists:
		return c.subquery(x.Query, subExists, x.Not, -1)
	}
	// The interpreter's text for a node it has no case for.
	return c.fail(fmt.Errorf("engine: cannot evaluate %T", x))
}

// fail lowers an expression that cannot evaluate to the error every lane
// holds.
func (c *compiler) fail(err error) int {
	return c.emit(inst{op: opErr, err: err})
}

func (c *compiler) col(col int) int {
	c.colSet[col] = true
	return c.emit(inst{op: opCol, imm: col})
}

func (c *compiler) param(idx int) {
	if idx+1 > c.p.maxParam {
		c.p.maxParam = idx + 1
	}
}

func (c *compiler) constReg(v types.Value) int {
	idx := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	return c.emit(inst{op: opConst, imm: idx})
}

var binaryOps = map[string]inst{
	"AND": {op: opAnd}, "OR": {op: opOr},
	"+": {op: opAdd}, "-": {op: opSub}, "*": {op: opMul}, "/": {op: opDiv}, "%": {op: opMod},
	"||": {op: opConcat},
	"=":  {op: opCmp, imm: cmpEq}, "!=": {op: opCmp, imm: cmpNe},
	"<": {op: opCmp, imm: cmpLt}, "<=": {op: opCmp, imm: cmpLe},
	">": {op: opCmp, imm: cmpGt}, ">=": {op: opCmp, imm: cmpGe},
}

func (c *compiler) binary(x *sqltext.Binary) int {
	a, b := c.expr(x.L), c.expr(x.R)
	i, ok := binaryOps[x.Op]
	if !ok {
		// The interpreter evaluates both operands before it rejects the
		// operator: a call whose function is the rejection keeps that order.
		err := fmt.Errorf("engine: unknown operator %q", x.Op)
		return c.emit(inst{op: opCall, args: []int{a, b}, fn: func([]types.Value) (types.Value, error) { return types.Null, err }})
	}
	i.a, i.b = a, b
	return c.emit(i)
}

// call lowers a scalar function call. DISTINCT and * mean nothing to a
// scalar function: the arguments written are the arguments passed.
func (c *compiler) call(x *sqltext.FuncCall) int {
	name := strings.ToUpper(x.Name)
	args := make([]int, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	if name == "COALESCE" {
		// COALESCE short-circuits per the interpreter's evalFunc: lanes
		// take the first non-NULL argument in order.
		return c.emit(inst{op: opCoalesce, args: args})
	}
	return c.emit(inst{op: opCall, args: args, fn: c.env.Func(name)})
}

func (c *compiler) in(x *sqltext.InExpr) int {
	a := c.expr(x.X)
	if x.Query != nil {
		return c.subquery(x.Query, subIn, x.Not, a)
	}
	// Const list: literals and parameters only, matching the
	// interpreter's memoized-set path.
	spec := &inListSpec{not: x.Not}
	for _, el := range x.List {
		switch el := el.(type) {
		case *sqltext.Literal:
			spec.elems = append(spec.elems, inElem{param: -1, val: el.Value})
			continue
		case *sqltext.Param:
			c.param(el.Index)
			spec.elems = append(spec.elems, inElem{param: el.Index})
			spec.hasParam = true
			continue
		}
		regs := make([]int, len(x.List))
		for i, el := range x.List {
			regs[i] = c.expr(el)
		}
		return c.emit(inst{op: opInExpr, a: a, args: regs, imm: boolImm(x.Not)})
	}
	c.p.sets = append(c.p.sets, spec)
	return c.emit(inst{op: opInList, a: a, imm: len(c.p.sets) - 1, set: spec})
}

// subquery lowers a scalar subquery, EXISTS or [NOT] IN (subquery) over
// operand register a to one instruction with its own slot: the machine
// runs the subquery once per Bind, on first use.
func (c *compiler) subquery(q *sqltext.Select, kind int, not bool, a int) int {
	c.p.nsubs++
	return c.emit(inst{op: opSubquery, a: a, b: c.p.nsubs - 1, imm: boolImm(not) | kind<<1, q: q})
}

func (c *compiler) caseExpr(x *sqltext.CaseExpr) int {
	operand := -1
	if x.Operand != nil {
		operand = c.expr(x.Operand)
	}
	args := make([]int, 0, 2*len(x.Whens))
	for _, w := range x.Whens {
		cond := c.expr(w.Cond)
		if operand >= 0 {
			cond = c.emit(inst{op: opCaseMatch, a: operand, b: cond})
		}
		args = append(args, cond, c.expr(w.Result))
	}
	elseReg := -1
	if x.Else != nil {
		elseReg = c.expr(x.Else)
	}
	return c.emit(inst{op: opCase, args: args, a: elseReg, imm: boolImm(operand >= 0)})
}

func boolImm(b bool) int {
	if b {
		return 1
	}
	return 0
}
