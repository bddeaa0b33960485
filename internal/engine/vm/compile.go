package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// ScalarFunc evaluates a scalar function over already-evaluated
// arguments, exactly like the interpreter's callScalar: the function is
// responsible for its own NULL handling. The args slice is reused
// between lanes and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// Env is the compile-time environment the engine supplies: how column
// references resolve against the relation the program will run over,
// which scalar functions exist, and how a missing positional parameter
// errors (so compiled statements fail with the engine's exact message).
type Env struct {
	// Resolve maps a column reference to a column index. Returning
	// ok=false (unknown or ambiguous) makes the expression unlowerable;
	// the engine's interpreter then reports its own error.
	Resolve func(cr *sqltext.ColumnRef) (col int, ok bool)
	// Func resolves a scalar function by upper-cased name. The returned
	// implementation is baked into the program, so the engine must purge
	// compiled programs when its function registry changes.
	Func func(name string) (ScalarFunc, bool)
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
	opInterp                  // dst = the engine's interpreter over x and the lane's rebuilt row (imm = row width)
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
	x       sqltext.Expr // opInterp: the expression, whole
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
	missingParam func(idx int) error
	pool         sync.Pool // of *Machine
}

// Cols returns the sorted set of column indexes the program reads; the
// engine fills only these in each batch.
func (p *Program) Cols() []int { return p.cols }

// InterpFunc is the engine's tree-walk interpreter: it evaluates x
// against one row. The row is reused between lanes and must not be
// retained.
type InterpFunc func(x sqltext.Expr, row types.Row) (types.Value, error)

// Interpret wraps an expression Compile cannot lower, whole, as a
// one-instruction program over a layout of ncols columns: each lane's
// row is rebuilt from the batch and handed to the InterpFunc the
// machine was bound with, errors held per lane like every other op. So
// the engine has one evaluation path per expression site, and making
// the compiler total later is deleting this instruction.
func Interpret(x sqltext.Expr, ncols int) *Program {
	cols := make([]int, ncols)
	for i := range cols {
		cols[i] = i
	}
	return &Program{insts: []inst{{op: opInterp, x: x, imm: ncols}}, nregs: 1, cols: cols}
}

// Interpreted reports whether the program is an Interpret wrapper. Such
// a program calls back into per-statement interpreter state that is not
// goroutine-safe, so it must run on one goroutine.
func (p *Program) Interpreted() bool { return p.insts[0].op == opInterp }

// notLowerableError is the signal that an expression must stay on the
// tree-walk interpreter. It is returned (wrapped with the node kind)
// from Compile; engines treat any Compile error as "wrap it with
// Interpret", never as a statement failure.
type notLowerableError struct{ what string }

func (e *notLowerableError) Error() string { return "vm: cannot lower " + e.what }

// Compile lowers an expression tree into a Program, or reports why it
// cannot be lowered (subqueries, aggregates, unknown functions,
// unresolvable columns). A Compile error is a fallback signal, not a
// statement error.
func Compile(x sqltext.Expr, env *Env) (*Program, error) {
	c := &compiler{env: env, p: &Program{missingParam: env.MissingParam}, colSet: map[int]bool{}}
	r, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	c.p.result = r
	for col := range c.colSet {
		c.p.cols = append(c.p.cols, col)
	}
	sort.Ints(c.p.cols)
	return c.p, nil
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

func (c *compiler) expr(x sqltext.Expr) (int, error) {
	switch x := x.(type) {
	case *sqltext.Literal:
		return c.constReg(x.Value), nil
	case *sqltext.ColumnRef:
		col, ok := c.env.Resolve(x)
		if !ok {
			return 0, &notLowerableError{what: fmt.Sprintf("column %s", x.Column)}
		}
		c.colSet[col] = true
		return c.emit(inst{op: opCol, imm: col}), nil
	case *sqltext.Param:
		if x.Index+1 > c.p.maxParam {
			c.p.maxParam = x.Index + 1
		}
		return c.emit(inst{op: opParam, imm: x.Index}), nil
	case *sqltext.Unary:
		a, err := c.expr(x.X)
		if err != nil {
			return 0, err
		}
		if x.Op == "NOT" {
			return c.emit(inst{op: opNot, a: a}), nil
		}
		return c.emit(inst{op: opNeg, a: a}), nil
	case *sqltext.Binary:
		return c.binary(x)
	case *sqltext.FuncCall:
		return c.call(x)
	case *sqltext.InExpr:
		return c.in(x)
	case *sqltext.IsNull:
		a, err := c.expr(x.X)
		if err != nil {
			return 0, err
		}
		return c.emit(inst{op: opIsNull, a: a, imm: boolImm(x.Not)}), nil
	case *sqltext.Like:
		a, err := c.expr(x.X)
		if err != nil {
			return 0, err
		}
		if lit, ok := x.Pattern.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindString {
			if kind, needle, ok := classifyLike(lit.Value.AsString()); ok {
				// Specialized shape: the pattern register is never
				// materialized, the kernel compares against the needle
				// directly. The shape is packed above the NOT bit.
				return c.emit(inst{op: opLike, a: a, b: -1, imm: boolImm(x.Not) | kind<<1, str: needle}), nil
			}
		}
		b, err := c.expr(x.Pattern)
		if err != nil {
			return 0, err
		}
		return c.emit(inst{op: opLike, a: a, b: b, imm: boolImm(x.Not)}), nil
	case *sqltext.Between:
		a, err := c.expr(x.X)
		if err != nil {
			return 0, err
		}
		lo, err := c.expr(x.Lo)
		if err != nil {
			return 0, err
		}
		hi, err := c.expr(x.Hi)
		if err != nil {
			return 0, err
		}
		return c.emit(inst{op: opBetween, a: a, b: lo, c: hi, imm: boolImm(x.Not)}), nil
	case *sqltext.CaseExpr:
		return c.caseExpr(x)
	default:
		// Subquery, Exists, and anything the parser grows later stay on
		// the interpreter.
		return 0, &notLowerableError{what: fmt.Sprintf("%T", x)}
	}
}

func (c *compiler) constReg(v types.Value) int {
	idx := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	return c.emit(inst{op: opConst, imm: idx})
}

func (c *compiler) binary(x *sqltext.Binary) (int, error) {
	a, err := c.expr(x.L)
	if err != nil {
		return 0, err
	}
	b, err := c.expr(x.R)
	if err != nil {
		return 0, err
	}
	switch x.Op {
	case "AND":
		return c.emit(inst{op: opAnd, a: a, b: b}), nil
	case "OR":
		return c.emit(inst{op: opOr, a: a, b: b}), nil
	case "+":
		return c.emit(inst{op: opAdd, a: a, b: b}), nil
	case "-":
		return c.emit(inst{op: opSub, a: a, b: b}), nil
	case "*":
		return c.emit(inst{op: opMul, a: a, b: b}), nil
	case "/":
		return c.emit(inst{op: opDiv, a: a, b: b}), nil
	case "%":
		return c.emit(inst{op: opMod, a: a, b: b}), nil
	case "||":
		return c.emit(inst{op: opConcat, a: a, b: b}), nil
	case "=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpEq}), nil
	case "!=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpNe}), nil
	case "<":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpLt}), nil
	case "<=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpLe}), nil
	case ">":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpGt}), nil
	case ">=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpGe}), nil
	default:
		return 0, &notLowerableError{what: "operator " + x.Op}
	}
}

func (c *compiler) call(x *sqltext.FuncCall) (int, error) {
	name := strings.ToUpper(x.Name)
	if x.Star || x.Distinct || sqltext.IsAggregateName(x.Name) {
		// Aggregates (and misuse of aggregate syntax) keep the
		// interpreter's contextual error messages.
		return 0, &notLowerableError{what: "aggregate " + x.Name}
	}
	args := make([]int, 0, len(x.Args))
	for _, a := range x.Args {
		r, err := c.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, r)
	}
	if name == "COALESCE" {
		// COALESCE short-circuits per the interpreter's evalFunc: lanes
		// take the first non-NULL argument in order.
		return c.emit(inst{op: opCoalesce, args: args}), nil
	}
	fn, ok := c.env.Func(name)
	if !ok {
		return 0, &notLowerableError{what: "function " + name}
	}
	return c.emit(inst{op: opCall, args: args, fn: fn}), nil
}

func (c *compiler) in(x *sqltext.InExpr) (int, error) {
	if x.Query != nil {
		return 0, &notLowerableError{what: "IN (subquery)"}
	}
	a, err := c.expr(x.X)
	if err != nil {
		return 0, err
	}
	// Const list: literals and parameters only, matching the
	// interpreter's memoized-set path.
	spec := &inListSpec{not: x.Not}
	constList := true
	for _, el := range x.List {
		switch el := el.(type) {
		case *sqltext.Literal:
			spec.elems = append(spec.elems, inElem{param: -1, val: el.Value})
		case *sqltext.Param:
			if el.Index+1 > c.p.maxParam {
				c.p.maxParam = el.Index + 1
			}
			spec.elems = append(spec.elems, inElem{param: el.Index})
			spec.hasParam = true
		default:
			constList = false
		}
		if !constList {
			break
		}
	}
	if constList {
		c.p.sets = append(c.p.sets, spec)
		return c.emit(inst{op: opInList, a: a, imm: len(c.p.sets) - 1, set: spec}), nil
	}
	regs := make([]int, 0, len(x.List))
	for _, el := range x.List {
		r, err := c.expr(el)
		if err != nil {
			return 0, err
		}
		regs = append(regs, r)
	}
	return c.emit(inst{op: opInExpr, a: a, args: regs, imm: boolImm(x.Not)}), nil
}

func (c *compiler) caseExpr(x *sqltext.CaseExpr) (int, error) {
	var operand int
	hasOperand := x.Operand != nil
	if hasOperand {
		r, err := c.expr(x.Operand)
		if err != nil {
			return 0, err
		}
		operand = r
	}
	args := make([]int, 0, 2*len(x.Whens))
	for _, w := range x.Whens {
		cond, err := c.expr(w.Cond)
		if err != nil {
			return 0, err
		}
		if hasOperand {
			cond = c.emit(inst{op: opCaseMatch, a: operand, b: cond})
		}
		res, err := c.expr(w.Result)
		if err != nil {
			return 0, err
		}
		args = append(args, cond, res)
	}
	elseReg := -1
	if x.Else != nil {
		r, err := c.expr(x.Else)
		if err != nil {
			return 0, err
		}
		elseReg = r
	}
	return c.emit(inst{op: opCase, args: args, a: elseReg, imm: boolImm(hasOperand)}), nil
}

func boolImm(b bool) int {
	if b {
		return 1
	}
	return 0
}
