// Package vm compiles sqltext expression trees into flat register-based
// opcode programs and executes them over column batches, so per-row
// interface dispatch amortizes across ~1k rows at a time. It is the
// engine's only expression evaluator.
//
// The contract is strict equivalence with row-at-a-time evaluation (the
// tree-walk reference the engine's tests keep): for every lane the
// compiled program must produce the same value, the same NULL, or the
// same error that evaluating the expression against that row would have
// produced — including evaluation order, three-valued logic, and
// short-circuit error suppression. Equivalence is achieved by eager
// evaluation with per-lane error propagation: an operand lane may carry
// an error instead of a value, and every opcode combines operand errors
// with exactly the precedence the short-circuit order implies (e.g. AND
// discards the right operand's error when the left operand is FALSE).
// Compile is total: a name that does not resolve or an aggregate outside
// an aggregate context lowers to an instruction whose lanes hold the
// error, and subqueries lower to one instruction that runs them once.
package vm

import (
	"ediflow/internal/types"
)

// BatchSize is the most rows one batch holds — the single tunable that
// trades dispatch amortization against cache footprint. It is a ceiling,
// not an allocation: every vector (batch column, register, broadcast,
// error lane) is sized to the lanes its batch actually has, rounded up
// by lanesFor, and keeps the widest storage it has needed when it is
// reused. A one-row statement therefore pays for 8 lanes and a full scan
// for 1,024, through the same kernels.
const BatchSize = 1024

// lanesFor rounds a lane demand up to the size storage is allocated in:
// a power of two from 8 to BatchSize, so a vector reused across batches
// of drifting size is reallocated at most eight times in its life.
func lanesFor(n int) int {
	c := 8
	for c < n && c < BatchSize {
		c <<= 1
	}
	return c
}

// Bitmap is a bitset used for NULL tracking in typed vectors. Bit i set
// means lane i is NULL.
type Bitmap []uint64

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Vec is one column of lanes. Int, Float, and Bool columns store
// unboxed values with a NULL bitmap; every other kind (and any column
// whose rows turn out not to match the declared kind) stores boxed
// types.Value lanes. A lane may carry an error instead of a value —
// errs is nil on the fast path and allocated only when some lane
// actually errors. Storage beyond lane n is stale: a reset sizes and
// clears exactly the lanes it is asked for, and nothing reads past them.
type Vec struct {
	kind types.Kind // KindInt/KindFloat/KindBool typed; KindNull = boxed
	n    int
	null Bitmap
	i64  []int64
	f64  []float64
	bs   []bool
	any  []types.Value
	errs []error
}

func (v *Vec) resetInt(n int) {
	v.kind, v.n, v.errs = types.KindInt, n, nil
	if len(v.i64) < n {
		v.i64 = make([]int64, lanesFor(n))
	}
	v.resetNull(n)
}

func (v *Vec) resetFloat(n int) {
	v.kind, v.n, v.errs = types.KindFloat, n, nil
	if len(v.f64) < n {
		v.f64 = make([]float64, lanesFor(n))
	}
	v.resetNull(n)
}

func (v *Vec) resetBool(n int) {
	v.kind, v.n, v.errs = types.KindBool, n, nil
	if len(v.bs) < n {
		v.bs = make([]bool, lanesFor(n))
	} else {
		// Logical kernels (AND/OR) skip-write false lanes, so reused bool
		// storage MUST be zeroed — a stale true bit from the previous
		// batch would otherwise leak through. Int/float/boxed lanes don't
		// need this: they are only read where the null bitmap and error
		// lane say the value is live, and those are always reset.
		clear(v.bs[:n])
	}
	v.resetNull(n)
}

func (v *Vec) resetBoxed(n int) {
	v.kind, v.n, v.errs = types.KindNull, n, nil
	if len(v.any) < n {
		v.any = make([]types.Value, lanesFor(n))
	}
}

func (v *Vec) resetNull(n int) {
	if w := (n + 63) >> 6; len(v.null) < w {
		v.null = make(Bitmap, (lanesFor(n)+63)>>6)
	} else {
		clear(v.null[:w])
	}
}

// reset dispatches on a declared column kind.
func (v *Vec) reset(kind types.Kind, n int) {
	switch kind {
	case types.KindInt:
		v.resetInt(n)
	case types.KindFloat:
		v.resetFloat(n)
	case types.KindBool:
		v.resetBool(n)
	default:
		v.resetBoxed(n)
	}
}

// grow reallocates the current kind's storage to lanes lanes, keeping
// its contents (Batch.Append outgrowing what the last reset sized).
func (v *Vec) grow(lanes int) {
	switch v.kind {
	case types.KindInt:
		v.i64 = grown(v.i64, lanes)
	case types.KindFloat:
		v.f64 = grown(v.f64, lanes)
	case types.KindBool:
		v.bs = grown(v.bs, lanes)
	default:
		v.any = grown(v.any, lanes)
		return
	}
	v.null = grown(v.null, (lanes+63)>>6)
}

func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// broadcast fills the vector with val in every lane, sized for a batch
// of n lanes; v.n records how many lanes hold it, so a later, wider
// batch knows to fill again.
func (v *Vec) broadcast(val types.Value, n int) {
	n = lanesFor(n)
	switch val.Kind() {
	case types.KindInt:
		v.resetInt(n)
		x := val.Int()
		for i := range v.i64[:n] {
			v.i64[i] = x
		}
	case types.KindFloat:
		v.resetFloat(n)
		x := val.Float()
		for i := range v.f64[:n] {
			v.f64[i] = x
		}
	case types.KindBool:
		v.resetBool(n)
		x := val.Bool()
		for i := range v.bs[:n] {
			v.bs[i] = x
		}
	default:
		v.resetBoxed(n)
		for i := range v.any[:n] {
			v.any[i] = val
		}
	}
}

// broadcastErr fills every lane with err (an unbound parameter: the row
// errors only if the lane is actually consulted).
func (v *Vec) broadcastErr(err error, n int) {
	v.broadcast(types.Null, n)
	v.errs = make([]error, v.n)
	for i := range v.errs {
		v.errs[i] = err
	}
}

func (v *Vec) boxed() bool { return v.kind == types.KindNull }

// Len reports the number of lanes.
func (v *Vec) Len() int { return v.n }

// Err returns the error carried by lane i, or nil.
func (v *Vec) Err(i int) error {
	if v.errs == nil {
		return nil
	}
	return v.errs[i]
}

func (v *Vec) setErr(i int, err error) {
	if v.errs == nil {
		v.errs = make([]error, lanesFor(v.n))
	}
	v.errs[i] = err
}

func (v *Vec) isNull(i int) bool {
	if v.boxed() {
		return v.any[i].IsNull()
	}
	return v.null.Get(i)
}

// Kind reports the vector's storage layout: KindInt/KindFloat/KindBool
// mean typed lanes, KindNull means boxed types.Value lanes (including
// string columns and any column that promoted mid-batch).
func (v *Vec) Kind() types.Kind { return v.kind }

// IsNull reports whether lane i is NULL. Undefined when the lane
// carries an error — callers must check Err first.
func (v *Vec) IsNull(i int) bool { return v.isNull(i) }

// Int reads typed int lane i without boxing. Valid only when
// Kind() == types.KindInt and the lane is non-NULL and error-free.
func (v *Vec) Int(i int) int64 { return v.i64[i] }

// Float reads typed float lane i without boxing. Valid only when
// Kind() == types.KindFloat and the lane is non-NULL and error-free.
func (v *Vec) Float(i int) float64 { return v.f64[i] }

// Value reconstructs lane i as a types.Value. Undefined when the lane
// carries an error — callers must check Err first.
func (v *Vec) Value(i int) types.Value {
	switch v.kind {
	case types.KindInt:
		if v.null.Get(i) {
			return types.Null
		}
		return types.NewInt(v.i64[i])
	case types.KindFloat:
		if v.null.Get(i) {
			return types.Null
		}
		return types.NewFloat(v.f64[i])
	case types.KindBool:
		if v.null.Get(i) {
			return types.Null
		}
		return types.NewBool(v.bs[i])
	default:
		return v.any[i]
	}
}

// promote converts a typed vector in place to boxed storage of lanes
// lanes, preserving the first n. Used when a row's actual value does not
// match the column's declared kind (schema kinds are advisory for view
// backing tables and untyped sources).
func (v *Vec) promote(n, lanes int) {
	if len(v.any) < lanes {
		v.any = make([]types.Value, lanes)
	}
	for i := 0; i < n; i++ {
		v.any[i] = v.Value(i)
	}
	v.kind = types.KindNull
}

// Batch is a column-oriented window of rows. Only the columns a
// compiled program references (used) are filled; the rest stay empty.
// Every used column has storage for lanes rows: Fill sizes it from the
// rows it is given, Append doubles it on demand.
type Batch struct {
	kinds []types.Kind
	used  []int
	cols  []Vec
	n     int
	lanes int
}

// NewBatch returns a reusable batch over columns of the declared kinds,
// filling only the columns listed in used (typically Program.Cols()).
// It allocates no lanes until rows arrive.
func NewBatch(kinds []types.Kind, used []int) *Batch {
	b := &Batch{kinds: kinds, used: used, cols: make([]Vec, len(kinds))}
	b.Reset()
	return b
}

// Reset empties the batch for refilling by Append, keeping allocated
// storage (all of it is cleared: the rows to come are not known).
func (b *Batch) Reset() { b.reset(b.lanes) }

// reset restores the declared kinds with room for n clean lanes.
func (b *Batch) reset(n int) {
	b.n = 0
	if n > b.lanes {
		b.lanes = lanesFor(n)
	}
	for _, c := range b.used {
		b.cols[c].reset(b.kinds[c], n)
	}
}

// Len reports the number of appended rows.
func (b *Batch) Len() int { return b.n }

// Col returns column c's vector sized to the batch length.
func (b *Batch) Col(c int) *Vec {
	v := &b.cols[c]
	v.n = b.n
	return v
}

// SetLane overwrites lane i of boxed column c with val, or holds err
// there instead when err is non-nil: how a value computed outside the
// batch (an aggregate's result) enters a program as a column. The batch
// must already hold lane i.
func (b *Batch) SetLane(c, i int, val types.Value, err error) {
	v := b.Col(c)
	v.any[i] = val
	if err != nil {
		v.setErr(i, err)
	}
}

// Fill replaces the batch contents with the used columns of rows,
// column-major: one kind dispatch per column per batch instead of one
// per cell, and no whole-Value copies on the typed paths (the accessor
// calls inline to single field loads). Equivalent to Reset followed by
// Append of every row. len(rows) must not exceed BatchSize.
func (b *Batch) Fill(rows []types.Row) {
	b.reset(len(rows))
	b.n = len(rows)
	for _, c := range b.used {
		b.fillCol(c, rows)
	}
}

func (b *Batch) fillCol(c int, rows []types.Row) {
	v := &b.cols[c]
	n := len(rows)
	i := 0
	// Lanes are read through *Value (LaneKind/LaneInt/...) so the
	// 88-byte struct is never copied on the typed paths.
	switch v.kind {
	case types.KindInt:
		for ; i < n; i++ {
			r := rows[i]
			if c >= len(r) {
				v.null.Set(i)
				continue
			}
			lv := &r[c]
			switch lv.LaneKind() {
			case types.KindNull:
				v.null.Set(i)
			case types.KindInt:
				v.i64[i] = lv.LaneInt()
			default:
				v.promote(i, b.lanes)
				goto boxed
			}
		}
		return
	case types.KindFloat:
		for ; i < n; i++ {
			r := rows[i]
			if c >= len(r) {
				v.null.Set(i)
				continue
			}
			lv := &r[c]
			switch lv.LaneKind() {
			case types.KindNull:
				v.null.Set(i)
			case types.KindFloat:
				v.f64[i] = lv.LaneFloat()
			default:
				v.promote(i, b.lanes)
				goto boxed
			}
		}
		return
	case types.KindBool:
		for ; i < n; i++ {
			r := rows[i]
			if c >= len(r) {
				v.null.Set(i)
				continue
			}
			lv := &r[c]
			switch lv.LaneKind() {
			case types.KindNull:
				v.null.Set(i)
			case types.KindBool:
				v.bs[i] = lv.LaneBool()
			default:
				v.promote(i, b.lanes)
				goto boxed
			}
		}
		return
	}
boxed:
	for ; i < n; i++ {
		r := rows[i]
		if c >= len(r) {
			v.any[i] = types.Null
		} else {
			v.any[i] = r[c]
		}
	}
}

// Append adds one row. Columns beyond len(row) are filled with NULL,
// matching the interpreter's out-of-range column reference behavior. A
// value whose kind disagrees with the column's declared kind promotes
// the whole column to boxed lanes.
func (b *Batch) Append(row types.Row) {
	i := b.n
	if i == b.lanes {
		b.lanes = lanesFor(i + 1)
		for _, c := range b.used {
			b.cols[c].grow(b.lanes)
		}
	}
	for _, c := range b.used {
		var val types.Value
		if c < len(row) {
			val = row[c]
		} else {
			val = types.Null
		}
		v := &b.cols[c]
		switch v.kind {
		case types.KindInt:
			if val.IsNull() {
				v.null.Set(i)
			} else if val.Kind() == types.KindInt {
				v.i64[i] = val.Int()
			} else {
				v.promote(i, b.lanes)
				v.any[i] = val
			}
		case types.KindFloat:
			if val.IsNull() {
				v.null.Set(i)
			} else if val.Kind() == types.KindFloat {
				v.f64[i] = val.Float()
			} else {
				v.promote(i, b.lanes)
				v.any[i] = val
			}
		case types.KindBool:
			if val.IsNull() {
				v.null.Set(i)
			} else if val.Kind() == types.KindBool {
				v.bs[i] = val.Bool()
			} else {
				v.promote(i, b.lanes)
				v.any[i] = val
			}
		default:
			v.any[i] = val
		}
	}
	b.n++
}
