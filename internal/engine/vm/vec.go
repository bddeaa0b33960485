// Package vm compiles sqltext expression trees into flat register-based
// opcode programs and executes them over column batches, so the
// per-row interface dispatch of the tree-walk interpreter amortizes
// across ~1k rows at a time.
//
// The contract with the interpreter is strict equivalence: for every
// lane the compiled program must produce the same value, the same NULL,
// or the same error that internal/engine's binder.eval would have
// produced for that row — including evaluation order, three-valued
// logic, and short-circuit error suppression. Equivalence is achieved
// by eager evaluation with per-lane error propagation: an operand lane
// may carry an error instead of a value, and every opcode combines
// operand errors with exactly the precedence the interpreter's
// short-circuit order implies (e.g. AND discards the right operand's
// error when the left operand is FALSE). Expressions the compiler
// cannot lower (subqueries, aggregates, unknown functions) are not
// errors: Compile reports them and the engine wraps the expression,
// whole, in the one instruction that calls the interpreter per lane
// (Interpret).
package vm

import (
	"ediflow/internal/types"
)

// BatchSize is the number of rows evaluated per batch — the single
// tunable that trades dispatch amortization against cache footprint.
// Vectors allocate this many lanes up front and are reused across
// batches.
const BatchSize = 1024

// Bitmap is a fixed-capacity bitset used for NULL tracking in typed
// vectors. Bit i set means lane i is NULL.
type Bitmap []uint64

func newBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b Bitmap) clear() {
	for i := range b {
		b[i] = 0
	}
}

// Vec is one column of lanes. Int, Float, and Bool columns store
// unboxed values with a NULL bitmap; every other kind (and any column
// whose rows turn out not to match the declared kind) stores boxed
// types.Value lanes. A lane may carry an error instead of a value —
// errs is nil on the fast path and allocated only when some lane
// actually errors.
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
	if v.i64 == nil {
		v.i64 = make([]int64, BatchSize)
	}
	v.resetNull()
}

func (v *Vec) resetFloat(n int) {
	v.kind, v.n, v.errs = types.KindFloat, n, nil
	if v.f64 == nil {
		v.f64 = make([]float64, BatchSize)
	}
	v.resetNull()
}

func (v *Vec) resetBool(n int) {
	v.kind, v.n, v.errs = types.KindBool, n, nil
	if v.bs == nil {
		v.bs = make([]bool, BatchSize)
	} else {
		// Logical kernels (AND/OR) skip-write false lanes, so reused bool
		// storage MUST be zeroed — a stale true bit from the previous
		// batch would otherwise leak through. Int/float/boxed lanes don't
		// need this: they are only read where the null bitmap and error
		// lane say the value is live, and those are always reset.
		for i := range v.bs {
			v.bs[i] = false
		}
	}
	v.resetNull()
}

func (v *Vec) resetBoxed(n int) {
	v.kind, v.n, v.errs = types.KindNull, n, nil
	if v.any == nil {
		v.any = make([]types.Value, BatchSize)
	}
}

func (v *Vec) resetNull() {
	if v.null == nil {
		v.null = newBitmap(BatchSize)
		return
	}
	v.null.clear()
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
		v.errs = make([]error, BatchSize)
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

// AnyErr reports whether any lane of the vector carries an error —
// cheap pre-check before a fold takes a no-error fast path.
func (v *Vec) AnyErr() bool {
	if v.errs == nil {
		return false
	}
	for i := 0; i < v.n; i++ {
		if v.errs[i] != nil {
			return true
		}
	}
	return false
}

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

// promote converts a typed vector in place to boxed lanes, preserving
// the first n lanes. Used when a row's actual value does not match the
// column's declared kind (schema kinds are advisory for view backing
// tables and untyped sources).
func (v *Vec) promote(n int) {
	if v.any == nil {
		v.any = make([]types.Value, BatchSize)
	}
	for i := 0; i < n; i++ {
		v.any[i] = v.Value(i)
	}
	v.kind = types.KindNull
}

// Batch is a column-oriented window of rows. Only the columns a
// compiled program references (used) are filled; the rest stay empty.
type Batch struct {
	kinds []types.Kind
	used  []int
	cols  []Vec
	n     int
}

// NewBatch returns a reusable batch over columns of the declared kinds,
// filling only the columns listed in used (typically Program.Cols()).
func NewBatch(kinds []types.Kind, used []int) *Batch {
	b := &Batch{kinds: kinds, used: used, cols: make([]Vec, len(kinds))}
	b.Reset()
	return b
}

// Reset empties the batch for refilling, keeping allocated storage.
func (b *Batch) Reset() {
	b.n = 0
	for _, c := range b.used {
		v := &b.cols[c]
		switch b.kinds[c] {
		case types.KindInt:
			v.resetInt(0)
		case types.KindFloat:
			v.resetFloat(0)
		case types.KindBool:
			v.resetBool(0)
		default:
			v.resetBoxed(0)
		}
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

// Fill replaces the batch contents with the used columns of rows,
// column-major: one kind dispatch per column per batch instead of one
// per cell, and no whole-Value copies on the typed paths (the accessor
// calls inline to single field loads). Equivalent to Reset followed by
// Append of every row. len(rows) must not exceed BatchSize.
func (b *Batch) Fill(rows []types.Row) {
	b.Reset()
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
				v.promote(i)
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
				v.promote(i)
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
				v.promote(i)
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
				v.promote(i)
				v.any[i] = val
			}
		case types.KindFloat:
			if val.IsNull() {
				v.null.Set(i)
			} else if val.Kind() == types.KindFloat {
				v.f64[i] = val.Float()
			} else {
				v.promote(i)
				v.any[i] = val
			}
		case types.KindBool:
			if val.IsNull() {
				v.null.Set(i)
			} else if val.Kind() == types.KindBool {
				v.bs[i] = val.Bool()
			} else {
				v.promote(i)
				v.any[i] = val
			}
		default:
			v.any[i] = val
		}
	}
	b.n++
}
