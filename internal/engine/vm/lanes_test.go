package vm

import (
	"fmt"
	"math"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// refEval is the row-at-a-time meaning of the expression subset the
// lane tests use, written against internal/types alone: the oracle the
// compiled program must match lane for lane — value, NULL and error
// text.
func refEval(x sqltext.Expr, r types.Row, args []types.Value) (types.Value, error) {
	switch x := x.(type) {
	case *sqltext.Literal:
		return x.Value, nil
	case *sqltext.ColumnRef:
		return r[map[string]int{"a": 0, "b": 1, "s": 2}[x.Column]], nil
	case *sqltext.Param:
		if x.Index >= len(args) {
			return types.Null, errMissing
		}
		return args[x.Index], nil
	case *sqltext.InExpr:
		v, err := refEval(x.X, r, args)
		if err != nil || v.IsNull() {
			return types.Null, err
		}
		found, hadNull := false, false
		for _, el := range x.List {
			lv, err := refEval(el, r, args)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() {
				hadNull = true
			} else if c, err := types.Compare(v, lv); err == nil && c == 0 {
				found = true
				break
			}
		}
		if !found && hadNull {
			return types.Null, nil
		}
		return types.NewBool(found != x.Not), nil
	case *sqltext.Binary:
		if x.Op == "AND" || x.Op == "OR" {
			stop := x.Op == "OR" // the truth value that decides alone
			l, err := refEval(x.L, r, args)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && l.Bool() == stop {
				return types.NewBool(stop), nil
			}
			rv, err := refEval(x.R, r, args)
			if err != nil {
				return types.Null, err
			}
			if !rv.IsNull() && rv.Bool() == stop {
				return types.NewBool(stop), nil
			}
			if l.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(!stop), nil
		}
		l, err := refEval(x.L, r, args)
		if err != nil {
			return types.Null, err
		}
		rv, err := refEval(x.R, r, args)
		if err != nil {
			return types.Null, err
		}
		switch x.Op {
		case "+":
			return types.Add(l, rv)
		case "/":
			return types.Div(l, rv)
		case "||":
			if l.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewString(l.AsString() + rv.AsString()), nil
		}
		if l.IsNull() || rv.IsNull() {
			return types.Null, nil
		}
		c, err := types.Compare(l, rv)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(map[string]bool{">": c > 0, "<": c < 0, "=": c == 0}[x.Op]), nil
	}
	panic(fmt.Sprintf("refEval: %T", x))
}

// parseExpr parses "SELECT <src>" and pulls the expression out.
func parseExpr(t *testing.T, src string) sqltext.Expr {
	t.Helper()
	st, err := sqltext.Parse("SELECT " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st.(*sqltext.Select).Items[0].Expr
}

// laneExprs cover every storage shape a register takes: typed int with
// error lanes, bool written by the skip-write AND/OR kernels, boxed
// strings, a broadcast constant, a broadcast parameter and an IN set.
var laneExprs = []string{
	"a / b",
	"a > 5 AND b < 3",
	"a < 2 OR b = 0",
	"s || '!'",
	"a + ?",
	"a IN (1, 2, ?) OR s = 's1'",
}

var laneKinds = []types.Kind{types.KindInt, types.KindInt, types.KindString}

// laneRows builds n rows over (a INT, b INT, s STRING): NULLs sprinkled
// through a, one FLOAT in a at lane n/2 (the typed column promotes to
// boxed there) and b = 0 in the last row (a / b errs in the last lane).
func laneRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		a := types.NewInt(int64(i % 11))
		switch {
		case i%7 == 3:
			a = types.Null
		case n > 2 && i == n/2:
			a = types.NewFloat(2.5)
		}
		b := int64(i%5 + 1)
		if i == n-1 {
			b = 0
		}
		rows[i] = types.Row{a, types.NewInt(b), types.NewString(fmt.Sprintf("s%d", i%3))}
	}
	return rows
}

// lane is one row's expected outcome.
type lane struct {
	v   types.Value
	err error
}

// sameLanes requires got to agree with want lane for lane.
func sameLanes(t *testing.T, label string, got *Vec, want []lane) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d lanes, want %d", label, got.Len(), len(want))
	}
	for i, w := range want {
		ge := got.Err(i)
		if (ge == nil) != (w.err == nil) || (ge != nil && ge.Error() != w.err.Error()) {
			t.Fatalf("%s lane %d: error %v, want %v", label, i, ge, w.err)
		}
		if ge != nil {
			continue
		}
		if gv := got.Value(i); gv.Kind() != w.v.Kind() || gv.String() != w.v.String() {
			t.Fatalf("%s lane %d: %s(%s), want %s(%s)", label, i, gv.Kind(), gv, w.v.Kind(), w.v)
		}
	}
}

// lanesOf reads a result vector back as lanes.
func lanesOf(v *Vec) []lane {
	out := make([]lane, v.Len())
	for i := range out {
		if out[i].err = v.Err(i); out[i].err == nil {
			out[i].v = v.Value(i)
		}
	}
	return out
}

// oracle evaluates x over rows one row at a time.
func oracle(x sqltext.Expr, rows []types.Row, args []types.Value) []lane {
	out := make([]lane, len(rows))
	for i, r := range rows {
		out[i].v, out[i].err = refEval(x, r, args)
	}
	return out
}

func fillOrAppend(b *Batch, rows []types.Row, fill bool) {
	if fill {
		b.Fill(rows)
		return
	}
	b.Reset()
	for _, r := range rows {
		b.Append(r)
	}
}

// TestLaneSizingMatchesInterpret runs every lane expression against the
// row-at-a-time oracle over batches at and around each allocation size,
// through Fill and through Append, on a fresh machine and on one pooled
// machine that sees all the sizes in turn (so its storage is reused both
// wider and narrower).
func TestLaneSizingMatchesInterpret(t *testing.T) {
	args := []types.Value{types.NewInt(3)}
	for _, src := range laneExprs {
		x := parseExpr(t, src)
		p := Compile(x, testEnv())
		for _, fill := range []bool{true, false} {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1023, 1024} {
				label := fmt.Sprintf("%s n=%d fill=%v", src, n, fill)
				rows := laneRows(n)
				want := oracle(x, rows, args)

				fresh := NewMachine(p)
				fresh.Bind(args, nil)
				b := NewBatch(laneKinds, p.Cols())
				fillOrAppend(b, rows, fill)
				sameLanes(t, label+" fresh", fresh.Eval(b), want)

				pooled := p.Acquire()
				pooled.Bind(args, nil)
				pb := pooled.Batch(laneKinds, p.Cols())
				fillOrAppend(pb, rows, fill)
				sameLanes(t, label+" pooled", pooled.Eval(pb), want)
				pooled.Release()
			}
		}
	}
}

// TestNarrowBatchAfterWideShowsNothingStale drives one machine and one
// batch 1 → 1,024 → 3 → 1,024 lanes. The wide batches set every bool
// lane TRUE, make every a NULL or every division err; the narrow ones
// must show none of it.
func TestNarrowBatchAfterWideShowsNothingStale(t *testing.T) {
	wide := func(a types.Value, b int64) []types.Row {
		rows := make([]types.Row, BatchSize)
		for i := range rows {
			rows[i] = types.Row{a, types.NewInt(b), types.NewString("s1")}
		}
		return rows
	}
	narrow := laneRows(4)[:3] // a = 0, 1, 2.5 (promotes); b = 1, 2, 3: no NULL, no error, mixed truth
	for _, src := range laneExprs {
		x := parseExpr(t, src)
		p := Compile(x, testEnv())
		args := []types.Value{types.NewInt(3)}
		m := p.Acquire()
		m.Bind(args, nil)
		b := m.Batch(laneKinds, p.Cols())
		for step, rows := range [][]types.Row{
			narrow[:1],
			wide(types.NewInt(1), 0), // a<2 TRUE everywhere, a/b errs everywhere
			narrow,
			wide(types.Null, 1), // NULL bits everywhere
			narrow,
			wide(types.NewInt(9), 1), // a>5 AND b<3 TRUE everywhere
			narrow[:1],
		} {
			b.Fill(rows)
			sameLanes(t, fmt.Sprintf("%s step %d (%d lanes)", src, step, len(rows)), m.Eval(b), oracle(x, rows, args))
		}
		m.Release()
	}
}

// TestPooledMachineRebinds takes one machine through statements that
// differ in everything Bind fixes — an INT parameter over a full batch,
// then a STRING one, a missing one and a different IN list over a single
// lane — and requires what a fresh machine computes. A released machine
// must hold nothing of the statement that used it.
func TestPooledMachineRebinds(t *testing.T) {
	x := parseExpr(t, "a + ? > 3 OR a IN (?, 7)")
	p := Compile(x, testEnv())
	binds := []struct {
		args []types.Value
		rows []types.Row
	}{
		{[]types.Value{types.NewInt(2), types.NewInt(0)}, laneRows(BatchSize)},
		{[]types.Value{types.NewString("x"), types.NewInt(0)}, laneRows(1)},
		{[]types.Value{types.NewInt(2)}, laneRows(1)}, // second parameter missing
		{nil, laneRows(1)}, // both missing
		{[]types.Value{types.NewInt(-5), types.NewInt(0)}, laneRows(1)},
	}
	for i, bind := range binds {
		fresh := NewMachine(p)
		fresh.Bind(bind.args, nil)
		fb := NewBatch(laneKinds, p.Cols())
		fb.Fill(bind.rows)
		want := lanesOf(fresh.Eval(fb))

		m := p.Acquire()
		m.Bind(bind.args, nil)
		b := m.Batch(laneKinds, p.Cols())
		b.Fill(bind.rows)
		sameLanes(t, fmt.Sprintf("bind %d", i), m.Eval(b), want)
		m.Release()
		if m.args != nil || m.sub != nil || m.sets[0] != nil {
			t.Fatalf("bind %d: released machine still holds args %v, subquery runner set %v, IN set %v",
				i, m.args, m.sub != nil, m.sets[0])
		}
	}
}

// TestLiteralInSetBuiltOncePerMachine: a list of literals alone is bound
// on a machine's first Bind and survives Release; one that mentions a
// parameter is rebuilt by every Bind.
func TestLiteralInSetBuiltOncePerMachine(t *testing.T) {
	p := compileExprSQL(t, "a IN (1, 2, 3) AND b IN (4, ?)")
	m := NewMachine(p)
	m.Bind([]types.Value{types.NewInt(5)}, nil)
	lit, par := m.sets[0], m.sets[1]
	m.Bind([]types.Value{types.NewInt(6)}, nil)
	if m.sets[0] != lit {
		t.Fatal("literal IN set rebuilt on rebind")
	}
	if m.sets[1] == par || !m.has(m.sets[1], types.NewInt(6)) {
		t.Fatal("parameter IN set not rebuilt on rebind")
	}
	m.Release()
	if m.sets[0] != lit || m.sets[1] != nil {
		t.Fatal("Release must keep the literal set and drop the parameter set")
	}
}

// TestOneRowCostsEightLanes pins the sizing rule itself: nothing is
// allocated before rows arrive, a one-row batch sizes every vector it
// touches to 8 lanes, and a wider batch grows them.
func TestOneRowCostsEightLanes(t *testing.T) {
	p := compileExprSQL(t, "a + 1 > b")
	m := NewMachine(p)
	m.Bind(nil, nil)
	b := m.Batch(laneKinds, p.Cols())
	if got := len(b.cols[0].i64) + len(m.consts[0].i64); got != 0 {
		t.Fatalf("%d lanes allocated before any row", got)
	}
	b.Fill(laneRows(1))
	v := m.Eval(b)
	if len(b.cols[0].i64) != 8 || len(m.consts[0].i64) != 8 || len(v.bs) != 8 || len(v.null) != 1 {
		t.Fatalf("one row: column %d, constant %d, result %d lanes, %d NULL words; want 8, 8, 8, 1",
			len(b.cols[0].i64), len(m.consts[0].i64), len(v.bs), len(v.null))
	}
	b.Fill(laneRows(65))
	v = m.Eval(b)
	if len(b.cols[0].i64) != 128 || len(m.consts[0].i64) != 128 || len(v.bs) != 128 || len(v.null) != 2 {
		t.Fatalf("65 rows: column %d, constant %d, result %d lanes, %d NULL words; want 128, 128, 128, 2",
			len(b.cols[0].i64), len(m.consts[0].i64), len(v.bs), len(v.null))
	}
}

// TestInSetMatchesStringKeys: an IN set holds NumKey values by number
// and the rest by key string; membership equals that of a set keyed by
// types.AppendKey alone, so the split follows the key law — an INT and
// the integral FLOAT of the same number, 0 and −0, every NaN.
func TestInSetMatchesStringKeys(t *testing.T) {
	vals := []types.Value{
		types.NewInt(3), types.NewFloat(3), types.NewFloat(3.5),
		types.NewInt(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(-math.NaN()),
		types.NewInt(1<<53 + 1), types.NewFloat(1 << 53), types.NewFloat(1 << 63),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NewFloat(math.Inf(1)),
		types.NewString("3"), types.NewString(""), types.NewBytes([]byte("3")),
		types.NewBool(true), types.NewInt(1), types.Null,
	}
	m := &Machine{}
	for i := range vals {
		rs, ref := newInSet(1), map[string]bool{}
		for _, v := range vals[:i+1] {
			if v.IsNull() {
				rs.hasNull = true // bind's rule: NULL is never a member
				continue
			}
			rs.add(v)
			ref[string(types.AppendKey(nil, v))] = true
		}
		for _, p := range vals {
			if got, want := m.has(rs, p), ref[string(types.AppendKey(nil, p))]; got != want {
				t.Fatalf("set of %v: %s %v in set %v, string keys say %v", vals[:i+1], p.Kind(), p, got, want)
			}
		}
	}
}
