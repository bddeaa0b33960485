package engine

import (
	"strings"
	"testing"

	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// TestExplainPrintsExecutorPlan: EXPLAIN prints the plan the executor
// runs. A join whose right side has an index over the join key probes
// it and never scans that side; a query with HAVING alone runs as an
// aggregate fold, which compiles no projection.
func TestExplainPrintsExecutorPlan(t *testing.T) {
	e := newTestDB(t)
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE emails (uid INT, addr STRING UNIQUE)")
	mustExec(t, e, "INSERT INTO emails (uid, addr) VALUES (1, 'a@x'), (1, 'a2@x'), (3, 'c@x'), (9, 'z@x'), (NULL, 'n@x')")

	const join = "SELECT u.name, m.addr FROM users u JOIN emails m ON u.id = m.uid"
	wantLine(t, explainLines(t, e, join), "scan m: full-scan")
	mustExec(t, e, "CREATE INDEX ix_uid ON emails (uid)")
	lines := explainLines(t, e, join)
	wantLine(t, lines, "scan m: probe(ix_uid)")
	wantLine(t, lines, "join m: hash-join")
	s0 := e.mRowsScanned.Value()
	if res := mustExec(t, e, join); len(res.Rows) != 3 {
		t.Fatalf("probed join: %d rows, want 3", len(res.Rows))
	}
	if got := e.mRowsScanned.Value() - s0; got != 5+3 {
		t.Fatalf("probed join scanned %d rows, want 5 users + 3 probe finds", got)
	}
	wantLine(t, explainLines(t, e, "SELECT * FROM users u LEFT JOIN emails m ON m.uid = u.id"), "scan m: probe(ix_uid)")
	mustExec(t, e, "SELECT * FROM users u LEFT JOIN emails m ON m.uid = u.id")

	const having = "SELECT 1 FROM users HAVING COUNT(*) > 1"
	for _, l := range explainLines(t, e, having) {
		if l == "project: compiled" {
			t.Fatalf("%s: aggregate fold printed as %q", having, l)
		}
	}
	mustExec(t, e, having)
}

// explained, while TestExplainMatchesExecution drives a suite, checks
// every EXPLAIN the suite runs against a run of the statement it
// explains (execSQL).
var explained *explainRun

type explainRun struct {
	checked map[string]int // statements checked, by the path that bounds them
	skipped int
}

// TestExplainMatchesExecution runs the corpus suites with each EXPLAIN
// followed by the statement it explains — an UPDATE or DELETE inside a
// transaction rolled back — and checks that the statement scans only
// what the printed plan allows: a full-scan every live row of its
// table, a pk-point, unique-point or index(…) path at most its
// candidates, and a join whose right side is probed its left side plus
// the rows its probes find.
func TestExplainMatchesExecution(t *testing.T) {
	x := &explainRun{checked: map[string]int{}}
	explained = x
	defer func() { explained = nil }()
	for _, s := range corpusSuites {
		t.Run(s.name, s.run)
	}
	t.Logf("checked %v, skipped %d", x.checked, x.skipped)
	for _, path := range []string{"full-scan", "point", "probe"} {
		if x.checked[path] == 0 {
			t.Errorf("no EXPLAIN with a %s path was checked", path)
		}
	}
}

// check runs the statement an EXPLAIN printed lines for. Statements of
// other shapes are skipped: those with a subquery, a virtual table, more
// than one join, or a parameter EXPLAIN ran without an argument for.
func (x *explainRun) check(t testing.TB, e *Engine, sql string, args []types.Value, res *Result) {
	text, ok := strings.CutPrefix(sql, "EXPLAIN ")
	if !ok {
		return
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].String())
	}
	st, err := sqltext.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	var refs []sqltext.TableRef
	var where, on sqltext.Expr
	switch s := st.(type) {
	case *sqltext.Select:
		if s.From != nil {
			refs, where = []sqltext.TableRef{*s.From}, s.Where
		}
		for _, j := range s.Joins {
			refs, on = append(refs, j.Right), j.On
		}
	case *sqltext.Update:
		refs, where = []sqltext.TableRef{{Table: s.Table}}, s.Where
	case *sqltext.Delete:
		refs, where = []sqltext.TableRef{{Table: s.Table}}, s.Where
	}
	paths := make([]string, len(refs))
	for i, tr := range refs {
		for _, l := range lines {
			if _, p, ok := strings.Cut(l, " "+refName(tr)+": "); ok && !strings.HasPrefix(l, " ") && !strings.HasPrefix(l, "join") {
				paths[i] = p
			}
		}
	}
	if len(refs) == 0 || len(refs) > 2 || strings.Count(strings.ToUpper(text), "SELECT") > 1 ||
		strings.Contains(text, "?") && len(args) == 0 || strings.Contains(strings.Join(paths, " "), "virtual") {
		x.skipped++
		return
	}

	left := liveRows(e, refs[0])
	kind, want, atMost := "full-scan", len(left), false
	switch {
	case len(refs) == 2 && strings.HasPrefix(paths[1], "probe("):
		ix := strings.TrimSuffix(strings.TrimPrefix(paths[1], "probe("), ")")
		kind, want = "probe", want+probeFinds(t, e, refs, on, ix, left)
	case len(refs) == 2:
		want += len(liveRows(e, refs[1]))
	case !strings.HasPrefix(paths[0], "full-scan"):
		kind, want, atMost = "point", candidates(e, refs[0], where, args, paths[0], left), true
	}

	if _, isSelect := st.(*sqltext.Select); !isSelect {
		mustExec(t, e, "BEGIN")
		defer mustExec(t, e, "ROLLBACK")
	}
	s0 := e.mRowsScanned.Value()
	if _, err := e.Exec(text, args...); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	scanned := e.mRowsScanned.Value() - s0
	if scanned != int64(want) && !(atMost && scanned < int64(want)) {
		t.Errorf("%s: printed %q, scanned %d rows; the %s path allows %d", text, lines, scanned, kind, want)
	}
	x.checked[kind]++
}

// baseTable is the stored table a FROM entry names, a view's backing one.
func baseTable(e *Engine, tr sqltext.TableRef) *storage.Table {
	name := tr.Table
	if v, ok := e.cat.View(name); ok {
		name = v.Backing
	}
	return e.store.Table(name)
}

// liveRows is every live row of the entry's table.
func liveRows(e *Engine, tr sqltext.TableRef) []storage.StoredRow {
	var rows []storage.StoredRow
	for it := baseTable(e, tr).Iterate(storage.SeqLatest); ; {
		sr, more := it.Next()
		if !more {
			return rows
		}
		rows = append(rows, sr)
	}
}

// probeFinds counts the right rows each left row's probe of index ix
// finds: those whose key columns equal, non-NULL, the left columns the
// ON equalities pair them with.
func probeFinds(t testing.TB, e *Engine, refs []sqltext.TableRef, on sqltext.Expr, ix string, left []storage.StoredRow) int {
	lt, rt := baseTable(e, refs[0]), baseTable(e, refs[1])
	var info *storage.IndexInfo
	for _, x := range rt.Indexes() {
		if x.Name == ix {
			info = x
		}
	}
	if info == nil {
		t.Fatalf("probe(%s): no such index on %s", ix, refs[1].Table)
	}
	// side reports which entry a column reference reads and its position.
	side := func(cr *sqltext.ColumnRef) (int, int) {
		for i, tr := range refs {
			name := strings.ToLower(tr.Alias)
			if name == "" {
				name = strings.ToLower(tr.Table)
			}
			if cr.Table != "" && !strings.EqualFold(cr.Table, name) {
				continue
			}
			if p := []*storage.Table{lt, rt}[i].Schema.ColIndex(cr.Column); p >= 0 {
				return i, p
			}
		}
		return -1, -1
	}
	feed := map[int]int{} // right column → the left column it equals
	for _, c := range andConjuncts(on) {
		if b, ok := c.(*sqltext.Binary); ok && b.Op == "=" {
			l, lok := b.L.(*sqltext.ColumnRef)
			r, rok := b.R.(*sqltext.ColumnRef)
			if !lok || !rok {
				continue
			}
			ls, lp := side(l)
			rs, rp := side(r)
			switch {
			case ls == 0 && rs == 1:
				feed[rp] = lp
			case ls == 1 && rs == 0:
				feed[lp] = rp
			}
		}
	}
	right := liveRows(e, refs[1])
	n := 0
	for _, lr := range left {
	pairs:
		for _, rr := range right {
			for _, c := range info.Cols {
				lc, ok := feed[c]
				if !ok {
					t.Fatalf("probe(%s): column %d is not a join key", ix, c)
				}
				if lr.Values[lc].IsNull() || !sameValue(lr.Values[lc], rr.Values[c]) {
					continue pairs
				}
			}
			n++
		}
	}
	return n
}

// candidates counts the live rows a point or index path may fetch: rows
// whose every key column, of an index the path names, equals a constant
// that WHERE's top-level = or IN conjuncts compare that column with. A
// pk-point names the primary key and _tid, a unique-point every column
// UNIQUE, index(name) the index.
func candidates(e *Engine, tr sqltext.TableRef, where sqltext.Expr, args []types.Value, path string, rows []storage.StoredRow) int {
	tbl := baseTable(e, tr)
	consts := map[int][]types.Value{} // column (tidCol for _tid) → constants
	col := func(x sqltext.Expr) (int, bool) {
		cr, ok := x.(*sqltext.ColumnRef)
		if !ok {
			return 0, false
		}
		if strings.EqualFold(cr.Column, "_tid") {
			return tidCol, true
		}
		p := tbl.Schema.ColIndex(cr.Column)
		return p, p >= 0
	}
	add := func(c int, xs ...sqltext.Expr) {
		for _, x := range xs {
			if v, ok := constVal(x, args); ok {
				consts[c] = append(consts[c], v)
			}
		}
	}
	for _, c := range andConjuncts(where) {
		switch x := c.(type) {
		case *sqltext.Binary:
			if x.Op != "=" {
				continue
			}
			if c, ok := col(x.L); ok {
				add(c, x.R)
			} else if c, ok := col(x.R); ok {
				add(c, x.L)
			}
		case *sqltext.InExpr:
			if c, ok := col(x.X); ok && !x.Not && x.Query == nil {
				add(c, x.List...)
			}
		}
	}
	var keys [][]int // the key columns of each index the path names
	for _, ix := range tbl.Indexes() {
		if path == "pk-point" && ix.Origin == storage.OriginPK ||
			path == "unique-point" && ix.Origin == storage.OriginColumn ||
			path == "index("+ix.Name+")" {
			keys = append(keys, ix.Cols)
		}
	}
	if path == "pk-point" {
		keys = append(keys, []int{tidCol})
	}
	hit := func(c int, v types.Value) bool {
		for _, k := range consts[c] {
			if !v.IsNull() && sameValue(v, k) {
				return true
			}
		}
		return false
	}
	n := 0
	for _, sr := range rows {
		for _, cols := range keys {
			all := true
			for _, c := range cols {
				v := types.NewInt(sr.TID)
				if c != tidCol {
					v = sr.Values[c]
				}
				all = all && hit(c, v)
			}
			if all {
				n++
				break
			}
		}
	}
	return n
}

// sameValue reports whether two values compare equal.
func sameValue(a, b types.Value) bool {
	c, err := types.Compare(a, b)
	return err == nil && c == 0
}
