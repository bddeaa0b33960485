// Package ivm implements incremental maintenance of materialized views,
// the mechanism §VI-B of the paper relies on to "propagate an update to a
// query expression ... using well-known incremental view maintenance
// algorithms" [Gupta, Mumick, Subrahmanian].
//
// Two view classes are maintained incrementally:
//
//   - delta-query views (select-project and joins without aggregation):
//     the insert delta is the view query evaluated with the changed table
//     restricted to the inserted rows; symmetrically for deletes. Each
//     base table may appear at most once in the FROM clause.
//
//   - aggregate views (single-table GROUP BY, items and HAVING any
//     expression over GROUP BY expressions and aggregates): the query's
//     own fold, supplied by the Evaluator, run with signed weights — a
//     delta is a multiset of rows weighted +1 (inserted) or −1 (deleted),
//     as in DBSP [Budiu et al., VLDB 2023]. COUNT, SUM and AVG subtract;
//     MIN/MAX and DISTINCT items keep counted value sets, so no delete
//     re-queries the base table.
//
// Neither class may read a subquery: its result would change with tables
// the view does not watch.
//
// The package is engine-agnostic: the engine supplies an Evaluator.
package ivm

import (
	"fmt"
	"strings"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// Evaluator is the query-evaluation capability the maintainer borrows
// from the engine.
type Evaluator interface {
	// EvalWith evaluates sel, with each table named in overrides replaced
	// by the given rows (user columns only, in schema order). A nil map
	// evaluates against current table contents.
	EvalWith(sel *sqltext.Select, overrides map[string][]types.Row) ([]types.Row, error)
	// Fold compiles a single-table aggregate query into an empty fold of
	// its base table's rows, or refuses the query.
	Fold(sel *sqltext.Select) (Fold, error)
}

// Fold is an aggregate query's fold over its base table.
type Fold interface {
	// Apply folds base rows in (inserted, weight +1) and out (deleted,
	// weight −1) and returns the output rows that joined and left the
	// query's result. All or nothing: an error leaves the fold as it was.
	Apply(inserted, deleted []types.Row) (adds, removes []types.Row, err error)
}

// Class describes how a view is maintained.
type Class int

// Maintenance classes.
const (
	ClassDeltaQuery Class = iota // SP / join views, delta substitution
	ClassAggregate               // single-table GROUP BY, signed fold
)

func (c Class) String() string {
	if c == ClassAggregate {
		return "aggregate"
	}
	return "delta-query"
}

// Maintainer incrementally maintains one materialized view.
type Maintainer struct {
	Name  string
	Query *sqltext.Select
	class Class
	ev    Evaluator

	baseTables map[string]bool // lower-cased FROM tables
	table      string          // aggregate: the single FROM table
	fold       Fold            // aggregate: the query's fold
}

// New classifies the view query and returns a maintainer.
func New(name string, q *sqltext.Select, ev Evaluator) (*Maintainer, error) {
	m := &Maintainer{Name: name, Query: q, ev: ev, baseTables: map[string]bool{}}
	if q.From == nil {
		return nil, fmt.Errorf("ivm: view %s has no FROM clause", name)
	}
	if q.OrderBy != nil || q.Limit != nil || q.Offset != nil {
		return nil, fmt.Errorf("ivm: view %s: ORDER BY/LIMIT not allowed in materialized views", name)
	}
	if hasSubquery(q) {
		return nil, fmt.Errorf("ivm: view %s: subqueries are not incrementally maintainable", name)
	}
	hasAgg, star := len(q.GroupBy) > 0, false
	for i, it := range q.Items {
		star = star || it.Star
		hasAgg = hasAgg || !it.Star && sqltext.HasAggregate(&q.Items[i].Expr)
	}
	if !hasAgg {
		switch {
		case q.Distinct:
			return nil, fmt.Errorf("ivm: view %s: DISTINCT requires aggregation support; use GROUP BY", name)
		case q.Having != nil:
			return nil, fmt.Errorf("ivm: view %s: HAVING without aggregation", name)
		}
		// Delta-query class: collect base tables, each at most once.
		if err := m.collectTables(q); err != nil {
			return nil, err
		}
		m.class = ClassDeltaQuery
		return m, nil
	}
	// Aggregate class.
	switch {
	case len(q.Joins) > 0 || q.From.Subquery != nil:
		return nil, fmt.Errorf("ivm: view %s: aggregates over joins are not incrementally maintainable here", name)
	case q.Distinct:
		return nil, fmt.Errorf("ivm: view %s: DISTINCT with aggregates unsupported", name)
	case star:
		return nil, fmt.Errorf("ivm: view %s: * not allowed with GROUP BY", name)
	}
	f, err := ev.Fold(q)
	if err != nil {
		return nil, fmt.Errorf("ivm: view %s: %w", name, err)
	}
	m.class, m.fold = ClassAggregate, f
	m.table = strings.ToLower(q.From.Table)
	m.baseTables[m.table] = true
	return m, nil
}

// hasSubquery reports whether any expression of q holds a scalar, EXISTS
// or IN subquery.
func hasSubquery(q *sqltext.Select) bool {
	found := false
	q.Exprs(func(p *sqltext.Expr) {
		sqltext.WalkExpr(p, func(p *sqltext.Expr) bool {
			in, isIn := (*p).(*sqltext.InExpr)
			_, isSub := (*p).(*sqltext.Subquery)
			_, isExists := (*p).(*sqltext.Exists)
			found = found || isSub || isExists || isIn && in.Query != nil
			return !found
		})
	})
	return found
}

func (m *Maintainer) collectTables(q *sqltext.Select) error {
	add := func(tr sqltext.TableRef) error {
		if tr.Subquery != nil {
			return fmt.Errorf("ivm: view %s: subqueries in FROM are not incrementally maintainable", m.Name)
		}
		k := strings.ToLower(tr.Table)
		if m.baseTables[k] {
			return fmt.Errorf("ivm: view %s: table %s appears more than once (self-join)", m.Name, tr.Table)
		}
		m.baseTables[k] = true
		return nil
	}
	if err := add(*q.From); err != nil {
		return err
	}
	for _, j := range q.Joins {
		if j.Kind == "LEFT" {
			return fmt.Errorf("ivm: view %s: LEFT JOIN views are not incrementally maintainable", m.Name)
		}
		if err := add(j.Right); err != nil {
			return err
		}
	}
	return nil
}

// Class reports the maintenance class.
func (m *Maintainer) Class() Class { return m.class }

// DependsOn reports whether the view reads the given base table.
func (m *Maintainer) DependsOn(table string) bool {
	return m.baseTables[strings.ToLower(table)]
}

// Tables returns the base tables the view depends on.
func (m *Maintainer) Tables() []string {
	var out []string
	for t := range m.baseTables {
		out = append(out, t)
	}
	return out
}

// Init computes the full view contents and primes internal state: an
// aggregate view starts a fresh fold and folds the whole table in.
func (m *Maintainer) Init() ([]types.Row, error) {
	if m.class == ClassDeltaQuery {
		return m.ev.EvalWith(m.Query, nil)
	}
	f, err := m.ev.Fold(m.Query)
	var rows, adds []types.Row
	if err == nil {
		rows, err = m.ev.EvalWith(&sqltext.Select{Items: []sqltext.SelectItem{{Star: true}}, From: &sqltext.TableRef{Table: m.table}}, nil)
	}
	if err == nil {
		adds, _, err = f.Apply(rows, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("ivm: view %s: %w", m.Name, err)
	}
	m.fold = f
	return adds, nil
}

// Delta ingests a change to a base table and returns the rows to add to
// and remove from the materialized contents. Updates are passed as
// (inserted = new rows, deleted = old rows). The two sides may describe a
// whole commit batch: rows inserted and deleted within the same batch are
// cancelled pairwise (NetDelta) before maintenance, so a row that never
// outlives its batch contributes nothing. An error leaves the view's
// state as it was.
func (m *Maintainer) Delta(table string, inserted, deleted []types.Row) (adds, removes []types.Row, err error) {
	if !m.DependsOn(table) {
		return nil, nil, nil
	}
	_, inserted, _, deleted, _ = NetDelta(nil, inserted, nil, deleted)
	if m.class == ClassAggregate {
		if adds, removes, err = m.fold.Apply(inserted, deleted); err != nil {
			return nil, nil, fmt.Errorf("ivm: view %s: %w", m.Name, err)
		}
		return adds, removes, nil
	}
	if len(inserted) > 0 {
		if adds, err = m.ev.EvalWith(m.Query, map[string][]types.Row{table: inserted}); err != nil {
			return nil, nil, err
		}
	}
	if len(deleted) > 0 {
		if removes, err = m.ev.EvalWith(m.Query, map[string][]types.Row{table: deleted}); err != nil {
			return nil, nil, err
		}
	}
	// An update leaving output rows unchanged removes and re-adds them: no
	// backing churn, no phantom flap. (A fold reports only changed rows.)
	_, adds, _, removes, _ = NetDelta(nil, adds, nil, removes)
	return adds, removes, nil
}

// NetDelta cancels rows that appear in both the inserted and deleted
// multisets of one batch delta: each deleted row annihilates one
// value-equal (types.AppendRowKey) inserted row, earlier or later in the
// batch — the surviving rows equal the net effect, if not always the
// same occurrences. Tuple ids are optional: insT and delT, when given,
// run parallel to their rows and stay aligned with the survivors.
// Returns the net sides, in input order, and the number of cancelled
// pairs.
func NetDelta(insT []int64, ins []types.Row, delT []int64, del []types.Row) ([]int64, []types.Row, []int64, []types.Row, int) {
	if len(ins) == 0 || len(del) == 0 {
		return insT, ins, delT, del, 0
	}
	// Each distinct deleted row has a counter, at[key]: pending counts
	// its deleted rows not yet matched, consumed those an insert
	// cancelled. The counters are slices so a count moves without a
	// map write, which would allocate the key.
	at := make(map[string]int, len(del))
	var pending []int
	var kb []byte
	for _, r := range del {
		kb = types.AppendRowKey(kb[:0], r)
		c, ok := at[string(kb)]
		if !ok {
			c = len(pending)
			at[string(kb)] = c
			pending = append(pending, 0)
		}
		pending[c]++
	}
	consumed := make([]int, len(pending))
	var nIT, nDT []int64
	nI := make([]types.Row, 0, len(ins))
	for i, r := range ins {
		kb = types.AppendRowKey(kb[:0], r)
		if c, ok := at[string(kb)]; ok && pending[c] > 0 {
			pending[c]--
			consumed[c]++
			continue
		}
		nI = append(nI, r)
		if i < len(insT) {
			nIT = append(nIT, insT[i])
		}
	}
	cancelled := len(ins) - len(nI)
	if cancelled == 0 {
		return insT, ins, delT, del, 0
	}
	nD := make([]types.Row, 0, len(del)-cancelled)
	for i, r := range del {
		kb = types.AppendRowKey(kb[:0], r)
		if c := at[string(kb)]; consumed[c] > 0 {
			consumed[c]--
			continue
		}
		nD = append(nD, r)
		if i < len(delT) {
			nDT = append(nDT, delT[i])
		}
	}
	return nIT, nI, nDT, nD, cancelled
}
