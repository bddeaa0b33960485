package engine

import (
	"fmt"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/ivm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// viewState binds a catalog view to its incremental maintainer and
// backing storage table. rowIndex is a multiset index from row-value key
// to the backing tids holding that value, so delta removals are O(1)
// instead of scanning the backing table.
type viewState struct {
	def      *catalog.View
	m        *ivm.Maintainer
	rowIndex map[string][]int64
}

func (v *viewState) indexAdd(row types.Row, tid int64) {
	k := types.RowKey(row)
	v.rowIndex[k] = append(v.rowIndex[k], tid)
}

// indexTake removes and returns one tid holding the given row value.
func (v *viewState) indexTake(row types.Row) (int64, bool) {
	k := types.RowKey(row)
	tids := v.rowIndex[k]
	if len(tids) == 0 {
		return 0, false
	}
	tid := tids[len(tids)-1]
	if len(tids) == 1 {
		delete(v.rowIndex, k)
	} else {
		v.rowIndex[k] = tids[:len(tids)-1]
	}
	return tid, true
}

// viewSet tracks every materialized view and routes base-table deltas to
// the dependent maintainers.
type viewSet struct {
	e     *Engine
	views map[string]*viewState // lower-cased view name
}

func newViewSet(e *Engine) *viewSet {
	return &viewSet{e: e, views: map[string]*viewState{}}
}

func (vs *viewSet) dependents(table string) []*viewState {
	var out []*viewState
	for _, v := range vs.views {
		if v.m.DependsOn(table) {
			out = append(out, v)
		}
	}
	return out
}

const viewBackingPrefix = "__view_"

// execCreateView creates a materialized view: classify with ivm, create
// the backing table, compute initial contents, persist the DDL.
func (e *Engine) execCreateView(s *sqltext.CreateView) (*Result, []ChangeEvent, error) {
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: CREATE VIEW inside a transaction is not supported")
	}
	if err := e.createView(s, true); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// restoreView re-creates view state on open; the backing table already
// exists in the store, so only the maintainer state is rebuilt.
func (e *Engine) restoreView(s *sqltext.CreateView) error {
	return e.createView(s, false)
}

func (e *Engine) createView(s *sqltext.CreateView, fresh bool) error {
	name := s.Name
	if _, dup := e.cat.View(name); dup {
		return fmt.Errorf("engine: view %q already exists", name)
	}
	if _, dup := e.cat.Table(name); dup {
		return fmt.Errorf("engine: %q already names a table", name)
	}
	m, err := ivm.New(name, s.Query, e)
	if err != nil {
		return err
	}
	// Views over views are rejected: incremental deltas only flow from
	// base tables.
	for _, t := range m.Tables() {
		if _, isView := e.cat.View(t); isView {
			return fmt.Errorf("engine: view %q may not reference view %q", name, t)
		}
		if _, ok := e.cat.Table(t); !ok {
			return fmt.Errorf("engine: view %q references unknown table %q", name, t)
		}
	}

	backing := viewBackingPrefix + strings.ToLower(name)
	def := &catalog.View{Name: name, Query: s.Query, Backing: backing}

	if fresh {
		// Infer output column names and create the backing table.
		cols, err := e.viewColumns(s.Query)
		if err != nil {
			return err
		}
		schema := &catalog.TableSchema{Name: backing, Columns: cols}
		if err := e.cat.AddTable(schema); err != nil {
			return err
		}
		if err := e.store.CreateTable(schema); err != nil {
			e.cat.DropTable(backing)
			return err
		}
	} else if _, ok := e.cat.Table(backing); !ok {
		return fmt.Errorf("engine: backing table for view %q missing", name)
	}

	if err := e.cat.AddView(def); err != nil {
		return err
	}

	// Compute initial contents. On restore the backing table already holds
	// the materialized rows, but aggregate maintainers must rebuild their
	// group state; re-materializing from scratch keeps both consistent.
	rows, err := m.Init()
	if err != nil {
		e.cat.DropView(name)
		return err
	}
	// Reset backing contents to exactly `rows`.
	bt := e.store.Table(backing)
	var stale []int64
	for _, r := range bt.Rows() {
		stale = append(stale, r.TID)
	}
	for _, tid := range stale {
		if _, err := e.store.Delete(backing, tid); err != nil {
			return err
		}
	}
	vs := &viewState{def: def, m: m, rowIndex: map[string][]int64{}}
	for _, r := range rows {
		tid, _, err := e.store.Insert(backing, r)
		if err != nil {
			return err
		}
		vs.indexAdd(r, tid)
	}

	e.views.views[strings.ToLower(name)] = vs
	if fresh {
		if err := e.store.PutMeta("view", name, s.String()); err != nil {
			return err
		}
	}
	return nil
}

// execDropView removes a view: catalog entry, maintainer, backing table
// and the persisted DDL.
func (e *Engine) execDropView(s *sqltext.DropView) (*Result, []ChangeEvent, error) {
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: DROP VIEW inside a transaction is not supported")
	}
	v, ok := e.cat.View(s.Name)
	if !ok {
		if s.IfExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: no such view %q", s.Name)
	}
	if err := e.cat.DropView(s.Name); err != nil {
		return nil, nil, err
	}
	delete(e.views.views, strings.ToLower(s.Name))
	if err := e.dropTable(v.Backing); err != nil {
		return nil, nil, err
	}
	if err := e.store.DeleteMeta("view", s.Name); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// viewColumns infers backing-table columns (names and advisory types) for
// a view query.
func (e *Engine) viewColumns(q *sqltext.Select) ([]catalog.Column, error) {
	// Build the source relation's column metadata without materializing
	// rows: reuse buildTableRef against empty overrides is wasteful; here
	// we only need names, so expand stars against catalog schemas.
	var cols []catalog.Column
	seen := map[string]bool{}
	addCol := func(name string, kind types.Kind) error {
		n := strings.ToLower(name)
		if seen[n] {
			return fmt.Errorf("engine: duplicate view column %q (use AS aliases)", name)
		}
		seen[n] = true
		cols = append(cols, catalog.Column{Name: n, Type: kind})
		return nil
	}
	tableSchemas := map[string]*catalog.TableSchema{}
	addTable := func(tr sqltext.TableRef) error {
		if tr.Subquery != nil {
			return fmt.Errorf("engine: view FROM subquery unsupported")
		}
		s, ok := e.cat.Table(tr.Table)
		if !ok {
			return fmt.Errorf("engine: view references unknown table %q", tr.Table)
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Table
		}
		tableSchemas[strings.ToLower(alias)] = s
		return nil
	}
	if q.From != nil {
		if err := addTable(*q.From); err != nil {
			return nil, err
		}
		for _, j := range q.Joins {
			if err := addTable(j.Right); err != nil {
				return nil, err
			}
		}
	}
	inferKind := func(ex sqltext.Expr) types.Kind {
		switch x := ex.(type) {
		case *sqltext.Literal:
			return x.Value.Kind()
		case *sqltext.ColumnRef:
			if x.Table != "" {
				if s, ok := tableSchemas[strings.ToLower(x.Table)]; ok {
					if p := s.ColIndex(x.Column); p >= 0 {
						return s.Columns[p].Type
					}
				}
				return types.KindString
			}
			for _, s := range tableSchemas {
				if p := s.ColIndex(x.Column); p >= 0 {
					return s.Columns[p].Type
				}
			}
			return types.KindString
		case *sqltext.FuncCall:
			switch strings.ToUpper(x.Name) {
			case "COUNT":
				return types.KindInt
			case "AVG":
				return types.KindFloat
			case "SUM", "MIN", "MAX":
				if len(x.Args) == 1 {
					// recurse on the argument
					if cr, ok := x.Args[0].(*sqltext.ColumnRef); ok {
						for _, s := range tableSchemas {
							if p := s.ColIndex(cr.Column); p >= 0 {
								return s.Columns[p].Type
							}
						}
					}
				}
				return types.KindFloat
			}
			return types.KindString
		case *sqltext.Binary:
			return types.KindFloat
		}
		return types.KindString
	}
	for _, it := range q.Items {
		if it.Star {
			qual := strings.ToLower(it.Table)
			matched := false
			for alias, s := range tableSchemas {
				if qual != "" && alias != qual {
					continue
				}
				matched = true
				for _, c := range s.Columns {
					if err := addCol(c.Name, c.Type); err != nil {
						return nil, err
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("engine: view * expansion failed for %q", it.Table)
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*sqltext.ColumnRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("col%d", len(cols)+1)
			}
		}
		if err := addCol(name, inferKind(it.Expr)); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// applyDelta routes a base-table change to every dependent view, applies
// the computed deltas to the backing tables, and returns view-level change
// events (so the notification layer covers views too).
func (vs *viewSet) applyDelta(table string, inserted, deleted []types.Row) ([]ChangeEvent, error) {
	var events []ChangeEvent
	for _, v := range vs.views {
		if !v.m.DependsOn(table) {
			continue
		}
		adds, removes, err := v.m.Delta(table, inserted, deleted)
		if err != nil {
			return nil, fmt.Errorf("engine: maintaining view %s: %w", v.def.Name, err)
		}
		// Net out view rows that are both removed and re-added by the same
		// batch (an update leaving some output rows unchanged): no backing
		// churn, no event rows, and the mirror never sees a phantom flap.
		adds, removes, _ = ivm.NetDelta(adds, removes)
		if len(adds) == 0 && len(removes) == 0 {
			continue
		}
		ev := ChangeEvent{Table: v.def.Name, Op: OpUpdate}
		for _, rm := range removes {
			// Remove one matching row per delta row (multiset semantics);
			// the row index finds a victim tid in O(1).
			tid, found := v.indexTake(rm)
			if !found {
				return nil, fmt.Errorf("engine: view %s: stale delta (row to remove not found)", v.def.Name)
			}
			if _, err := vs.e.store.Delete(v.def.Backing, tid); err != nil {
				return nil, err
			}
			ev.TIDs = append(ev.TIDs, tid)
			ev.OldRows = append(ev.OldRows, rm)
		}
		for _, add := range adds {
			tid, _, err := vs.e.store.Insert(v.def.Backing, add)
			if err != nil {
				return nil, err
			}
			v.indexAdd(add, tid)
			ev.TIDs = append(ev.TIDs, tid)
			ev.Rows = append(ev.Rows, add)
		}
		vs.e.seq++
		ev.Seq = vs.e.seq
		events = append(events, ev)
	}
	return events, nil
}
