package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

func (e *Engine) execCreateTable(s *sqltext.CreateTable) (*Result, []ChangeEvent, error) {
	if strings.HasPrefix(strings.ToLower(s.Name), viewBackingPrefix) { // a view's backing table's, and hidden from TableNames
		return nil, nil, fmt.Errorf("engine: table name %q takes the view-backing prefix %q", s.Name, viewBackingPrefix)
	}
	if e.store.Table(s.Name) != nil {
		if s.IfNotExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	if err := e.createTable(catalog.SchemaFromAST(s)); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// createTable adds a table to the store, which checks its schema. The
// name must be free: a table may not take a view's name (nor a view a
// table's, see createView).
func (e *Engine) createTable(schema *catalog.TableSchema) error {
	if e.store.Table(schema.Name) != nil {
		return fmt.Errorf("catalog: table %q already exists", schema.Name)
	}
	if _, ok := e.cat.View(schema.Name); ok {
		return fmt.Errorf("catalog: %q already names a view", schema.Name)
	}
	return e.store.CreateTable(schema)
}

func (e *Engine) execDropTable(s *sqltext.DropTable) (*Result, []ChangeEvent, error) {
	if e.store.Table(s.Name) == nil {
		if s.IfExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Name)
	}
	if v := e.backedView(s.Name); v != nil {
		return nil, nil, fmt.Errorf("engine: table %q backs view %q", s.Name, v.Name)
	}
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: DROP TABLE inside a transaction is not supported")
	}
	if vs := e.views.dependents(s.Name); len(vs) > 0 {
		return nil, nil, fmt.Errorf("engine: table %q is referenced by view %q", s.Name, vs[0].def.Name)
	}
	if err := e.dropTable(s.Name); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// dropTable removes a table from the store, and its triggers with it:
// each trigger's stored definition goes to the log, so replay and
// replicas drop it too, and the catalog forgets it.
func (e *Engine) dropTable(name string) error {
	for _, tg := range e.cat.AllTriggers() {
		if strings.EqualFold(tg.Table, name) {
			if err := e.store.DeleteMeta("trigger", tg.Name); err != nil {
				return err
			}
			e.cat.DropTrigger(tg.Name)
		}
	}
	return e.store.DropTable(name)
}

// execCreateIndex: the index lives in the table's storage, which also
// owns the rule that index names are unique store-wide.
func (e *Engine) execCreateIndex(s *sqltext.CreateIndex) (*Result, []ChangeEvent, error) {
	if _, exists := e.store.NamedIndex(s.Name); exists && s.IfNotExists {
		return &Result{}, nil, nil
	}
	if err := e.store.AddIndex(s.Name, s.Table, s.Columns, s.Unique); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) execCreateTrigger(s *sqltext.CreateTrigger) (*Result, []ChangeEvent, error) {
	// A taken trigger name is reported first, by AddTrigger.
	if _, dup := e.cat.Trigger(s.Name); !dup && e.store.Table(s.Table) == nil {
		return nil, nil, fmt.Errorf("catalog: trigger %q references unknown table %q", s.Name, s.Table)
	}
	if err := e.cat.AddTrigger(&catalog.Trigger{Name: s.Name, Event: s.Event, Table: s.Table, Handler: s.Handler}); err != nil {
		return nil, nil, err
	}
	if err := e.store.PutMeta("trigger", s.Name, s.String()); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// resolveInsertTarget maps the statement's column list to schema positions.
func resolveInsertTarget(schema *catalog.TableSchema, cols []string) ([]int, error) {
	if len(cols) == 0 {
		all := make([]int, len(schema.Columns))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	out := make([]int, len(cols))
	seen := map[int]bool{}
	for i, c := range cols {
		p := schema.ColIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("engine: no column %q in %s", c, schema.Name)
		}
		if seen[p] {
			return nil, fmt.Errorf("engine: duplicate column %q", c)
		}
		seen[p] = true
		out[i] = p
	}
	return out, nil
}

// backedView is the view whose backing table is table, nil when none is.
func (e *Engine) backedView(table string) *catalog.View {
	if v, ok := e.cat.View(strings.TrimPrefix(strings.ToLower(table), viewBackingPrefix)); ok && strings.EqualFold(v.Backing, table) {
		return v
	}
	return nil
}

// writeTarget is the table an INSERT, UPDATE or DELETE writes, action
// naming the statement in the error: a view, a view's backing table (its
// rows are the view's query's, kept by view maintenance alone), a virtual
// table (it shadows any table of its name, so a statement would match
// rows it cannot write) or a name the store does not hold is an error.
func (e *Engine) writeTarget(table, action string) (*catalog.TableSchema, error) {
	if _, isView := e.cat.View(table); isView {
		return nil, fmt.Errorf("engine: cannot %s view %q", action, table)
	}
	if v := e.backedView(table); v != nil {
		return nil, fmt.Errorf("engine: cannot %s table %q: it backs view %q", action, table, v.Name)
	}
	if e.lookupVirtual(table) != nil {
		return nil, fmt.Errorf("engine: cannot %s virtual table %q", action, table)
	}
	t := e.store.Table(table)
	if t == nil {
		return nil, fmt.Errorf("engine: no such table %q", table)
	}
	return t.Schema, nil
}

// mutPlan is an INSERT's, UPDATE's or DELETE's plan: the table it writes
// (writeTarget; err when it cannot), the columns the statement names
// (colErr when one does not exist), and how it finds its rows. An
// INSERT's come from its query, or from its VALUES rows, each either
// read directly or run by its valuesPlan; an UPDATE or DELETE matches
// them in ref through WHERE, and an UPDATE's SET values run over ref's
// layout.
type mutPlan struct {
	table  string // as the statement names it
	schema *catalog.TableSchema
	err    error
	colErr error
	cols   []int // an INSERT's target positions, an UPDATE's assigned ones
	subs   map[*sqltext.Select]*selPlan
	query  *selPlan
	rows   map[int]*projPlan
	ref    fromRef
	where  evalPlan
	set    evalPlan
}

func (pl *planner) mutationPlan(st sqltext.Statement) *mutPlan {
	mp := &mutPlan{subs: pl.subs}
	var action string
	var where sqltext.Expr
	var set []sqltext.Assignment
	switch s := st.(type) {
	case *sqltext.Insert:
		mp.table, action = s.Table, "INSERT into"
	case *sqltext.Update:
		mp.table, action, where, set = s.Table, "UPDATE", s.Where, s.Set
	case *sqltext.Delete:
		mp.table, action, where = s.Table, "DELETE from", s.Where
	}
	if mp.schema, mp.err = pl.e.writeTarget(mp.table, action); mp.err != nil {
		return mp
	}
	if s, ok := st.(*sqltext.Insert); ok {
		if mp.cols, mp.colErr = resolveInsertTarget(mp.schema, s.Columns); s.Query != nil {
			mp.query = pl.selectPlan(s.Query)
		}
		// VALUES rows have no source row; a shaped load's need no plan,
		// and then rows stays nil.
		none := &relation{}
		for i, exprs := range s.Rows {
			if pp := pl.valuesPlan(none, exprs...); pp != nil {
				if mp.rows == nil {
					mp.rows = map[int]*projPlan{}
				}
				mp.rows[i] = pp
			}
		}
		return mp
	}
	mp.cols = make([]int, len(set))
	values := make([]sqltext.Expr, len(set))
	for i, a := range set {
		if mp.cols[i], values[i] = mp.schema.ColIndex(a.Column), a.Value; mp.cols[i] < 0 && mp.colErr == nil {
			mp.colErr = fmt.Errorf("engine: no column %q in %s", a.Column, mp.table)
		}
	}
	// The rows to change are matched through the same planner access
	// paths and pipeline as a SELECT's.
	if mp.ref = pl.resolveRef(sqltext.TableRef{Table: mp.table}, where); mp.ref.err == nil {
		mp.where, mp.set = pl.evalPlan(mp.ref.rel, nil, where), pl.evalPlan(mp.ref.rel, nil, values...)
	}
	return mp
}

func (e *Engine) execInsert(s *sqltext.Insert, mp *mutPlan, args []types.Value) (*Result, []ChangeEvent, error) {
	if err := cmp.Or(mp.err, mp.colErr); err != nil {
		return nil, nil, err
	}
	schema, target := mp.schema, mp.cols

	// The statement's rows are built straight at stored width, before any
	// is stored. stop is the first row's arity or coercion error: the
	// rows before it go to the store as a trial (see Store.InsertRows),
	// which reports a constraint error they meet first.
	var rows []types.Row
	var stop error
	if s.Query != nil {
		res, err := e.evalSelect(mp.query, args, nil, e.writerCtx())
		if err != nil {
			return nil, nil, err
		}
		rows = make([]types.Row, 0, len(res.Rows))
		for _, src := range res.Rows {
			full := make(types.Row, len(schema.Columns))
			if stop = coerceInto(full, src, schema, s.Table, target); stop != nil {
				break
			}
			rows = append(rows, full)
		}
	} else {
		b := e.newBinder(mp.subs, args, e.writerCtx())
		rows = make([]types.Row, 0, len(s.Rows))
		for i, exprs := range s.Rows {
			pp := mp.rows[i]
			if stop != nil {
				// Every row is evaluated before any is stored, so a later
				// row's evaluation error comes first.
				if _, err := e.valuesRow(exprs, pp, b); err != nil {
					return nil, nil, err
				}
				continue
			}
			full := make(types.Row, len(schema.Columns))
			var err error
			if stop, err = e.valuesInto(full, exprs, pp, b, schema, s.Table, target); err != nil {
				return nil, nil, err
			}
			if stop == nil {
				rows = append(rows, full)
			}
		}
	}

	tids, err := e.store.InsertRows(schema.Name, rows, stop)
	if err != nil {
		return nil, nil, err
	}
	if len(tids) == 0 {
		return &Result{}, []ChangeEvent{}, nil
	}
	events, err := e.wrote(undoRun{op: OpInsert, table: schema.Name, tids: tids, newRows: rows})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Affected: len(tids), TIDs: tids}, events, nil
}

// wrote records a statement's set: its undo run, and its change event —
// the run's slices — followed by those of the views its rows change.
func (e *Engine) wrote(u undoRun) ([]ChangeEvent, error) {
	e.undo = append(e.undo, u)
	e.seq++
	ev := ChangeEvent{Seq: e.seq, Table: u.table, Op: u.op, TIDs: u.tids, Rows: u.newRows, OldRows: u.oldRows}
	viewEvents, err := e.views.applyDelta(u.table, u.newRows, u.oldRows)
	if err != nil {
		return nil, err
	}
	return append([]ChangeEvent{ev}, viewEvents...), nil
}

// valuesInto evaluates one VALUES row into full, a stored row of NULLs,
// each cell coerced to its target column's type. A constant cell is
// coerced as it is read. A cell that needs evaluating, a coercion error
// or an arity mismatch sends the whole row down the general path: it is
// evaluated first (err), then checked and coerced in column order
// (stop), which is the order a row-at-a-time insert met them in.
func (e *Engine) valuesInto(full types.Row, exprs []sqltext.Expr, pp *projPlan, b *binder, schema *catalog.TableSchema, table string, target []int) (stop, err error) {
	for i, x := range exprs {
		if v, ok := constVal(x, b.args); ok && i < len(target) {
			if cv, err := v.CoerceTo(schema.Columns[target[i]].Type); err == nil {
				full[target[i]] = cv
				continue
			}
		}
		src, err := e.valuesRow(exprs, pp, b)
		if err != nil {
			return nil, err
		}
		return coerceInto(full, src, schema, table, target), nil
	}
	return arity(table, len(exprs), len(target)), nil
}

// coerceInto stores src, one value per target column, into full, each
// value coerced to its column's type.
func coerceInto(full, src types.Row, schema *catalog.TableSchema, table string, target []int) error {
	if err := arity(table, len(src), len(target)); err != nil {
		return err
	}
	for i, p := range target {
		v, err := src[i].CoerceTo(schema.Columns[p].Type)
		if err != nil {
			return fmt.Errorf("engine: column %s.%s: %w", table, schema.Columns[p].Name, err)
		}
		full[p] = v
	}
	return nil
}

// arity is the error of an INSERT row of n values for cols columns.
func arity(table string, n, cols int) error {
	if n == cols {
		return nil
	}
	return fmt.Errorf("engine: INSERT into %s: %d values for %d columns", table, n, cols)
}

// matchTable collects what an UPDATE or DELETE matches (matchPlan): each
// row's tid, and with values its stored values by reference
// — immutable under MVCC — and returns the binder the match ran in.
func (e *Engine) matchTable(mp *mutPlan, args []types.Value, values bool) (*binder, batch, error) {
	ctx := e.writerCtx()
	src, err := e.open(&mp.ref, args, nil, ctx)
	if err != nil {
		return nil, batch{}, err
	}
	b := e.newBinder(mp.subs, args, ctx)
	var m batch
	if src.tbl == nil { // an index path's candidates: at most these match
		n := len(src.mem.tids)
		m.tids = make([]int64, 0, n)
		if values {
			m.rows = make([]types.Row, 0, n)
		}
	}
	err = e.pipe(b, src, &mp.where, func(s *batch) {
		if values {
			m.rows = append(m.rows, s.rows...)
		}
		m.tids = append(m.tids, s.tids...)
	})
	return b, m, err
}

func (e *Engine) execUpdate(s *sqltext.Update, mp *mutPlan, args []types.Value) (*Result, []ChangeEvent, error) {
	if err := cmp.Or(mp.err, mp.colErr); err != nil {
		return nil, nil, err
	}
	b, matched, err := e.matchTable(mp, args, true)
	if err != nil {
		return nil, nil, err
	}

	// The SET expressions run over batches of the matched rows, each new
	// row a copy of its stored row with the assignments made. A lane
	// error stops the set at the (row, assignment) row-at-a-time
	// evaluation would stop at: the rows before it go to the store as a
	// trial (see Store.UpdateRows), which reports a constraint error they
	// meet first.
	schema, set := mp.schema, b.evaluator(&mp.set)
	rows := make([]types.Row, 0, len(matched.rows))
	stop := matched.chunks(func(c batch) error {
		set.load(e, &c)
		for k, r := range c.rows {
			newRow := slices.Clone(r)
			for i, p := range mp.cols {
				if err := set.vecs[i].Err(k); err != nil {
					return err
				}
				cv, err := set.vecs[i].Value(k).CoerceTo(schema.Columns[p].Type)
				if err != nil {
					return fmt.Errorf("engine: column %s.%s: %w", s.Table, s.Set[i].Column, err)
				}
				newRow[p] = cv
			}
			rows = append(rows, newRow)
		}
		return nil
	})
	tids := matched.tids[:len(rows)]
	old, err := e.store.UpdateRows(schema.Name, tids, rows, stop)
	if err != nil {
		return nil, nil, err
	}
	if len(tids) == 0 {
		return &Result{}, []ChangeEvent{}, nil
	}
	events, err := e.wrote(undoRun{op: OpUpdate, table: schema.Name, tids: tids, oldRows: old, newRows: rows})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Affected: len(tids)}, events, nil
}

func (e *Engine) execDelete(mp *mutPlan, args []types.Value) (*Result, []ChangeEvent, error) {
	if mp.err != nil {
		return nil, nil, mp.err
	}
	_, matched, err := e.matchTable(mp, args, false)
	if err != nil {
		return nil, nil, err
	}
	if len(matched.tids) == 0 {
		return &Result{}, []ChangeEvent{}, nil
	}
	old, err := e.store.DeleteRows(mp.schema.Name, matched.tids)
	if err != nil {
		return nil, nil, err
	}
	events, err := e.wrote(undoRun{op: OpDelete, table: mp.schema.Name, tids: matched.tids, oldRows: old})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Affected: len(matched.tids)}, events, nil
}
