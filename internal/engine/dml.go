package engine

import (
	"fmt"
	"slices"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

func (e *Engine) execCreateTable(s *sqltext.CreateTable) (*Result, []ChangeEvent, error) {
	if _, exists := e.cat.Table(s.Name); exists {
		if s.IfNotExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	schema := catalog.SchemaFromAST(s)
	if err := e.cat.AddTable(schema); err != nil {
		return nil, nil, err
	}
	if err := e.store.CreateTable(schema); err != nil {
		e.cat.DropTable(schema.Name)
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) execDropTable(s *sqltext.DropTable) (*Result, []ChangeEvent, error) {
	if _, exists := e.cat.Table(s.Name); !exists {
		if s.IfExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Name)
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

// dropTable removes a table from the catalog and the store, and with it
// the stored definitions of its triggers: the catalog forgets a dropped
// table's triggers, so their meta entries must go to the log too, or
// replay and replicas would be left with triggers on a table they no
// longer have.
func (e *Engine) dropTable(name string) error {
	for _, tg := range e.cat.AllTriggers() {
		if strings.EqualFold(tg.Table, name) {
			if err := e.store.DeleteMeta("trigger", tg.Name); err != nil {
				return err
			}
		}
	}
	if err := e.cat.DropTable(name); err != nil {
		return err
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

// writeTarget is the table an INSERT, UPDATE or DELETE writes, action
// naming the statement in the error: a view or a name the catalog does
// not hold is an error.
func (e *Engine) writeTarget(table, action string) (*catalog.TableSchema, error) {
	if _, isView := e.cat.View(table); isView {
		return nil, fmt.Errorf("engine: cannot %s view %q", action, table)
	}
	schema, ok := e.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", table)
	}
	return schema, nil
}

func (e *Engine) execInsert(s *sqltext.Insert, args []types.Value) (*Result, []ChangeEvent, error) {
	schema, err := e.writeTarget(s.Table, "INSERT into")
	if err != nil {
		return nil, nil, err
	}
	target, err := resolveInsertTarget(schema, s.Columns)
	if err != nil {
		return nil, nil, err
	}

	// The statement's rows are built straight at stored width, before any
	// is stored. stop is the first row's arity or coercion error: the
	// rows before it go to the store as a trial (see Store.InsertRows),
	// which reports a constraint error they meet first.
	var rows []types.Row
	var stop error
	if s.Query != nil {
		res, err := e.evalSelect(s.Query, args, nil, e.writerCtx())
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
		b := newBinder(e, args, nil, e.writerCtx())
		rows = make([]types.Row, 0, len(s.Rows))
		for _, exprs := range s.Rows {
			if stop != nil {
				// Every row is evaluated before any is stored, so a later
				// row's evaluation error comes first.
				if _, err := e.valuesRow(exprs, b); err != nil {
					return nil, nil, err
				}
				continue
			}
			full := make(types.Row, len(schema.Columns))
			if stop, err = e.valuesInto(full, exprs, b, schema, s.Table, target); err != nil {
				return nil, nil, err
			}
			if stop == nil {
				rows = append(rows, full)
			}
		}
	}

	tids, created, err := e.store.InsertRows(schema.Name, rows, stop)
	if err != nil {
		return nil, nil, err
	}
	if len(tids) == 0 {
		return &Result{}, []ChangeEvent{}, nil
	}
	events, err := e.wrote(undoRun{op: OpInsert, table: schema.Name, tids: tids, created: created, newRows: rows})
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
func (e *Engine) valuesInto(full types.Row, exprs []sqltext.Expr, b *binder, schema *catalog.TableSchema, table string, target []int) (stop, err error) {
	for i, x := range exprs {
		if v, ok := constVal(x, b.args); ok && i < len(target) {
			if cv, err := v.CoerceTo(schema.Columns[target[i]].Type); err == nil {
				full[target[i]] = cv
				continue
			}
		}
		src, err := e.valuesRow(exprs, b)
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

// matchTable collects what UPDATE/DELETE match in a table, through the
// same planner access paths and pipeline as a SELECT: each row's tid and
// _created, and with values its stored values by reference — immutable
// under MVCC — and returns the binder over the table's layout.
func (e *Engine) matchTable(table string, where sqltext.Expr, args []types.Value, values bool) (*binder, batch, error) {
	rel, src, err := e.buildTableRef(sqltext.TableRef{Table: table}, args, nil, where, e.writerCtx())
	if err != nil {
		return nil, batch{}, err
	}
	b := newBinder(e, args, rel, e.writerCtx())
	var m batch
	if src.tbl == nil { // an index path's candidates: at most these match
		n := len(src.mem.tids)
		m.tids, m.created = make([]int64, 0, n), make([]int64, 0, n)
		if values {
			m.rows = make([]types.Row, 0, n)
		}
	}
	err = e.pipe(b, src, where, func(s *batch) {
		if values {
			m.rows = append(m.rows, s.rows...)
		}
		m.tids, m.created = append(m.tids, s.tids...), append(m.created, s.created...)
	})
	return b, m, err
}

func (e *Engine) execUpdate(s *sqltext.Update, args []types.Value) (*Result, []ChangeEvent, error) {
	schema, err := e.writeTarget(s.Table, "UPDATE")
	if err != nil {
		return nil, nil, err
	}
	// Resolve assignment targets.
	setPos := make([]int, len(s.Set))
	for i, a := range s.Set {
		p := schema.ColIndex(a.Column)
		if p < 0 {
			return nil, nil, fmt.Errorf("engine: no column %q in %s", a.Column, s.Table)
		}
		setPos[i] = p
	}
	b, matched, err := e.matchTable(s.Table, s.Where, args, true)
	if err != nil {
		return nil, nil, err
	}

	// The SET expressions run over batches of the matched rows, each new
	// row a copy of its stored row with the assignments made. A lane
	// error stops the set at the (row, assignment) row-at-a-time
	// evaluation would stop at: the rows before it go to the store as a
	// trial (see Store.UpdateRows), which reports a constraint error they
	// meet first.
	progs := make([]*vm.Program, len(s.Set))
	for i, a := range s.Set {
		progs[i] = e.compiledProg(a.Value, b)
	}
	set := b.evaluator(progs)
	rows := make([]types.Row, 0, len(matched.rows))
	stop := matched.chunks(func(c *batch) error {
		set.load(e, c)
		for k, r := range c.rows {
			newRow := slices.Clone(r)
			for i, a := range s.Set {
				if err := set.vecs[i].Err(k); err != nil {
					return err
				}
				cv, err := set.vecs[i].Value(k).CoerceTo(schema.Columns[setPos[i]].Type)
				if err != nil {
					return fmt.Errorf("engine: column %s.%s: %w", s.Table, a.Column, err)
				}
				newRow[setPos[i]] = cv
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

func (e *Engine) execDelete(s *sqltext.Delete, args []types.Value) (*Result, []ChangeEvent, error) {
	schema, err := e.writeTarget(s.Table, "DELETE from")
	if err != nil {
		return nil, nil, err
	}
	_, matched, err := e.matchTable(s.Table, s.Where, args, false)
	if err != nil {
		return nil, nil, err
	}
	if len(matched.tids) == 0 {
		return &Result{}, []ChangeEvent{}, nil
	}
	old, err := e.store.DeleteRows(schema.Name, matched.tids)
	if err != nil {
		return nil, nil, err
	}
	events, err := e.wrote(undoRun{op: OpDelete, table: schema.Name, tids: matched.tids, created: matched.created, oldRows: old})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Affected: len(matched.tids)}, events, nil
}
