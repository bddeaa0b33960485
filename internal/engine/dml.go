package engine

import (
	"fmt"
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

func (e *Engine) execInsert(s *sqltext.Insert, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot INSERT into view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	target, err := resolveInsertTarget(schema, s.Columns)
	if err != nil {
		return nil, nil, err
	}

	var sourceRows []types.Row
	if s.Query != nil {
		res, err := e.evalSelect(s.Query, args, nil, e.writerCtx())
		if err != nil {
			return nil, nil, err
		}
		sourceRows = res.Rows
	} else {
		b := newBinder(e, args, nil, e.writerCtx())
		for _, exprRow := range s.Rows {
			row, err := e.valuesRow(exprRow, b)
			if err != nil {
				return nil, nil, err
			}
			sourceRows = append(sourceRows, row)
		}
	}

	ev := ChangeEvent{Table: schema.Name, Op: OpInsert}
	for _, src := range sourceRows {
		if len(src) != len(target) {
			return nil, nil, fmt.Errorf("engine: INSERT into %s: %d values for %d columns", s.Table, len(src), len(target))
		}
		full := make(types.Row, len(schema.Columns))
		for i := range full {
			full[i] = types.Null
		}
		for i, p := range target {
			v, err := src[i].CoerceTo(schema.Columns[p].Type)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: column %s.%s: %w", s.Table, schema.Columns[p].Name, err)
			}
			full[p] = v
		}
		tid, created, err := e.store.Insert(schema.Name, full)
		if err != nil {
			return nil, nil, err
		}
		e.undo = append(e.undo, undoEntry{op: OpInsert, table: schema.Name, tid: tid, created: created, newRow: full})
		ev.TIDs = append(ev.TIDs, tid)
		ev.Rows = append(ev.Rows, full)
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, ev.Rows, nil)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs), TIDs: ev.TIDs}, events, nil
}

// matchTable collects the rows of a table that UPDATE/DELETE match —
// each at layout width, its _tid and _created last — through the same
// planner access paths and pipeline as a SELECT, and returns the binder
// over their layout.
func (e *Engine) matchTable(table string, where sqltext.Expr, args []types.Value) (*binder, []types.Row, error) {
	sel := &sqltext.Select{From: &sqltext.TableRef{Table: table}, Where: where}
	rel, src, err := e.buildTableRef(*sel.From, args, nil, sel, e.writerCtx())
	if err != nil {
		return nil, nil, err
	}
	b := newBinder(e, args, rel, e.writerCtx())
	rows, err := e.collect(b, src, where)
	return b, rows, err
}

func (e *Engine) execUpdate(s *sqltext.Update, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot UPDATE view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
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
	b, rows, err := e.matchTable(s.Table, s.Where, args)
	if err != nil {
		return nil, nil, err
	}

	nUser := len(schema.Columns)
	// The SET expressions run over batches of the matched rows. A lane
	// error surfaces in the apply loop, at the (row, assignment)
	// row-at-a-time evaluation would stop at; the rows applied before it
	// are undone with the statement (see execStmt).
	progs := make([]*vm.Program, len(s.Set))
	for i, a := range s.Set {
		progs[i] = e.compiledProg(a.Value, b)
	}
	set := b.evaluator(progs)
	ev := ChangeEvent{Table: schema.Name, Op: OpUpdate}
	err = (&batch{rows: rows}).chunks(func(matched *batch) error {
		set.load(e, matched)
		for k, r := range matched.rows {
			tid := r[nUser].Int() // _tid system column
			oldRow := make(types.Row, nUser)
			copy(oldRow, r[:nUser])
			newRow := make(types.Row, nUser)
			copy(newRow, oldRow)
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
			if _, err := e.store.Update(schema.Name, tid, newRow); err != nil {
				return err
			}
			e.undo = append(e.undo, undoEntry{op: OpUpdate, table: schema.Name, tid: tid, oldRow: oldRow, newRow: newRow})
			ev.TIDs = append(ev.TIDs, tid)
			ev.Rows = append(ev.Rows, newRow)
			ev.OldRows = append(ev.OldRows, oldRow)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, ev.Rows, ev.OldRows)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs)}, events, nil
}

func (e *Engine) execDelete(s *sqltext.Delete, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot DELETE from view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	_, rows, err := e.matchTable(s.Table, s.Where, args)
	if err != nil {
		return nil, nil, err
	}
	nUser := len(schema.Columns)
	ev := ChangeEvent{Table: schema.Name, Op: OpDelete}
	for _, r := range rows {
		tid := r[nUser].Int()
		created := r[nUser+1].Int()
		old, err := e.store.Delete(schema.Name, tid)
		if err != nil {
			return nil, nil, err
		}
		e.undo = append(e.undo, undoEntry{op: OpDelete, table: schema.Name, tid: tid, created: created, oldRow: old})
		ev.TIDs = append(ev.TIDs, tid)
		ev.OldRows = append(ev.OldRows, old)
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, nil, ev.OldRows)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs)}, events, nil
}
