// Package isolation implements §VI-A of the paper: time-based isolation
// of process instances through creation timestamps and deferred deletion
// through per-relation deletion tables (R∆) plus query rewriting.
//
// Every stored tuple carries `_created`, a monotonic stamp: its tid. A
// process instance takes a snapshot stamp when it starts; its queries are
// rewritten to see only tuples with `_created <= snapshot` — the paper's
// default behavior ("each process operates on exactly the data which was
// available when the process started").
//
// Deletions performed by a process instance p go to the deletion table
// R∆(tid, t_del, pid, process_end) instead of physically removing rows.
// Queries of p are rewritten with
//
//	_tid NOT IN (SELECT tid FROM R∆ WHERE pid = p)
//
// so p sees its own deletes, while concurrently running instances keep
// seeing the rows. Instances started after a deleting process ended are
// rewritten with
//
//	_tid NOT IN (SELECT tid FROM R∆ WHERE process_end <= t0)
//
// Physical deletion happens when the wait-set drains: once no running
// instance started before the deleting instance's end, the tuples and
// their R∆ rows are removed.
package isolation

import (
	"fmt"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/database"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// DeletionTablePrefix prefixes per-relation deletion tables.
const DeletionTablePrefix = "ef_del_"

// DeletionTable names the R∆ table of a relation.
func DeletionTable(rel string) string { return DeletionTablePrefix + strings.ToLower(rel) }

// Manager owns deletion tables and query rewriting for one database.
type Manager struct {
	db *database.DB
}

// New returns a manager over db.
func New(db *database.DB) *Manager { return &Manager{db: db} }

// EnsureDeletionTable creates R∆ for a relation if missing.
func (m *Manager) EnsureDeletionTable(rel string) error {
	_, err := m.db.Exec(fmt.Sprintf(
		"CREATE TABLE IF NOT EXISTS %s (tid INT NOT NULL, t_del INT NOT NULL, pid INT NOT NULL, process_end INT)",
		DeletionTable(rel)))
	return err
}

// LogicalDelete records, for process instance pid, the deletion of the
// tuples del would remove, without physically removing them, in one
// INSERT … SELECT into R∆ that skips the tuples pid already deleted. args
// bind del's parameters. It returns the number of tuples logically
// deleted.
func (m *Manager) LogicalDelete(del *sqltext.Delete, pid int64, args ...types.Value) (int, error) {
	if !m.hasDeletionTable(del.Table) {
		if err := m.EnsureDeletionTable(del.Table); err != nil {
			return 0, err
		}
	}
	st, err := sqltext.Parse(fmt.Sprintf(
		"INSERT INTO %[1]s (tid, t_del, pid, process_end) SELECT %[2]s, %[3]d, %[4]d, NULL FROM %[5]s WHERE %[2]s NOT IN (SELECT tid FROM %[1]s WHERE pid = %[4]d)",
		DeletionTable(del.Table), catalog.SysTID, m.db.Store().CurrentStamp(), pid, del.Table))
	if err != nil {
		return 0, err
	}
	if sel := st.(*sqltext.Insert).Query; del.Where != nil {
		sel.Where = &sqltext.Binary{Op: "AND", L: del.Where, R: sel.Where}
	}
	res, err := m.db.ExecStmt(st, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

func intLit(n int64) sqltext.Expr { return &sqltext.Literal{Value: types.NewInt(n)} }

// hasDeletionTable reports whether rel has an R∆ table.
func (m *Manager) hasDeletionTable(rel string) bool {
	return m.db.Store().Table(DeletionTable(rel)) != nil
}

// Restrict rewrites st in place so that each of its queries, nested
// ones included, reads only what process instance pid with the given
// snapshot stamp may see per §VI-A. managed lists the application
// relations subject to isolation (lower-cased). A restricted relation's
// predicate goes to its query's WHERE, unless the relation is the right
// side of a LEFT JOIN: there it joins that join's ON, so unmatched left
// rows still appear.
func (m *Manager) Restrict(st sqltext.Statement, pid, snapshot int64, managed map[string]bool) {
	and := func(p *sqltext.Expr, conds []sqltext.Expr) {
		for _, c := range conds {
			if *p == nil {
				*p = c
			} else {
				*p = &sqltext.Binary{Op: "AND", L: *p, R: c}
			}
		}
	}
	sqltext.Queries(st, func(sel *sqltext.Select) {
		var where []sqltext.Expr
		if sel.From != nil {
			where = m.visible(where, sel.From, pid, snapshot, managed)
		}
		for i := range sel.Joins {
			if j := &sel.Joins[i]; j.Kind == "LEFT" {
				and(&j.On, m.visible(nil, &j.Right, pid, snapshot, managed))
			} else {
				where = m.visible(where, &j.Right, pid, snapshot, managed)
			}
		}
		and(&sel.Where, where)
	})
}

// visible appends to preds the conditions under which a row of the base
// table tr names is visible to the instance: created no later than the
// snapshot and, when the relation has an R∆, not deleted by pid nor by
// an instance that ended by the snapshot.
func (m *Manager) visible(preds []sqltext.Expr, tr *sqltext.TableRef, pid, snapshot int64, managed map[string]bool) []sqltext.Expr {
	rel := strings.ToLower(tr.Table)
	if tr.Subquery != nil || !managed[rel] {
		return preds
	}
	qual := tr.Alias
	if qual == "" {
		qual = tr.Table
	}
	preds = append(preds, &sqltext.Binary{
		Op: "<=",
		L:  &sqltext.ColumnRef{Table: qual, Column: catalog.SysCreated},
		R:  intLit(snapshot),
	})
	if !m.hasDeletionTable(rel) {
		return preds
	}
	return append(preds, &sqltext.InExpr{
		X:   &sqltext.ColumnRef{Table: qual, Column: catalog.SysTID},
		Not: true,
		Query: &sqltext.Select{
			Items: []sqltext.SelectItem{{Expr: &sqltext.ColumnRef{Column: "tid"}}},
			From:  &sqltext.TableRef{Table: DeletionTable(rel)},
			Where: &sqltext.Binary{
				Op: "OR",
				L:  &sqltext.Binary{Op: "=", L: &sqltext.ColumnRef{Column: "pid"}, R: intLit(pid)},
				R: &sqltext.Binary{
					Op: "AND",
					L:  &sqltext.IsNull{X: &sqltext.ColumnRef{Column: "process_end"}, Not: true},
					R:  &sqltext.Binary{Op: "<=", L: &sqltext.ColumnRef{Column: "process_end"}, R: intLit(snapshot)},
				},
			},
		},
	})
}

// FinishProcess stamps process_end on the instance's pending deletions and
// garbage-collects whatever became safe.
func (m *Manager) FinishProcess(pid int64) error {
	end := m.db.Store().CurrentStamp()
	for _, tbl := range m.deletionTables() {
		if _, err := m.db.Exec(
			fmt.Sprintf("UPDATE %s SET process_end = ? WHERE pid = ? AND process_end IS NULL", tbl),
			types.NewInt(end), types.NewInt(pid)); err != nil {
			return err
		}
	}
	return m.GC()
}

func (m *Manager) deletionTables() []string {
	var out []string
	for _, name := range m.db.Store().TableNames() {
		if strings.HasPrefix(strings.ToLower(name), DeletionTablePrefix) {
			out = append(out, name)
		}
	}
	return out
}

// GC physically deletes tuples whose wait-set has drained: a logical
// deletion with process_end = E is applied once no running process
// instance has start_ts < E (those are exactly the instances started
// before the deleting process ended). start_ts is the immutable start
// stamp; the snapshot may advance as the instance writes. With the
// horizon H = MIN(start_ts) over running instances, E is drained iff
// E <= H, or no instance is running.
//
// Per deletion table GC reads the drained rows once and deletes them, and
// their tuples, with one statement each, both by tuple id. A deletion
// stamped after the read waits for the next GC.
func (m *Manager) GC() error {
	h, err := m.db.QueryValue("SELECT MIN(start_ts) FROM "+database.TableProcessInstance+" WHERE status = ?",
		types.NewString(database.StatusRunning))
	if err != nil {
		return err
	}
	drained := "process_end IS NOT NULL"
	if !h.IsNull() {
		drained = fmt.Sprintf("process_end <= %d", h.Int())
	}
	for _, del := range m.deletionTables() {
		res, err := m.db.Query(fmt.Sprintf("SELECT %s, tid FROM %s WHERE %s", catalog.SysTID, del, drained))
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			continue
		}
		// Two instances may delete one tuple: its tid is listed twice.
		delTIDs, tids := make([]sqltext.Expr, len(res.Rows)), make([]sqltext.Expr, len(res.Rows))
		for i, r := range res.Rows {
			delTIDs[i], tids[i] = intLit(r[0].Int()), intLit(r[1].Int())
		}
		rel := strings.TrimPrefix(strings.ToLower(del), DeletionTablePrefix)
		// The tuples may already be gone, the relation too; the
		// bookkeeping goes regardless.
		_, _ = m.db.ExecStmt(&sqltext.Delete{Table: rel, Where: tidIn(tids)})
		if _, err := m.db.ExecStmt(&sqltext.Delete{Table: del, Where: tidIn(delTIDs)}); err != nil {
			return err
		}
	}
	return nil
}

// tidIn is `_tid IN (list)`, which the planner answers by tuple id.
func tidIn(list []sqltext.Expr) sqltext.Expr {
	return &sqltext.InExpr{X: &sqltext.ColumnRef{Column: catalog.SysTID}, List: list}
}

// PendingDeletions counts logical deletions of a relation not yet
// physically applied.
func (m *Manager) PendingDeletions(rel string) (int64, error) {
	if !m.hasDeletionTable(rel) {
		return 0, nil
	}
	return m.db.QueryInt("SELECT COUNT(*) FROM " + DeletionTable(rel))
}
