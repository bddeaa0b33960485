// Package catalog holds the metadata of the embedded database: the
// shape of a table schema and its rules (TableSchema), and the registry
// of (materialized) view definitions and triggers (Catalog). Tables and
// their indexes are registered in the store alone (storage.Store.Table).
// The catalog is safe for concurrent use (see Catalog).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// System column names exposed on every base table. `_tid` is the unique
// tuple identifier and `_created` the creation timestamp, which is the
// tid (tids are drawn in creation order and never reused); both serve the
// paper's time-based isolation (§VI-A) and the deletion-table rewrite.
const (
	SysTID     = "_tid"
	SysCreated = "_created"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       types.Kind
	PrimaryKey bool
	Unique     bool
	NotNull    bool
}

// TableSchema describes a base table.
type TableSchema struct {
	Name    string
	Columns []Column
}

// ColIndex returns the position of the named column, or -1. Matching is
// case-insensitive, like the rest of the engine's name resolution.
func (s *TableSchema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// PKIndex returns the position of the primary key column, or -1.
func (s *TableSchema) PKIndex() int {
	for i, c := range s.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in order.
func (s *TableSchema) ColNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *TableSchema) Clone() *TableSchema {
	c := &TableSchema{Name: s.Name, Columns: make([]Column, len(s.Columns))}
	copy(c.Columns, s.Columns)
	return c
}

// View is a materialized view definition. Data lives in a hidden base
// table maintained by the engine's IVM layer.
type View struct {
	Name  string
	Query *sqltext.Select
	// Backing is the name of the hidden storage table holding the
	// materialized rows.
	Backing string
}

// Trigger is a declaratively created trigger binding an event on a table
// to a named Go handler registered with the database.
type Trigger struct {
	Name    string
	Event   string // INSERT, UPDATE, DELETE
	Table   string
	Handler string
}

// Validate checks a new table's schema: at least one column, no column
// named twice or by a system column's name, at most one primary key.
func (s *TableSchema) Validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", s.Name)
	}
	seen := map[string]bool{}
	pks := 0
	for _, col := range s.Columns {
		ck := key(col.Name)
		if seen[ck] {
			return fmt.Errorf("catalog: duplicate column %q in %q", col.Name, s.Name)
		}
		if ck == SysTID || ck == SysCreated {
			return fmt.Errorf("catalog: column name %q is reserved", col.Name)
		}
		seen[ck] = true
		if col.PrimaryKey {
			pks++
		}
	}
	if pks > 1 {
		return fmt.Errorf("catalog: table %q has %d primary keys", s.Name, pks)
	}
	return nil
}

// Catalog holds the definitions that exist only as DDL text in the
// store: views and triggers. Tables are the store's (storage.Store). It
// is safe for concurrent use: the engine serializes writes, but reads
// come from many layers (lock-free planning, trigger dispatch, workflow
// isolation, tools) on other goroutines.
type Catalog struct {
	mu       sync.RWMutex
	views    map[string]*View // lower-cased name
	triggers map[string]*Trigger
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{views: map[string]*View{}, triggers: map[string]*Trigger{}}
}

// Replace makes c hold what from holds, at once: whoever holds c — a
// lock-free reader planning a query, the workflow layer — sees it before
// or after, never part-built, while its owner builds from aside (a
// replica applying a snapshot). from must not be used after.
func (c *Catalog) Replace(from *Catalog) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views, c.triggers = from.views, from.triggers
}

func key(name string) string { return strings.ToLower(name) }

// AddView registers a materialized view.
func (c *Catalog) AddView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(v.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %q already exists", v.Name)
	}
	c.views[k] = v
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// ViewNames returns all view names, sorted.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// DropView removes a view; it is no error if there is none.
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.views, key(name))
}

// AddTrigger registers a trigger.
func (c *Catalog) AddTrigger(t *Trigger) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.triggers[k]; ok {
		return fmt.Errorf("catalog: trigger %q already exists", t.Name)
	}
	c.triggers[k] = t
	return nil
}

// Trigger looks up a trigger by name.
func (c *Catalog) Trigger(name string) (*Trigger, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[key(name)]
	return t, ok
}

// DropTrigger removes a trigger; it is no error if there is none.
func (c *Catalog) DropTrigger(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.triggers, key(name))
}

// Triggers returns the triggers on a table for an event, sorted by name.
func (c *Catalog) Triggers(table, event string) []*Trigger {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Trigger
	for _, t := range c.triggers {
		if strings.EqualFold(t.Table, table) && strings.EqualFold(t.Event, event) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllTriggers returns every trigger, sorted by name.
func (c *Catalog) AllTriggers() []*Trigger {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Trigger, 0, len(c.triggers))
	for _, t := range c.triggers {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SchemaFromAST converts a parsed CREATE TABLE into a schema.
func SchemaFromAST(ct *sqltext.CreateTable) *TableSchema {
	s := &TableSchema{Name: ct.Name}
	for _, c := range ct.Columns {
		s.Columns = append(s.Columns, Column{
			Name: c.Name, Type: c.Type,
			PrimaryKey: c.PrimaryKey, Unique: c.Unique, NotNull: c.NotNull,
		})
	}
	return s
}
