// Package catalog holds the metadata of the embedded database: table
// schemas, (materialized) view definitions and triggers. Indexes are not
// listed here: a table's indexes live with its storage (see
// storage.Table.Indexes). The catalog is safe for concurrent use (see
// Catalog).
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

// Catalog is the full metadata set. It is safe for concurrent use: the
// engine serializes writes, but reads come from many layers (workflow
// isolation rewriting, UP trigger installation, tools) on other
// goroutines.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*TableSchema // lower-cased name → schema
	views    map[string]*View
	triggers map[string]*Trigger
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   map[string]*TableSchema{},
		views:    map[string]*View{},
		triggers: map[string]*Trigger{},
	}
}

// Reset empties the catalog in place. Whoever holds the catalog — a
// lock-free reader planning a query, the workflow layer — keeps the one
// object while its owner rebuilds it (a replica applying a snapshot).
func (c *Catalog) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.tables)
	clear(c.views)
	clear(c.triggers)
}

func key(name string) string { return strings.ToLower(name) }

// AddTable registers a new table schema.
func (c *Catalog) AddTable(s *TableSchema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(s.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %q already exists", s.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: %q already names a view", s.Name)
	}
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
	c.tables[k] = s
	return nil
}

// Table looks up a table schema by name.
func (c *Catalog) Table(name string) (*TableSchema, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.tables[key(name)]
	return s, ok
}

// DropTable removes a table and its triggers.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("catalog: no such table %q", name)
	}
	delete(c.tables, k)
	for tn, tg := range c.triggers {
		if key(tg.Table) == k {
			delete(c.triggers, tn)
		}
	}
	return nil
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, s := range c.tables {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// AddView registers a materialized view.
func (c *Catalog) AddView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(v.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %q already exists", v.Name)
	}
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: %q already names a table", v.Name)
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

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.views[k]; !ok {
		return fmt.Errorf("catalog: no such view %q", name)
	}
	delete(c.views, k)
	return nil
}

// AddTrigger registers a trigger.
func (c *Catalog) AddTrigger(t *Trigger) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.triggers[k]; ok {
		return fmt.Errorf("catalog: trigger %q already exists", t.Name)
	}
	if _, ok := c.tables[key(t.Table)]; !ok {
		return fmt.Errorf("catalog: trigger %q references unknown table %q", t.Name, t.Table)
	}
	c.triggers[k] = t
	return nil
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
