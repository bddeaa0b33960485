// Package database is the embedded-DB facade the rest of EdiFlow builds
// on. It wires the storage and engine layers together and installs the
// paper's unified data model (Figure 3): process definitions, process
// execution state, users/groups, connections, notifications and
// visualization tables all live in the same database as application data
// — "EdiFlow unifies the data model used by all of its components" (§VIII).
package database

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/engine"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// System table names (the gray and white groups of Figure 3).
const (
	TableProcess          = "ef_process"
	TableActivity         = "ef_activity"
	TableProcessInstance  = "ef_process_instance"
	TableActivityInstance = "ef_activity_instance"
	TableUser             = "ef_user"
	TableGroup            = "ef_group"
	TableUserGroup        = "ef_user_group"
	TableConnectedUser    = "ef_connected_user"
	TableNotification     = "ef_notification"
	TableVisualization    = "ef_visualization"
	TableVisComponent     = "ef_vis_component"
	TableVisualAttributes = "ef_visual_attributes"
)

// Instance status values (§IV-A).
const (
	StatusNotStarted = "not_started"
	StatusRunning    = "running"
	StatusCompleted  = "completed"
)

// DB is an embedded EdiFlow database.
type DB struct {
	*engine.Engine

	// idMu serializes NextID so concurrent callers (process starts,
	// notification registrations, visualization creation) never observe
	// the same MAX and collide on insert.
	idMu    sync.Mutex
	nextIDs map[string]int64 // lower-cased table → next id to hand out
}

// schemaDDL is executed on every open; IF NOT EXISTS makes it idempotent
// across restarts.
var schemaDDL = []string{
	`CREATE TABLE IF NOT EXISTS ` + TableProcess + ` (
		name STRING PRIMARY KEY,
		spec STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableActivity + ` (
		id STRING PRIMARY KEY,
		process STRING NOT NULL,
		name STRING NOT NULL,
		grp STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableProcessInstance + ` (
		id INT PRIMARY KEY,
		process STRING NOT NULL,
		status STRING NOT NULL,
		start_ts INT,
		end_ts INT,
		snapshot INT)`,
	`CREATE TABLE IF NOT EXISTS ` + TableActivityInstance + ` (
		id INT PRIMARY KEY,
		activity STRING NOT NULL,
		process_instance INT NOT NULL,
		status STRING NOT NULL,
		start_ts INT,
		end_ts INT,
		username STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableUser + ` (
		name STRING PRIMARY KEY,
		password STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableGroup + ` (
		name STRING PRIMARY KEY)`,
	`CREATE TABLE IF NOT EXISTS ` + TableUserGroup + ` (
		username STRING NOT NULL,
		grp STRING NOT NULL)`,
	`CREATE TABLE IF NOT EXISTS ` + TableConnectedUser + ` (
		id INT PRIMARY KEY,
		username STRING,
		host STRING NOT NULL,
		port INT NOT NULL,
		tbl STRING NOT NULL,
		last_seq INT)`,
	`CREATE TABLE IF NOT EXISTS ` + TableNotification + ` (
		seq_no INT PRIMARY KEY,
		ts INT NOT NULL,
		tbl STRING NOT NULL,
		op STRING NOT NULL,
		tids STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableVisualization + ` (
		id INT PRIMARY KEY,
		name STRING NOT NULL)`,
	`CREATE TABLE IF NOT EXISTS ` + TableVisComponent + ` (
		id INT PRIMARY KEY,
		visualization INT NOT NULL,
		label STRING,
		kind STRING)`,
	`CREATE TABLE IF NOT EXISTS ` + TableVisualAttributes + ` (
		obj_id INT NOT NULL,
		comp_id INT NOT NULL,
		x FLOAT,
		y FLOAT,
		width FLOAT,
		height FLOAT,
		color STRING,
		label STRING,
		selected BOOL)`,
	// Every vis.Component statement addresses one (obj_id, comp_id) or one
	// comp_id; not unique — duplicate inserts stay what they were.
	`CREATE INDEX IF NOT EXISTS ` + TableVisualAttributes + `_obj ON ` + TableVisualAttributes + ` (obj_id, comp_id)`,
}

// Open opens (or creates) an EdiFlow database with default durability
// (WAL flushed to the OS page cache, no per-commit fsync). dir == "" is
// in-memory.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, storage.Options{})
}

// OpenWith opens (or creates) an EdiFlow database with explicit storage
// durability options (fsync-on-commit, group fsync, ...).
func OpenWith(dir string, opts storage.Options) (*DB, error) {
	st, err := storage.OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	db := &DB{Engine: e}
	for _, ddl := range schemaDDL {
		if _, err := db.Exec(ddl); err != nil {
			e.Close()
			return nil, fmt.Errorf("database: installing system schema: %w", err)
		}
	}
	return db, nil
}

// MustOpenMemory opens an in-memory database or panics (test/example
// convenience).
func MustOpenMemory() *DB {
	db, err := Open("")
	if err != nil {
		panic(err)
	}
	return db
}

// QueryValue runs a SELECT expected to return exactly one value.
func (db *DB) QueryValue(sql string, args ...types.Value) (types.Value, error) {
	res, err := db.Query(sql, args...)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return types.Null, fmt.Errorf("database: expected a single value, got %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// QueryInt runs a SELECT expected to return exactly one integer.
func (db *DB) QueryInt(sql string, args ...types.Value) (int64, error) {
	v, err := db.QueryValue(sql, args...)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// QueryString runs a SELECT expected to return exactly one string.
func (db *DB) QueryString(sql string, args ...types.Value) (string, error) {
	v, err := db.QueryValue(sql, args...)
	if err != nil {
		return "", err
	}
	return v.AsString(), nil
}

// InsertRow inserts one row given column→value pairs, returning its tid.
func (db *DB) InsertRow(table string, vals map[string]types.Value) (int64, error) {
	cols := make([]string, 0, len(vals))
	for c := range vals {
		cols = append(cols, c)
	}
	// Deterministic order for readability in WAL dumps/tests.
	sortStrings(cols)
	placeholders := make([]string, len(cols))
	args := make([]types.Value, len(cols))
	for i, c := range cols {
		placeholders[i] = "?"
		args[i] = vals[c]
	}
	sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		table, strings.Join(cols, ", "), strings.Join(placeholders, ", "))
	res, err := db.Exec(sql, args...)
	if err != nil {
		return 0, err
	}
	if len(res.TIDs) != 1 {
		return 0, fmt.Errorf("database: insert affected %d rows", len(res.TIDs))
	}
	return res.TIDs[0], nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NextID allocates a unique id for a table with an `id` column. The first
// call per table seeds from MAX(id); later calls increment a process-local
// counter under a mutex, so concurrent allocators never collide (the
// classic SELECT MAX+1 race). External inserts with explicit larger ids
// are re-observed because the seed is re-read when the counter is behind
// the table.
func (db *DB) NextID(table string) (int64, error) {
	db.idMu.Lock()
	defer db.idMu.Unlock()
	key := strings.ToLower(table)
	v, err := db.QueryValue("SELECT COALESCE(MAX(id), 0) + 1 FROM " + table)
	if err != nil {
		return 0, err
	}
	fromTable, err := v.AsInt()
	if err != nil {
		return 0, err
	}
	if db.nextIDs == nil {
		db.nextIDs = map[string]int64{}
	}
	next := db.nextIDs[key]
	if fromTable > next {
		next = fromTable
	}
	db.nextIDs[key] = next + 1
	return next, nil
}

// EnsureUser registers a user (idempotent).
func (db *DB) EnsureUser(name, password string) error {
	n, err := db.QueryInt("SELECT COUNT(*) FROM "+TableUser+" WHERE name = ?", types.NewString(name))
	if err != nil {
		return err
	}
	if n > 0 {
		return nil
	}
	_, err = db.Exec("INSERT INTO "+TableUser+" (name, password) VALUES (?, ?)",
		types.NewString(name), types.NewString(password))
	return err
}

// EnsureGroup registers a group (idempotent).
func (db *DB) EnsureGroup(name string) error {
	n, err := db.QueryInt("SELECT COUNT(*) FROM "+TableGroup+" WHERE name = ?", types.NewString(name))
	if err != nil {
		return err
	}
	if n > 0 {
		return nil
	}
	_, err = db.Exec("INSERT INTO "+TableGroup+" (name) VALUES (?)", types.NewString(name))
	return err
}

// AddUserToGroup records group membership (idempotent).
func (db *DB) AddUserToGroup(user, group string) error {
	n, err := db.QueryInt("SELECT COUNT(*) FROM "+TableUserGroup+" WHERE username = ? AND grp = ?",
		types.NewString(user), types.NewString(group))
	if err != nil {
		return err
	}
	if n > 0 {
		return nil
	}
	_, err = db.Exec("INSERT INTO "+TableUserGroup+" (username, grp) VALUES (?, ?)",
		types.NewString(user), types.NewString(group))
	return err
}

// UserInGroup reports whether a user belongs to a group.
func (db *DB) UserInGroup(user, group string) (bool, error) {
	n, err := db.QueryInt("SELECT COUNT(*) FROM "+TableUserGroup+" WHERE username = ? AND grp = ?",
		types.NewString(user), types.NewString(group))
	return n > 0, err
}
