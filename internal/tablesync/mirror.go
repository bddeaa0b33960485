// Package tablesync implements the in-memory table image R_M that
// visualization components keep synchronized with a disk-resident table
// R_D (§VI-C). The mirror:
//
//   - loads the table once, then applies *incremental* refreshes driven by
//     the notification protocol — it queries only the created/updated rows
//     (by tuple id) and drops deleted ones, never rescanning the table;
//   - lets the visualization decide when to refresh (protocol step 8):
//     Refresh() is explicit, AutoRefresh starts a goroutine that refreshes
//     as notifications arrive;
//   - propagates local modifications back to R_D (two-way propagation,
//     the paper's difference from classical materialized views), batching
//     consecutive notifications to avoid redundant work.
package tablesync

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ediflow/internal/catalog"
	"ediflow/internal/database"
	"ediflow/internal/driver"
	"ediflow/internal/metrics"
	"ediflow/internal/notify"
	"ediflow/internal/types"
)

// metricsSource is satisfied by both connection kinds a mirror runs
// over: the embedded database (engine registry) and the network client
// (client-local registry). Mirror metrics land wherever the connection
// records its own — next to engine.* embedded, next to client.* remote.
type metricsSource interface {
	Metrics() *metrics.Registry
}

// Row is one mirrored tuple: the user columns plus its tuple id.
type Row struct {
	TID    int64
	Values types.Row
}

// Mirror is the client-side in-memory image of one table.
type Mirror struct {
	db    driver.Conn
	cl    *notify.Client
	table string

	mu      sync.RWMutex
	columns []string
	rows    map[int64]types.Row
	version int64 // bumped on every applied change

	onChange func() // invoked after each applied refresh batch

	stopAuto chan struct{}
	autoWG   sync.WaitGroup

	// Refresh telemetry (nil-safe: all zero when db has no registry).
	reg            *metrics.Registry
	mRefreshes     *metrics.Counter
	mNotifications *metrics.Counter
	mRowsFetched   *metrics.Counter
	mRowsDropped   *metrics.Counter
	mRefreshH      *metrics.Histogram
}

// NewMirror connects the notification client and performs the initial
// load. db may be the embedded database or a network client (the
// paper's remote R_M over the LAN): the mirror code is identical.
func NewMirror(db driver.Conn, user, table string) (*Mirror, error) {
	cl, err := notify.Connect(db, user, table)
	if err != nil {
		return nil, err
	}
	m := &Mirror{db: db, cl: cl, table: table, rows: map[int64]types.Row{}}
	if ms, ok := db.(metricsSource); ok {
		m.reg = ms.Metrics()
		m.mRefreshes = m.reg.Counter("tablesync.refreshes")
		m.mNotifications = m.reg.Counter("tablesync.notifications")
		m.mRowsFetched = m.reg.Counter("tablesync.rows_fetched")
		m.mRowsDropped = m.reg.Counter("tablesync.rows_dropped")
		m.mRefreshH = m.reg.Histogram("tablesync.refresh_latency")
	}
	if err := m.initialLoad(); err != nil {
		cl.Close()
		return nil, err
	}
	return m, nil
}

func (m *Mirror) initialLoad() error {
	res, err := m.db.Query(fmt.Sprintf("SELECT *, %s FROM %s", catalog.SysTID, m.table))
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.columns = res.Columns[:len(res.Columns)-1]
	for _, r := range res.Rows {
		tid := r[len(r)-1].Int()
		m.rows[tid] = r[:len(r)-1]
	}
	// Everything up to now is covered by the initial load.
	return m.cl.Ack(m.currentMaxSeq())
}

func (m *Mirror) currentMaxSeq() int64 {
	v, err := m.db.QueryValue(
		"SELECT COALESCE(MAX(seq_no), 0) FROM "+database.TableNotification+" WHERE tbl = ?",
		types.NewString(m.table))
	if err != nil {
		return 0
	}
	n, _ := v.AsInt()
	return n
}

// Columns returns the mirrored column names.
func (m *Mirror) Columns() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.columns...)
}

// Len returns the number of mirrored rows.
func (m *Mirror) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// Version returns a counter that increases whenever the mirror changes.
func (m *Mirror) Version() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// Get returns the row with the given tuple id.
func (m *Mirror) Get(tid int64) (types.Row, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.rows[tid]
	if !ok {
		return nil, false
	}
	return types.CloneRow(r), true
}

// Snapshot returns all rows sorted by tuple id.
func (m *Mirror) Snapshot() []Row {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Row, 0, len(m.rows))
	for tid, r := range m.rows {
		out = append(out, Row{TID: tid, Values: types.CloneRow(r)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// ColIndex returns the position of a column in mirrored rows, or -1.
func (m *Mirror) ColIndex(name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, c := range m.columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// OnChange registers a callback invoked after every applied refresh batch
// (display components use it to repaint).
func (m *Mirror) OnChange(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onChange = fn
}

// Notifications exposes the raw NOTIFY channel for callers that schedule
// their own refreshes.
func (m *Mirror) Notifications() <-chan notify.Message { return m.cl.C }

// Refresh applies all pending notifications: one batched query per
// contiguous run of insert/update notifications (the "smart way to avoid
// redundant work" of protocol step 9), local deletion for deletes.
// It returns the number of notifications processed.
func (m *Mirror) Refresh() (int, error) {
	done := m.reg.Time(m.mRefreshH)
	msgs, tidLists, err := m.cl.PendingNotifications()
	if err != nil {
		return 0, err
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	m.mRefreshes.Inc()
	m.mNotifications.Add(int64(len(msgs)))
	// Coalesce: collect the set of tids to (re)fetch and to drop. A tid
	// that is updated then deleted ends up dropped; fetching happens once
	// per tid regardless of how many notifications mention it.
	fetch := map[int64]bool{}
	drop := map[int64]bool{}
	for i, msg := range msgs {
		switch msg.Op {
		case "INSERT", "UPDATE":
			for _, tid := range tidLists[i] {
				fetch[tid] = true
				delete(drop, tid)
			}
		case "DELETE":
			for _, tid := range tidLists[i] {
				drop[tid] = true
				delete(fetch, tid)
			}
		}
	}
	var fetched map[int64]types.Row
	if len(fetch) > 0 {
		fetched, err = m.fetchRows(fetch)
		if err != nil {
			return 0, err
		}
	}
	m.mu.Lock()
	for tid := range drop {
		delete(m.rows, tid)
	}
	for tid, r := range fetched {
		m.rows[tid] = r
	}
	// A tid scheduled for fetch but no longer present was deleted after
	// the notification was written: drop it.
	for tid := range fetch {
		if _, ok := fetched[tid]; !ok {
			delete(m.rows, tid)
		}
	}
	m.version++
	cb := m.onChange
	m.mu.Unlock()
	m.mRowsFetched.Add(int64(len(fetched)))
	m.mRowsDropped.Add(int64(len(drop)))
	if err := m.cl.Ack(msgs[len(msgs)-1].Seq); err != nil {
		return 0, err
	}
	done() // refresh latency includes the Ack round-trip
	if cb != nil {
		cb()
	}
	return len(msgs), nil
}

func (m *Mirror) fetchRows(tids map[int64]bool) (map[int64]types.Row, error) {
	ids := make([]string, 0, len(tids))
	for tid := range tids {
		ids = append(ids, fmt.Sprintf("%d", tid))
	}
	sort.Strings(ids)
	sql := fmt.Sprintf("SELECT *, %s FROM %s WHERE %s IN (%s)",
		catalog.SysTID, m.table, catalog.SysTID, strings.Join(ids, ", "))
	res, err := m.db.Query(sql)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]types.Row, len(res.Rows))
	for _, r := range res.Rows {
		tid := r[len(r)-1].Int()
		out[tid] = r[:len(r)-1]
	}
	return out, nil
}

// AutoRefresh starts a goroutine that refreshes whenever a notification
// arrives (coalescing bursts within the given debounce window).
func (m *Mirror) AutoRefresh(debounce time.Duration) {
	m.mu.Lock()
	if m.stopAuto != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	m.stopAuto = stop
	m.mu.Unlock()
	m.autoWG.Add(1)
	go func() {
		defer m.autoWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-m.cl.C:
				// Drain the burst, then refresh once.
				if debounce > 0 {
					timer := time.NewTimer(debounce)
				drain:
					for {
						select {
						case <-m.cl.C:
						case <-timer.C:
							break drain
						case <-stop:
							timer.Stop()
							return
						}
					}
				}
				m.Refresh()
			case <-m.cl.Done():
				return
			}
		}
	}()
}

// ------------------------------------------------------------ write-back

// UpdateRow writes new values for one mirrored row back to R_D (two-way
// propagation). The local image is updated immediately; the resulting
// self-notification becomes a cheap no-op re-fetch of the same tid.
func (m *Mirror) UpdateRow(tid int64, updates map[string]types.Value) error {
	m.mu.RLock()
	_, ok := m.rows[tid]
	cols := m.columns
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("tablesync: no row with tid %d", tid)
	}
	colPos := map[string]int{}
	for i, c := range cols {
		colPos[strings.ToLower(c)] = i
	}
	updCols := make([]string, 0, len(updates))
	for c := range updates {
		if _, ok := colPos[strings.ToLower(c)]; !ok {
			return fmt.Errorf("tablesync: no column %q in %s", c, m.table)
		}
		updCols = append(updCols, c)
	}
	sort.Strings(updCols)
	sets := make([]string, len(updCols))
	args := make([]types.Value, len(updCols))
	for i, c := range updCols {
		sets[i] = c + " = ?"
		args[i] = updates[c]
	}
	sql := fmt.Sprintf("UPDATE %s SET %s WHERE %s = ?",
		m.table, strings.Join(sets, ", "), catalog.SysTID)
	if _, err := m.db.Exec(sql, append(args, types.NewInt(tid))...); err != nil {
		return err
	}
	// Apply locally right away.
	m.mu.Lock()
	row := m.rows[tid]
	for c, v := range updates {
		row[colPos[strings.ToLower(c)]] = v
	}
	m.version++
	m.mu.Unlock()
	return nil
}

// InsertRow inserts a new row through the mirror into R_D, returning its
// tid. The local image picks it up via the notification refresh.
func (m *Mirror) InsertRow(vals map[string]types.Value) (int64, error) {
	return m.db.InsertRow(m.table, vals)
}

// DeleteRow removes a row from R_D.
func (m *Mirror) DeleteRow(tid int64) error {
	m.mu.RLock()
	_, ok := m.rows[tid]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("tablesync: no row with tid %d", tid)
	}
	if _, err := m.db.Exec(fmt.Sprintf("DELETE FROM %s WHERE %s = ?", m.table, catalog.SysTID), types.NewInt(tid)); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.rows, tid)
	m.version++
	m.mu.Unlock()
	return nil
}

// Close stops auto-refresh and disconnects the client.
func (m *Mirror) Close() error {
	m.mu.Lock()
	if m.stopAuto != nil {
		close(m.stopAuto)
		m.stopAuto = nil
	}
	m.mu.Unlock()
	m.autoWG.Wait()
	return m.cl.Close()
}
