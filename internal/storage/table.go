// Package storage implements the physical layer of the embedded database:
// in-memory multi-version row storage with system columns, primary/unique/
// secondary hash indexes, and durability through a write-ahead log with
// snapshot checkpoints (see wal.go).
//
// Concurrency model (MVCC): every logical row is a short version chain.
// Writers — already serialized by the engine's write lock — stamp each
// new version with a begin sequence from a store-wide clock and stamp the
// superseded version's end sequence; DELETE only end-stamps (the paper's
// R∆ deferred deletion, §VI-A) and reclamation is deferred to Vacuum.
// Readers capture a snapshot sequence S and iterate completely lock-free:
// a version is visible at S iff begin ≤ S < end (end 0 = still live).
// Structural state (the slot slice and index maps) is guarded by a short
// table-level RWMutex taken only to capture a slice header or probe a
// map — never across row iteration.
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// SeqLatest is the snapshot sequence that sees the newest version of
// every row (visibility degenerates to "not deleted"). Writers and
// replay use it; concurrent readers must use a captured snapshot seq.
const SeqLatest = math.MaxInt64

// StoredRow is one physical tuple: user values plus the system columns
// `_tid` (unique tuple id) and `_created` (monotonic creation sequence)
// that implement the paper's creation timestamps (§VI-A). The Values
// slice is immutable once stored — it is shared freely with readers.
type StoredRow struct {
	TID     int64
	Created int64
	Values  types.Row
}

// version is one entry in a row's version chain, newest first. begin,
// created and values are immutable after the version is published via
// the slot's atomic head pointer; end is stamped once when the version
// is superseded or deleted; prev is cleared (only ever to nil) by Vacuum.
type version struct {
	begin   int64
	created int64
	values  types.Row
	end     atomic.Int64
	prev    atomic.Pointer[version]
}

// visibleAt walks the chain for the version a snapshot at seq asOf sees.
// At most one version per chain can be visible: the newest one with
// begin ≤ asOf, provided the row was not already deleted by asOf.
func visibleAt(head *version, asOf int64) *version {
	for v := head; v != nil; v = v.prev.Load() {
		if v.begin > asOf {
			continue
		}
		if end := v.end.Load(); end == 0 || end > asOf {
			return v
		}
		return nil // deleted (or rolled back) at or before asOf
	}
	return nil
}

// rowSlot anchors one tuple id's version chain. Slots live in the
// table's append-only slice in (re)insertion order; deletes never move
// or remove a slot — only Vacuum compacts the slice.
type rowSlot struct {
	tid  int64
	head atomic.Pointer[version]
}

// Table is the physical storage of one base table.
type Table struct {
	Schema *catalog.TableSchema

	// clock is the version-stamp source, shared store-wide so one
	// snapshot seq is consistent across tables. Standalone tables (unit
	// tests) fall back to a local clock.
	clock      *atomic.Int64
	localClock atomic.Int64

	// mu guards the structural state below: the slots slice header, the
	// byTID map and the index maps. It is held only for map probes,
	// slice captures and writer mutations — never across row iteration;
	// version chains themselves are read lock-free through atomics.
	mu    sync.RWMutex
	slots []*rowSlot
	byTID map[int64]*rowSlot
	live  int // rows whose head version is not end-stamped

	nvers atomic.Int64 // retained versions across all chains (gauge)

	// pk maps primary-key value → candidate tids (single-column PK only).
	// Index entries are conservative: added on insert/update, removed
	// only by Vacuum, so a candidate must be re-checked against the
	// version actually visible at the reader's snapshot.
	pkCol int
	pk    map[string][]int64

	// unique indexes: column position → value key → candidate tids.
	unique map[int]map[string][]int64

	// secondary (non-unique) hash indexes: index name → column positions
	// and value key → candidate tids.
	secondary map[string]*hashIndex
}

type hashIndex struct {
	cols    []int
	unique  bool
	entries map[string][]int64
}

// NewTable creates empty storage for the given schema.
func NewTable(schema *catalog.TableSchema) *Table {
	t := &Table{
		Schema:    schema,
		byTID:     map[int64]*rowSlot{},
		pkCol:     schema.PKIndex(),
		unique:    map[int]map[string][]int64{},
		secondary: map[string]*hashIndex{},
	}
	if t.pkCol >= 0 {
		t.pk = map[string][]int64{}
	}
	for i, c := range schema.Columns {
		if c.Unique && !c.PrimaryKey {
			t.unique[i] = map[string][]int64{}
		}
	}
	return t
}

// SetClock points the table at a shared version-stamp source (the
// store's MVCC clock). Must be called before concurrent use.
func (t *Table) SetClock(c *atomic.Int64) { t.clock = c }

func (t *Table) stamp() int64 {
	if t.clock != nil {
		return t.clock.Add(1)
	}
	return t.localClock.Add(1)
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// VersionCount returns the number of retained versions across all
// chains (live rows plus superseded/deleted versions awaiting Vacuum).
func (t *Table) VersionCount() int64 { return t.nvers.Load() }

// Rows materializes the live rows in slot order. The returned slice is
// fresh and its Values are immutable — callers may retain both freely.
func (t *Table) Rows() []StoredRow { return t.RowsAt(SeqLatest) }

// RowsAt materializes the rows visible at snapshot seq asOf, in slot
// order.
func (t *Table) RowsAt(asOf int64) []StoredRow {
	it := t.Iterate(asOf)
	out := make([]StoredRow, 0, len(it.slots))
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TableIter streams the rows visible at one snapshot seq. After the
// initial slice capture it holds no locks: concurrent committers append
// new slots and stamp new versions freely, none of which can be visible
// at the iterator's (older) snapshot.
type TableIter struct {
	slots []*rowSlot
	asOf  int64
	i     int
}

// Iterate returns a lock-free iterator over the rows visible at asOf:
// the whole range of one freshly captured View.
func (t *Table) Iterate(asOf int64) TableIter {
	v := t.View(asOf)
	return v.IterateRange(0, v.Slots())
}

// Next returns the next visible row. The StoredRow's Values are shared
// with the version chain and immutable.
func (it *TableIter) Next() (StoredRow, bool) {
	for it.i < len(it.slots) {
		sl := it.slots[it.i]
		it.i++
		if v := visibleAt(sl.head.Load(), it.asOf); v != nil {
			return StoredRow{TID: sl.tid, Created: v.created, Values: v.values}, true
		}
	}
	return StoredRow{}, false
}

// SlotView is one captured slot array pinned to a snapshot: the unit
// morsel-parallel scans partition. All morsels of one scan share a
// single capture, so every worker sees exactly the slot set a serial
// Iterate at the same instant would have seen, and the captured array
// stays valid under concurrent Vacuum (which swaps in a fresh slice
// rather than mutating the old one).
type SlotView struct {
	slots []*rowSlot
	asOf  int64
}

// View captures the table's slot array for snapshot asOf.
func (t *Table) View(asOf int64) SlotView {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	return SlotView{slots: slots, asOf: asOf}
}

// Slots returns the number of captured slots (visible or not) — the
// domain morsel ranges index into.
func (v SlotView) Slots() int { return len(v.slots) }

// IterateRange returns a lock-free iterator over the visible rows in
// slot range [lo, hi). Concatenating the ranges [0,m1),[m1,m2),... in
// order yields exactly the sequence Iterate produces at the same
// snapshot.
func (v SlotView) IterateRange(lo, hi int) TableIter {
	if lo < 0 {
		lo = 0
	}
	if hi > len(v.slots) {
		hi = len(v.slots)
	}
	if lo > hi {
		lo = hi
	}
	return TableIter{slots: v.slots[lo:hi], asOf: v.asOf}
}

// Get returns the newest live row with the given tid.
func (t *Table) Get(tid int64) (StoredRow, bool) { return t.GetAt(tid, SeqLatest) }

// GetAt returns the row with the given tid as visible at snapshot asOf.
func (t *Table) GetAt(tid, asOf int64) (StoredRow, bool) {
	t.mu.RLock()
	sl := t.byTID[tid]
	t.mu.RUnlock()
	if sl == nil {
		return StoredRow{}, false
	}
	v := visibleAt(sl.head.Load(), asOf)
	if v == nil {
		return StoredRow{}, false
	}
	return StoredRow{TID: sl.tid, Created: v.created, Values: v.values}, true
}

// LookupPK returns the tid of the live row whose primary key equals v.
func (t *Table) LookupPK(v types.Value) (int64, bool) {
	return t.LookupPKAt(v, SeqLatest)
}

// LookupPKAt returns the tid of the row whose primary key equals v as
// visible at snapshot asOf. Historical states satisfied the PK
// constraint too, so at most one row matches at any snapshot.
func (t *Table) LookupPKAt(v types.Value, asOf int64) (int64, bool) {
	if t.pk == nil {
		return 0, false
	}
	key := v.HashKey()
	for _, sl := range t.candidates(t.pk, key) {
		if ver := visibleAt(sl.head.Load(), asOf); ver != nil && ver.values[t.pkCol].HashKey() == key {
			return sl.tid, true
		}
	}
	return 0, false
}

// candidates resolves an index candidate list to slots under the
// structural lock; the visibility walk happens outside it.
func (t *Table) candidates(m map[string][]int64, key string) []*rowSlot {
	t.mu.RLock()
	tids := m[key]
	out := make([]*rowSlot, 0, len(tids))
	for _, tid := range tids {
		if sl := t.byTID[tid]; sl != nil {
			out = append(out, sl)
		}
	}
	t.mu.RUnlock()
	return out
}

// HasPK reports whether the table has a single-column primary key.
func (t *Table) HasPK() bool { return t.pkCol >= 0 }

// PKCol returns the primary key column position, or -1.
func (t *Table) PKCol() int { return t.pkCol }

// checkConstraints validates NOT NULL, PK and UNIQUE for a candidate row
// against the live heads. excludeTID skips one tid during uniqueness
// checks (for updates). Caller holds t.mu.
func (t *Table) checkConstraints(row types.Row, excludeTID int64) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: %s: arity %d, want %d", t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	for i, c := range t.Schema.Columns {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("storage: %s.%s: NOT NULL violated", t.Schema.Name, c.Name)
		}
	}
	if t.pkCol >= 0 {
		if row[t.pkCol].IsNull() {
			return fmt.Errorf("storage: %s: primary key is NULL", t.Schema.Name)
		}
		key := row[t.pkCol].HashKey()
		for _, tid := range t.pk[key] {
			if tid != excludeTID && t.liveMatch(tid, t.pkCol, key) {
				return fmt.Errorf("storage: %s: duplicate primary key %s", t.Schema.Name, row[t.pkCol])
			}
		}
	}
	for col, idx := range t.unique {
		if row[col].IsNull() {
			continue
		}
		key := row[col].HashKey()
		for _, tid := range idx[key] {
			if tid != excludeTID && t.liveMatch(tid, col, key) {
				return fmt.Errorf("storage: %s.%s: duplicate unique value %s", t.Schema.Name, t.Schema.Columns[col].Name, row[col])
			}
		}
	}
	for name, ix := range t.secondary {
		if !ix.unique {
			continue
		}
		k := ix.key(row)
		for _, tid := range ix.entries[k] {
			if tid == excludeTID {
				continue
			}
			if sl := t.byTID[tid]; sl != nil {
				if h := sl.head.Load(); h != nil && h.end.Load() == 0 && ix.key(h.values) == k {
					return fmt.Errorf("storage: %s: unique index %s violated", t.Schema.Name, name)
				}
			}
		}
	}
	return nil
}

// liveMatch reports whether tid's live head has value key at column col.
// Caller holds t.mu.
func (t *Table) liveMatch(tid int64, col int, key string) bool {
	sl := t.byTID[tid]
	if sl == nil {
		return false
	}
	h := sl.head.Load()
	return h != nil && h.end.Load() == 0 && h.values[col].HashKey() == key
}

// Insert adds a row with explicit system columns (used by WAL replay and
// the engine, which allocates tids/timestamps). Re-inserting a tid whose
// row was deleted (transaction rollback, replay) extends the existing
// chain and moves the slot to the end, so slot order is always order of
// last insertion regardless of vacuum timing.
func (t *Table) Insert(tid, created int64, row types.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkConstraints(row, -1); err != nil {
		return err
	}
	sl := t.byTID[tid]
	if sl != nil {
		if h := sl.head.Load(); h != nil && h.end.Load() == 0 {
			return fmt.Errorf("storage: %s: duplicate tid %d", t.Schema.Name, tid)
		}
	}
	v := &version{begin: t.stamp(), created: created, values: row}
	if sl != nil {
		// Rebuild the slice rather than shifting in place: concurrent
		// iterators hold the old array and must not see a slot twice.
		v.prev.Store(sl.head.Load())
		ns := make([]*rowSlot, 0, len(t.slots))
		for _, s := range t.slots {
			if s != sl {
				ns = append(ns, s)
			}
		}
		t.slots = append(ns, sl)
		sl.head.Store(v)
	} else {
		sl = &rowSlot{tid: tid}
		sl.head.Store(v)
		t.byTID[tid] = sl
		t.slots = append(t.slots, sl)
	}
	t.live++
	t.nvers.Add(1)
	t.indexRowLocked(tid, row)
	return nil
}

// Update stamps a new version for the row with the given tid; `_created`
// is preserved (the tuple identity does not change). The returned old
// values are immutable.
func (t *Table) Update(tid int64, row types.Row) (old types.Row, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.byTID[tid]
	var head *version
	if sl != nil {
		head = sl.head.Load()
	}
	if head == nil || head.end.Load() != 0 {
		return nil, fmt.Errorf("storage: %s: no tid %d", t.Schema.Name, tid)
	}
	if err := t.checkConstraints(row, tid); err != nil {
		return nil, err
	}
	v := &version{begin: t.stamp(), created: head.created, values: row}
	v.prev.Store(head)
	head.end.Store(v.begin)
	sl.head.Store(v)
	t.nvers.Add(1)
	t.indexRowLocked(tid, row)
	return head.values, nil
}

// Delete end-stamps the live version of the row with the given tid —
// the paper's R∆ deferred deletion. The version (and its index entries)
// survive for readers at older snapshots until Vacuum reclaims them.
func (t *Table) Delete(tid int64) (types.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.byTID[tid]
	var head *version
	if sl != nil {
		head = sl.head.Load()
	}
	if head == nil || head.end.Load() != 0 {
		return nil, fmt.Errorf("storage: %s: no tid %d", t.Schema.Name, tid)
	}
	head.end.Store(t.stamp())
	t.live--
	return head.values, nil
}

// Vacuum reclaims versions no snapshot at or after floor can see: dead
// slots whose newest version ended at or before floor, and chain tails
// superseded at or before floor. Index maps are rebuilt over the
// surviving versions. Callers must exclude writers (the engine runs
// Vacuum under its write lock, from Checkpoint); concurrent lock-free
// readers are safe because their snapshots are ≥ floor by construction
// and they hold the old slot array.
func (t *Table) Vacuum(floor int64) (reclaimed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make([]*rowSlot, 0, len(t.slots))
	for _, sl := range t.slots {
		head := sl.head.Load()
		if end := head.end.Load(); end != 0 && end <= floor {
			for v := head; v != nil; v = v.prev.Load() {
				reclaimed++
			}
			delete(t.byTID, sl.tid)
			continue
		}
		kept = append(kept, sl)
		for v := head; v != nil; {
			p := v.prev.Load()
			if p == nil {
				break
			}
			if p.end.Load() <= floor {
				v.prev.Store(nil)
				for q := p; q != nil; q = q.prev.Load() {
					reclaimed++
				}
				break
			}
			v = p
		}
	}
	t.slots = kept
	if reclaimed > 0 {
		t.nvers.Add(-reclaimed)
	}
	t.rebuildIndexesLocked()
	return reclaimed
}

// rebuildIndexesLocked reconstructs the conservative index maps from the
// retained versions. Caller holds t.mu.
func (t *Table) rebuildIndexesLocked() {
	if t.pkCol >= 0 {
		t.pk = map[string][]int64{}
	}
	for col := range t.unique {
		t.unique[col] = map[string][]int64{}
	}
	for _, ix := range t.secondary {
		ix.entries = map[string][]int64{}
	}
	for _, sl := range t.slots {
		for v := sl.head.Load(); v != nil; v = v.prev.Load() {
			t.indexRowLocked(sl.tid, v.values)
		}
	}
}

// addTid appends tid to a candidate list if absent (lists are short).
func addTid(list []int64, tid int64) []int64 {
	for _, id := range list {
		if id == tid {
			return list
		}
	}
	return append(list, tid)
}

// indexRowLocked adds one version's values to the conservative index
// maps. Entries are never removed outside Vacuum. Caller holds t.mu.
func (t *Table) indexRowLocked(tid int64, row types.Row) {
	if t.pkCol >= 0 {
		k := row[t.pkCol].HashKey()
		t.pk[k] = addTid(t.pk[k], tid)
	}
	for col, idx := range t.unique {
		if !row[col].IsNull() {
			k := row[col].HashKey()
			idx[k] = addTid(idx[k], tid)
		}
	}
	for _, ix := range t.secondary {
		k := ix.key(row)
		ix.entries[k] = addTid(ix.entries[k], tid)
	}
}

func (ix *hashIndex) key(row types.Row) string {
	sub := make(types.Row, len(ix.cols))
	for i, c := range ix.cols {
		sub[i] = row[c]
	}
	return types.RowKey(sub)
}

// AddIndex builds a secondary hash index over the given columns,
// covering every retained version so readers at older snapshots can use
// it too. The unique check applies to live rows only.
func (t *Table) AddIndex(name string, cols []string, unique bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondary[name]; ok {
		return fmt.Errorf("storage: index %q already exists on %s", name, t.Schema.Name)
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.Schema.ColIndex(c)
		if p < 0 {
			return fmt.Errorf("storage: no column %q in %s", c, t.Schema.Name)
		}
		positions[i] = p
	}
	ix := &hashIndex{cols: positions, unique: unique, entries: map[string][]int64{}}
	if unique {
		seen := map[string]bool{}
		for _, sl := range t.slots {
			h := sl.head.Load()
			if h == nil || h.end.Load() != 0 {
				continue
			}
			k := ix.key(h.values)
			if seen[k] {
				return fmt.Errorf("storage: existing data violates unique index %q", name)
			}
			seen[k] = true
		}
	}
	for _, sl := range t.slots {
		for v := sl.head.Load(); v != nil; v = v.prev.Load() {
			k := ix.key(v.values)
			ix.entries[k] = addTid(ix.entries[k], sl.tid)
		}
	}
	t.secondary[name] = ix
	return nil
}

// LookupIndex returns the tids of live rows matching the given key
// values on a secondary index.
func (t *Table) LookupIndex(name string, key types.Row) ([]int64, bool) {
	return t.LookupIndexAt(name, key, SeqLatest)
}

// LookupIndexAt returns the tids of rows matching the given key values
// on a secondary index, as visible at snapshot asOf.
func (t *Table) LookupIndexAt(name string, key types.Row, asOf int64) ([]int64, bool) {
	t.mu.RLock()
	ix, ok := t.secondary[name]
	if !ok || len(key) != len(ix.cols) {
		t.mu.RUnlock()
		return nil, false
	}
	k := types.RowKey(key)
	tids := ix.entries[k]
	cands := make([]*rowSlot, 0, len(tids))
	for _, tid := range tids {
		if sl := t.byTID[tid]; sl != nil {
			cands = append(cands, sl)
		}
	}
	t.mu.RUnlock()
	var out []int64
	for _, sl := range cands {
		if v := visibleAt(sl.head.Load(), asOf); v != nil && ix.key(v.values) == k {
			out = append(out, sl.tid)
		}
	}
	return out, true
}

// IndexOn returns the name of a secondary index whose only column is the
// given column position, if any. When several qualify the
// lexicographically smallest name wins, so planner choices are stable.
func (t *Table) IndexOn(col int) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	best := ""
	for name, ix := range t.secondary {
		if len(ix.cols) == 1 && ix.cols[0] == col && (best == "" || name < best) {
			best = name
		}
	}
	return best, best != ""
}

// LookupUnique returns the tid of the live row whose single-column
// UNIQUE value at column position col equals v.
func (t *Table) LookupUnique(col int, v types.Value) (int64, bool) {
	return t.LookupUniqueAt(col, v, SeqLatest)
}

// LookupUniqueAt returns the tid of the row whose single-column UNIQUE
// value at column position col equals v, as visible at snapshot asOf.
func (t *Table) LookupUniqueAt(col int, v types.Value, asOf int64) (int64, bool) {
	t.mu.RLock()
	idx, ok := t.unique[col]
	t.mu.RUnlock()
	if !ok {
		return 0, false
	}
	key := v.HashKey()
	for _, sl := range t.candidates(idx, key) {
		if ver := visibleAt(sl.head.Load(), asOf); ver != nil && ver.values[col].HashKey() == key {
			return sl.tid, true
		}
	}
	return 0, false
}

// HasUnique reports whether column position col carries a single-column
// UNIQUE constraint (and therefore a unique hash index).
func (t *Table) HasUnique(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.unique[col]
	return ok
}

// IndexInfo describes one secondary index for the planner.
type IndexInfo struct {
	Name   string
	Cols   []int // key column positions, in index-key order
	Unique bool
}

// SecondaryIndexes returns the table's secondary indexes sorted by name,
// so planner decisions are deterministic.
func (t *Table) SecondaryIndexes() []IndexInfo {
	t.mu.RLock()
	out := make([]IndexInfo, 0, len(t.secondary))
	for name, ix := range t.secondary {
		out = append(out, IndexInfo{Name: name, Cols: ix.cols, Unique: ix.unique})
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IndexCovering returns a secondary index whose key columns are exactly
// the given set (order-insensitive), plus the permutation mapping each
// index-key position to its position in cols. Ties resolve to the
// lexicographically smallest index name.
func (t *Table) IndexCovering(cols []int) (string, []int, bool) {
	for _, info := range t.SecondaryIndexes() {
		if len(info.Cols) != len(cols) {
			continue
		}
		perm := make([]int, len(info.Cols))
		used := make([]bool, len(cols))
		ok := true
		for i, ic := range info.Cols {
			found := -1
			for j, c := range cols {
				if c == ic && !used[j] {
					found = j
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			used[found] = true
			perm[i] = found
		}
		if ok {
			return info.Name, perm, true
		}
	}
	return "", nil, false
}
