// Package storage implements the physical layer of the embedded database:
// in-memory multi-version row storage with system columns, hash indexes
// (one kind: PRIMARY KEY, column UNIQUE and CREATE INDEX alike), and
// durability through a write-ahead log with snapshot checkpoints (see
// wal.go).
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
	"bytes"
	"fmt"
	"math"
	"slices"
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

// StoredRow is one physical tuple: user values plus its tid, which is both
// system columns — `_tid` and `_created`, the creation stamp of §VI-A
// (tids are drawn in creation order and never reused). The Values slice
// is immutable once stored — it is shared freely with readers.
type StoredRow struct {
	TID    int64
	Values types.Row
}

// version is one entry in a row's version chain, newest first. begin and
// values are immutable after the version is published via the slot's
// atomic head pointer; end is stamped once when the version is
// superseded or deleted; prev is cleared (only ever to nil) by Vacuum.
type version struct {
	begin  int64
	values types.Row
	end    atomic.Int64
	prev   atomic.Pointer[version]
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
	// snapshot seq is consistent across tables.
	clock *atomic.Int64

	// mu guards the structural state below: the slots slice header, the
	// byTID map and the index maps. It is held only for map probes,
	// slice captures and writer mutations — never across row iteration;
	// version chains themselves are read lock-free through atomics.
	mu    sync.RWMutex
	slots []*rowSlot
	byTID map[int64]*rowSlot
	live  int // rows whose head version is not end-stamped

	nvers atomic.Int64 // retained versions across all chains (gauge)

	// indexes is the table's index list in planner rank order: the
	// primary key, column UNIQUE constraints by column position, then
	// CREATE INDEX indexes by most key columns, then name. The slice is
	// copy-on-DDL (AddIndex swaps in a fresh one), so a captured header
	// stays valid; each index's entries map is guarded by mu.
	indexes []*IndexInfo
}

// IndexInfo is one hash index: a PRIMARY KEY is the unique index on its
// column, a column UNIQUE likewise, CREATE [UNIQUE] INDEX adds a named
// one. Everything but the entry maps is immutable after creation.
type IndexInfo struct {
	Name   string // CREATE INDEX name; "" for constraint indexes
	Cols   []int  // key column positions, in index-key order
	Unique bool
	Origin IndexOrigin

	// The entries map an entry key to candidate tids. They are
	// conservative: added on insert/update, removed only by Vacuum, so a
	// candidate must be re-checked against the version actually visible
	// at the reader's snapshot. A key holding a NULL has no entry.
	//
	// A key's first candidate is held inline: in ints when the index has
	// one column and types.NumKey reads its value, else in strs under
	// the key's encoding (types.AppendKey). Later candidates — a
	// non-unique index's, or a key reused before Vacuum — are in more
	// under the encoding, made on the key's first duplicate; the list
	// sits behind a pointer so it grows without writing the map again.
	ints map[int64]int64
	strs map[string]int64
	more map[string]*[]int64
}

// IndexOrigin says which DDL declared an index.
type IndexOrigin uint8

// Index origins, in planner rank order.
const (
	OriginPK     IndexOrigin = iota // PRIMARY KEY column
	OriginColumn                    // column UNIQUE
	OriginNamed                     // CREATE [UNIQUE] INDEX
)

// keyBuf is the size of the stack buffer an entry key is built in;
// longer keys spill to the heap.
const keyBuf = 64

// newIndex returns an empty index.
func newIndex(name string, cols []int, unique bool, origin IndexOrigin) *IndexInfo {
	ix := &IndexInfo{Name: name, Cols: cols, Unique: unique, Origin: origin}
	ix.reset(0, 0)
	return ix
}

// reset empties the index, its maps sized for ni inline int keys and ns
// other keys.
func (ix *IndexInfo) reset(ni, ns int) {
	ix.ints, ix.strs, ix.more = make(map[int64]int64, ni), make(map[string]int64, ns), nil
}

// entryKey is the one key function: it appends the key of vals, one
// value per index column in index-key order, to buf. ok=false when a
// value is NULL — such a key is neither indexed, nor checked for
// uniqueness, nor findable.
func entryKey(buf []byte, vals types.Row) (k []byte, ok bool) {
	for _, v := range vals {
		if v.IsNull() {
			return nil, false
		}
		buf = types.AppendKey(buf, v)
	}
	return buf, true
}

// key appends the entry key of a table row under this index to buf.
func (ix *IndexInfo) key(buf []byte, row types.Row) ([]byte, bool) {
	for _, c := range ix.Cols {
		if row[c].IsNull() {
			return nil, false
		}
		buf = types.AppendKey(buf, row[c])
	}
	return buf, true
}

// first returns the first candidate of entry key k, whose first value
// is v.
func (ix *IndexInfo) first(v types.Value, k []byte) (int64, bool) {
	if n, ok := ix.num(v); ok {
		tid, ok := ix.ints[n]
		return tid, ok
	}
	tid, ok := ix.strs[string(k)]
	return tid, ok
}

// num returns the ints key of a one-column index's value v.
func (ix *IndexInfo) num(v types.Value) (int64, bool) {
	if len(ix.Cols) != 1 {
		return 0, false
	}
	return types.NumKey(v)
}

// rest returns the candidates of entry key k after the first. The list
// is the index's own: read it under t.mu, and do not keep it.
func (ix *IndexInfo) rest(k []byte) []int64 {
	if p := ix.more[string(k)]; p != nil {
		return *p
	}
	return nil
}

// NewTable creates empty storage for the given schema, stamping versions
// from clock (the store's MVCC clock).
func NewTable(schema *catalog.TableSchema, clock *atomic.Int64) *Table {
	t := &Table{Schema: schema, clock: clock, byTID: map[int64]*rowSlot{}}
	if pk := schema.PKIndex(); pk >= 0 {
		t.indexes = append(t.indexes, newIndex("", []int{pk}, true, OriginPK))
	}
	for i, c := range schema.Columns {
		if c.Unique && !c.PrimaryKey {
			t.indexes = append(t.indexes, newIndex("", []int{i}, true, OriginColumn))
		}
	}
	return t
}

func (t *Table) stamp() int64 { return t.clock.Add(1) }

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
			return StoredRow{TID: sl.tid, Values: v.values}, true
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
	return StoredRow{TID: sl.tid, Values: v.values}, true
}

// Indexes returns the table's indexes in planner rank order (see
// Table.indexes). The slice is shared and prebuilt: callers must not
// modify it.
func (t *Table) Indexes() []*IndexInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes
}

// Lookup appends the values and the tid of each row whose ix key equals
// key (one value per index column, in index-key order), as visible at
// snapshot asOf, to rows and tids, and returns the extended slices: a
// scan's batch, or buffers a caller probing once per row passes each
// time. Equality is key equality (types.AppendKey); a key holding a NULL
// finds nothing. Candidates are resolved under the structural lock; the
// visibility walk and the key re-check on the visible version happen
// outside it.
func (t *Table) Lookup(ix *IndexInfo, key types.Row, asOf int64, rows []types.Row, tids []int64) ([]types.Row, []int64) {
	if len(key) != len(ix.Cols) {
		return rows, tids
	}
	var kb, vb [keyBuf]byte
	k, ok := entryKey(kb[:0], key)
	if !ok {
		return rows, tids
	}
	var buf [4]*rowSlot
	cands := buf[:0]
	t.mu.RLock()
	if tid, ok := ix.first(key[0], k); ok {
		rest := ix.rest(k)
		if 1+len(rest) > len(buf) {
			// sized once: no append growth while writers wait on the lock
			cands = make([]*rowSlot, 0, 1+len(rest))
		}
		cands = append(cands, t.byTID[tid])
		for _, tid := range rest {
			cands = append(cands, t.byTID[tid])
		}
	}
	t.mu.RUnlock()
	rows, tids = slices.Grow(rows, len(cands)), slices.Grow(tids, len(cands))
	for _, sl := range cands {
		if v := visibleAt(sl.head.Load(), asOf); v != nil {
			if vk, ok := ix.key(vb[:0], v.values); ok && bytes.Equal(vk, k) {
				rows, tids = append(rows, v.values), append(tids, sl.tid)
			}
		}
	}
	return rows, tids
}

// checkConstraints validates NOT NULL and every unique index for a
// candidate row against the live heads. excludeTID skips one tid during
// uniqueness checks (for updates). Caller holds t.mu.
func (t *Table) checkConstraints(row types.Row, excludeTID int64) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: %s: arity %d, want %d", t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	for i, c := range t.Schema.Columns {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("storage: %s.%s: NOT NULL violated", t.Schema.Name, c.Name)
		}
	}
	var kb [keyBuf]byte
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		k, ok := ix.key(kb[:0], row)
		if !ok {
			if ix.Origin == OriginPK {
				return fmt.Errorf("storage: %s: primary key is NULL", t.Schema.Name)
			}
			continue
		}
		if t.taken(ix, row[ix.Cols[0]], k, excludeTID) {
			switch col := ix.Cols[0]; ix.Origin {
			case OriginPK:
				return fmt.Errorf("storage: %s: duplicate primary key %s", t.Schema.Name, row[col])
			case OriginColumn:
				return fmt.Errorf("storage: %s.%s: duplicate unique value %s", t.Schema.Name, t.Schema.Columns[col].Name, row[col])
			}
			return fmt.Errorf("storage: %s: unique index %s violated", t.Schema.Name, ix.Name)
		}
	}
	return nil
}

// taken reports whether a candidate of entry key k other than
// excludeTID is a live row with that key; v is the key's first value.
// Caller holds t.mu.
func (t *Table) taken(ix *IndexInfo, v types.Value, k []byte, excludeTID int64) bool {
	first, ok := ix.first(v, k)
	if !ok {
		return false
	}
	if first != excludeTID && t.liveMatch(ix, first, k) {
		return true
	}
	for _, tid := range ix.rest(k) {
		if tid != excludeTID && t.liveMatch(ix, tid, k) {
			return true
		}
	}
	return false
}

// liveMatch reports whether tid's live head has entry key k under ix.
// Caller holds t.mu.
func (t *Table) liveMatch(ix *IndexInfo, tid int64, k []byte) bool {
	h := t.byTID[tid].head.Load()
	if h.end.Load() != 0 {
		return false
	}
	var hb [keyBuf]byte
	hk, ok := ix.key(hb[:0], h.values)
	return ok && bytes.Equal(hk, k)
}

// writeRows carries out one row set of op under one table lock, row by
// row in order: an insert adds rows[i] as tids[i], an
// update stamps rows[i] as tids[i]'s new version, a delete end-stamps
// tids[i]. An update's or delete's old receives the values each row
// replaced; they are immutable.
//
// A set fails as a whole. The row that fails takes back the rows before
// it (takeBackLocked) and its index is returned with its error. A trial
// set that does not fail is taken back whole: it only finds the error
// its rows would meet.
func (t *Table) writeRows(op Op, tids []int64, rows, old []types.Row, trial bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, tid := range tids {
		var err error
		switch op {
		case OpInsert:
			err = t.insertLocked(tid, rows[i])
		case OpUpdate:
			old[i], err = t.updateLocked(tid, rows[i])
		case OpDelete:
			old[i], err = t.deleteLocked(tid)
		}
		if err != nil {
			t.takeBackLocked(op, tids[:i], old)
			return i, err
		}
	}
	if trial {
		t.takeBackLocked(op, tids, old)
	}
	return len(tids), nil
}

// takeBackLocked reverses the rows of a set just applied, newest first,
// as undoing them one at a time does: an inserted row is deleted, an
// updated one gets its old values as a new version, a deleted one is
// re-inserted under its tid. Each restores a state the table
// held a moment before, so none can fail. Caller holds t.mu.
func (t *Table) takeBackLocked(op Op, tids []int64, old []types.Row) {
	for j := len(tids) - 1; j >= 0; j-- {
		switch op {
		case OpInsert:
			t.deleteLocked(tids[j])
		case OpUpdate:
			t.updateLocked(tids[j], old[j])
		case OpDelete:
			t.insertLocked(tids[j], old[j])
		}
	}
}

// insertLocked adds a row under an explicit tid. Re-inserting a
// tid whose row was deleted (transaction rollback, replay) extends the
// existing chain and moves the slot to the end, so slot order is always
// order of last insertion regardless of vacuum timing. Caller holds t.mu.
func (t *Table) insertLocked(tid int64, row types.Row) error {
	if err := t.checkConstraints(row, -1); err != nil {
		return err
	}
	sl := t.byTID[tid]
	if sl != nil {
		if h := sl.head.Load(); h != nil && h.end.Load() == 0 {
			return fmt.Errorf("storage: %s: duplicate tid %d", t.Schema.Name, tid)
		}
	}
	v := &version{begin: t.stamp(), values: row}
	var prev types.Row // the indexed version a reinsert extends
	if sl != nil {
		// Rebuild the slice rather than shifting in place: concurrent
		// iterators hold the old array and must not see a slot twice.
		h := sl.head.Load()
		if h != nil {
			prev = h.values
		}
		v.prev.Store(h)
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
	t.indexRowLocked(tid, row, prev)
	return nil
}

// updateLocked stamps a new version for the row with the given tid; the
// tid, and so `_created`, stays (the tuple identity does not change).
// Caller holds t.mu.
func (t *Table) updateLocked(tid int64, row types.Row) (old types.Row, err error) {
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
	v := &version{begin: t.stamp(), values: row}
	v.prev.Store(head)
	head.end.Store(v.begin)
	sl.head.Store(v)
	t.nvers.Add(1)
	t.indexRowLocked(tid, row, head.values)
	return head.values, nil
}

// deleteLocked end-stamps the live version of the row with the given tid
// — the paper's R∆ deferred deletion. The version (and its index entries)
// survive for readers at older snapshots until Vacuum reclaims them.
// Caller holds t.mu.
func (t *Table) deleteLocked(tid int64) (types.Row, error) {
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
// retained versions. Each map is sized for the keys it held, at most one
// a slot, so the rebuild does not regrow it. Caller holds t.mu.
func (t *Table) rebuildIndexesLocked() {
	for _, ix := range t.indexes {
		ix.reset(min(len(ix.ints), len(t.slots)), min(len(ix.strs), len(t.slots)))
	}
	var kb [keyBuf]byte
	for _, sl := range t.slots {
		for _, ix := range t.indexes {
			ix.addChain(sl, kb[:0])
		}
	}
}

// indexRowLocked adds one version's values to the conservative index
// maps; prev is the tid's indexed version it follows, nil for a tid new
// to the table (see add). Entries are never removed outside Vacuum.
// Caller holds t.mu.
func (t *Table) indexRowLocked(tid int64, row, prev types.Row) {
	var kb [keyBuf]byte
	for _, ix := range t.indexes {
		ix.add(tid, row, prev, kb[:0])
	}
}

// addChain adds every retained version of sl, newest first, to an index
// that holds no candidate of sl's tid yet.
func (ix *IndexInfo) addChain(sl *rowSlot, buf []byte) {
	var prev types.Row
	for v := sl.head.Load(); v != nil; v = v.prev.Load() {
		ix.add(sl.tid, v.values, prev, buf)
		prev = v.values
	}
}

// add makes tid a candidate of row's key if it is not one already. prev
// is a version of tid the index already holds, or nil when it holds no
// candidate tid at all. A key prev shares already lists tid; only when
// the key differs from prev's can tid be in the key's list from an older
// version, so only then is the list scanned. The key is built in buf.
func (ix *IndexInfo) add(tid int64, row, prev types.Row, buf []byte) {
	k, ok := ix.key(buf, row)
	if !ok {
		return
	}
	if prev != nil {
		var pb [keyBuf]byte
		if pk, ok := ix.key(pb[:0], prev); ok && bytes.Equal(pk, k) {
			return
		}
	}
	v := row[ix.Cols[0]]
	first, found := ix.first(v, k)
	switch {
	case !found:
		if n, ok := ix.num(v); ok {
			ix.ints[n] = tid
		} else {
			ix.strs[string(k)] = tid
		}
	case first != tid:
		p := ix.more[string(k)]
		if p == nil {
			if ix.more == nil {
				ix.more = map[string]*[]int64{}
			}
			p = new([]int64)
			ix.more[string(k)] = p
		}
		if prev == nil || !slices.Contains(*p, tid) {
			*p = append(*p, tid)
		}
	}
}

// AddIndex builds a named hash index over the given columns, covering
// every retained version so readers at older snapshots can use it too.
// The unique check applies to live rows only.
func (t *Table) AddIndex(name string, cols []string, unique bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := newIndex(name, make([]int, len(cols)), unique, OriginNamed)
	for i, c := range cols {
		if ix.Cols[i] = t.Schema.ColIndex(c); ix.Cols[i] < 0 {
			return fmt.Errorf("storage: no column %q in %s", c, t.Schema.Name)
		}
	}
	for _, o := range t.indexes {
		if o.Name == name {
			return fmt.Errorf("storage: index %q already exists on %s", name, t.Schema.Name)
		}
	}
	var kb [keyBuf]byte
	if unique {
		seen := map[string]bool{}
		for _, sl := range t.slots {
			h := sl.head.Load()
			if k, ok := ix.key(kb[:0], h.values); ok && h.end.Load() == 0 {
				if seen[string(k)] {
					return fmt.Errorf("storage: existing data violates unique index %q", name)
				}
				seen[string(k)] = true
			}
		}
	}
	for _, sl := range t.slots {
		ix.addChain(sl, kb[:0])
	}
	// A fresh slice, re-ranked: constraint indexes keep their place, named
	// ones order by most key columns, then name.
	fresh := append(append(make([]*IndexInfo, 0, len(t.indexes)+1), t.indexes...), ix)
	sort.SliceStable(fresh, func(i, j int) bool {
		a, b := fresh[i], fresh[j]
		switch {
		case a.Origin != OriginNamed || b.Origin != OriginNamed:
			return a.Origin < b.Origin
		case len(a.Cols) != len(b.Cols):
			return len(a.Cols) > len(b.Cols)
		}
		return a.Name < b.Name
	})
	t.indexes = fresh
	return nil
}
