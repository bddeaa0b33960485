package engine

import (
	"errors"
	"fmt"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// Replica-side engine support for WAL-shipping replication (see
// internal/repl). A replica engine runs read-only: every mutation is
// rejected with ErrReadOnlyReplica except DML against an explicit
// allowlist of per-node-local tables (mirror registrations in
// ef_connected_user), and replicated state arrives only through
// ApplyReplicated / ApplyReplSnapshot under the write lock.

// ErrReadOnlyReplica is returned for any mutating statement on a
// read-only replica. It is distinct from other engine errors so clients
// can recognize it and redirect writes to the primary.
var ErrReadOnlyReplica = errors.New("engine: read-only replica: writes must go to the primary")

// SetReadOnly switches the engine into replica mode. DML (not DDL)
// against the named tables stays allowed — they hold per-node state
// such as mirror registrations and are excluded from the replication
// stream.
func (e *Engine) SetReadOnly(allowTables ...string) {
	e.mu.Lock()
	e.readOnly = true
	e.replicaAllow = map[string]bool{}
	for _, t := range allowTables {
		e.replicaAllow[strings.ToLower(t)] = true
	}
	e.mu.Unlock()
}

// replicaMayWrite reports whether a statement is allowed despite
// replica mode: DML targeting an allowlisted table. Caller holds e.mu.
func (e *Engine) replicaMayWrite(p *plan) bool {
	return p.mut != nil && e.replicaAllow[strings.ToLower(p.mut.table)]
}

// ReplSnapshot serializes the engine's current state for a subscriber,
// returning the feed cursor the snapshot corresponds to. Runs under
// the write lock so the snapshot is consistent with the returned seq;
// it refuses while a transaction is open (uncommitted rows must not
// ship).
func (e *Engine) ReplSnapshot(exclude ...string) (data []byte, seq uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTxn.Load() {
		return nil, 0, ErrCheckpointTxnOpen
	}
	data, err = e.store.EncodeReplSnapshot(exclude...)
	if err != nil {
		return nil, 0, err
	}
	return data, e.store.ReplHead(), nil
}

// ApplyReplicated applies a batch of shipped records in order, keeping
// the catalog in sync with replicated views and triggers. Rows inserted
// into watchTable (the notification journal) are returned so the
// replication loop can ring local NOTIFY doorbells.
func (e *Engine) ApplyReplicated(recs [][]byte, watchTable string) (watched []types.Row, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Purge after the last catalog change, failed batches included: a
	// plan made while the batch applied is not cached.
	ddl := false
	defer func() {
		if ddl || err != nil {
			e.plans.purge()
		}
	}()
	for _, payload := range recs {
		rec, err := e.store.ApplyReplRecord(payload)
		if err != nil {
			return watched, fmt.Errorf("engine: replicated apply: %w", err)
		}
		switch rec.Op {
		case storage.OpPutMeta:
			err = e.loadMeta(e.cat, rec.Meta, false)
		case storage.OpDelMeta:
			// DROP TABLE ships one of these for each of the table's
			// triggers.
			if rec.Meta.Kind == "view" {
				e.cat.DropView(rec.Meta.Name)
			} else {
				e.cat.DropTrigger(rec.Meta.Name)
			}
		case storage.OpInsert:
			if watchTable != "" && strings.EqualFold(rec.Table, watchTable) {
				watched = append(watched, rec.Rows...)
			}
		}
		if err != nil {
			return watched, err
		}
		ddl = ddl || rec.DDL()
	}
	// One batch of shipped records is the replication unit of atomicity:
	// publish its versions to replica snapshot readers all at once.
	e.store.PublishSnapshot()
	return watched, nil
}

// ApplyReplSnapshot replaces the replica's entire state with a shipped
// snapshot: the store's tables and the catalog are each built aside and
// swapped in whole, so a lock-free reader never finds either part-built.
// Rows of tables named in preserve (per-node-local state) survive.
func (e *Engine) ApplyReplSnapshot(data []byte, preserve ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTxn.Load() {
		return fmt.Errorf("engine: snapshot apply refused: transaction open")
	}
	// Purge once the catalog is swapped: a lock-free SELECT planned
	// against new tables and the old catalog must not stay cached.
	defer e.plans.purge()
	if err := e.store.ResetFromSnapshot(data, preserve...); err != nil {
		return err
	}
	e.views = newViewSet(e)
	cat := catalog.New()
	if err := e.loadCatalog(cat, false); err != nil {
		return err
	}
	e.cat.Replace(cat)
	return nil
}
