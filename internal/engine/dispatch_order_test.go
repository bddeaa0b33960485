package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/storage"
)

// TestDispatchGlobalSeqOrder: with concurrent autocommit writers, change
// events must reach trigger handlers and observers in global Seq order —
// not merely ordered within one drain. Regression for the review finding
// where a committer descheduled between releasing the engine lock and
// enqueueing its events could deliver seq N after seq N+1 had fully
// drained, making the notifier insert ef_notification rows out of order
// and permanently hiding them from "WHERE seq_no > last_seq" mirrors.
// The durable SyncCommit store makes the post-lock durability wait real,
// so committers genuinely interleave around the shared fsync.
func TestDispatchGlobalSeqOrder(t *testing.T) {
	st, err := storage.OpenWith(t.TempDir(), storage.Options{Sync: storage.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, "CREATE TABLE evts (id INT PRIMARY KEY, w INT)")

	var mu sync.Mutex
	var viaHandler []int64
	var viaObserver []int64
	record := func(dst *[]int64) func([]ChangeEvent) {
		return func(evs []ChangeEvent) {
			mu.Lock()
			for _, ev := range evs {
				*dst = append(*dst, ev.Seq)
			}
			mu.Unlock()
		}
	}
	e.RegisterBatchHandler("rec", record(&viaHandler))
	mustExec(t, e, "CREATE TRIGGER rec_t AFTER INSERT ON evts CALL 'rec'")
	e.ObserveBatch(record(&viaObserver))

	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sql := fmt.Sprintf("INSERT INTO evts VALUES (%d, %d)", w*per+i, w)
				if _, err := e.Exec(sql); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every Exec returns only after its settle; the last active
	// dispatcher drained all settled entries before returning, so
	// delivery is complete here.

	check := func(name string, seqs []int64) {
		t.Helper()
		if len(seqs) != writers*per {
			t.Fatalf("%s: delivered %d events, want %d", name, len(seqs), writers*per)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("%s: seq %d delivered at position %d after seq %d — events out of global seq order",
					name, seqs[i], i, seqs[i-1])
			}
		}
	}
	check("trigger handler", viaHandler)
	check("observer", viaObserver)
}

// TestDispatchHoldsBackAbortedEntries: an entry whose durability wait
// failed must be skipped by the dispatcher without blocking delivery of
// later durable entries (events held back on flush error, PR-4
// contract). Exercised indirectly here via the in-memory fast path plus
// a direct settle of a synthetic aborted entry ahead of a durable one.
func TestDispatchHoldsBackAbortedEntries(t *testing.T) {
	e := newTestDB(t)
	var got []int64
	e.ObserveBatch(func(evs []ChangeEvent) {
		for _, ev := range evs {
			got = append(got, ev.Seq)
		}
	})

	e.mu.Lock()
	bad := e.enqueueLocked([]ChangeEvent{{Seq: 1, Table: "t", Op: OpInsert}})
	good := e.enqueueLocked([]ChangeEvent{{Seq: 2, Table: "t", Op: OpInsert}})
	e.mu.Unlock()

	// The later entry resolves first: nothing may deliver while the
	// unresolved head blocks the queue.
	e.settle(good, true)
	if len(got) != 0 {
		t.Fatalf("delivered %v before the queue head resolved", got)
	}
	// The head aborts: it must be dropped and the durable successor
	// delivered.
	e.settle(bad, false)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("delivered %v, want exactly the durable entry's seq [2]", got)
	}
}

// TestDeliverOneBatch pins the order of one drained batch: each trigger
// handler fires once with exactly its (table, op) events in seq order,
// handlers in the order of their first matching event, then each
// observer with the whole batch in registration order. A handler's
// nested Exec is delivered after the batch and before the outer Exec
// returns.
func TestDeliverOneBatch(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE a (n INT)")
	mustExec(t, e, "CREATE TABLE b (n INT)")
	mustExec(t, e, "CREATE TABLE side (n INT)")
	var log []string
	record := func(name string) func([]ChangeEvent) {
		return func(evs []ChangeEvent) {
			var parts []string
			for i, ev := range evs {
				if i > 0 && ev.Seq <= evs[i-1].Seq {
					t.Errorf("%s: seq %d after seq %d", name, ev.Seq, evs[i-1].Seq)
				}
				parts = append(parts, ev.Table+"."+string(ev.Op))
			}
			log = append(log, name+": "+strings.Join(parts, " "))
		}
	}
	// hb registers first but matches later: handlers fire by first match.
	e.RegisterBatchHandler("hb", record("hb"))
	ha := record("ha")
	e.RegisterBatchHandler("ha", func(evs []ChangeEvent) {
		ha(evs)
		if _, err := e.Exec("INSERT INTO side VALUES (1)"); err != nil {
			t.Errorf("nested exec: %v", err)
		}
		log = append(log, "ha: nested Exec returned")
	})
	mustExec(t, e, "CREATE TRIGGER ta AFTER INSERT ON a CALL 'ha'")
	mustExec(t, e, "CREATE TRIGGER tb AFTER UPDATE ON b CALL 'hb'")
	e.ObserveBatch(record("o1"))
	e.ObserveBatch(record("o2"))

	mustExec(t, e, "BEGIN")
	mustExec(t, e, "INSERT INTO b VALUES (1), (2)")
	mustExec(t, e, "INSERT INTO a VALUES (1)")
	mustExec(t, e, "UPDATE b SET n = n + 10")
	mustExec(t, e, "INSERT INTO a VALUES (2), (3)")
	mustExec(t, e, "UPDATE b SET n = 0 WHERE n = 11")
	if len(log) != 0 {
		t.Fatalf("delivered inside the transaction: %q", log)
	}
	mustExec(t, e, "COMMIT")
	all := "b.INSERT a.INSERT b.UPDATE a.INSERT b.UPDATE"
	want := []string{
		"ha: a.INSERT a.INSERT",
		"ha: nested Exec returned",
		"hb: b.UPDATE b.UPDATE",
		"o1: " + all,
		"o2: " + all,
		"o1: side.INSERT",
		"o2: side.INSERT",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("delivery\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}

// TestHandlerOfTwoTriggersGetsEachEventOnce: a handler named by two
// triggers on the same (table, op) receives each event once.
func TestHandlerOfTwoTriggersGetsEachEventOnce(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE t (n INT)")
	var calls [][]ChangeEvent
	e.RegisterBatchHandler("noop", func(evs []ChangeEvent) { calls = append(calls, evs) })
	mustExec(t, e, "CREATE TRIGGER t1 AFTER INSERT ON t CALL 'noop'")
	mustExec(t, e, "CREATE TRIGGER t2 AFTER INSERT ON t CALL 'noop'")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	if len(calls) != 1 || len(calls[0]) != 1 {
		t.Fatalf("want one call with one event, got %d calls: %v", len(calls), calls)
	}
}
