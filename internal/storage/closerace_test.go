package storage

import (
	"sync"
	"testing"

	"ediflow/internal/fault"
	"ediflow/internal/types"
)

// TestCommitCloseRace: Commit runs outside the engine write lock now, so
// a committer can be in flight while Close tears the store down.
// Regression for the review finding where Close nil'ed s.wal without
// synchronization: a committer that had passed the wal check, observed
// the flusher stopped, and entered the inline fsync path would hit a nil
// walWriter (panic) or flush a closing file. A commit that loses the
// race must fail (errClosed) rather than be acknowledged — never panic.
func TestCommitCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		mem := fault.NewMemFS()
		s, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := s.CreateTable(userSchema()); err != nil {
			t.Fatal(err)
		}
		// Appends are engine-lock-serialized with Close in the real
		// system, so only Commit races Close here.
		if _, err := s.InsertRows("users", []types.Row{{types.NewInt(1), types.NewString("x"), types.Null}}, nil); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					// Acknowledged (nil) or errClosed are both fine;
					// panicking or hanging is the bug.
					s.Commit() //nolint:errcheck
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
}

// TestCommitAfterCloseFailsLoudly: once the store is closed a Commit
// must not be acknowledged as durable.
func TestCommitAfterCloseFailsLoudly(t *testing.T) {
	mem := fault.NewMemFS()
	s, err := OpenWith("db", Options{Sync: SyncCommit, FS: mem})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("Commit after Close acknowledged durability on a closed WAL")
	}
}
