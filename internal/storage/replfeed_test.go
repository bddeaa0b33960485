package storage

import (
	"bytes"
	"errors"
	"testing"

	"ediflow/internal/types"
)

// TestReplFeedCaptureApply: records captured by the feed replay through
// ApplyReplRecord into a second store that then encodes byte-identical
// replication state.
func TestReplFeedCaptureApply(t *testing.T) {
	src, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.EnableReplFeed(0)

	if err := src.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		tids, err := src.InsertRows("users", []types.Row{{
			types.NewInt(i), types.NewString("u"), types.Null}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := src.UpdateRows("users", tids, []types.Row{{
				types.NewInt(i), types.NewString("up"), types.Null}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if head, floor := src.ReplHead(), src.ReplFloor(); head == 0 || floor != 1 {
		t.Fatalf("feed head=%d floor=%d after writes", head, floor)
	}

	dst, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	cursor := uint64(0)
	for {
		recs, next, head, err := src.ReplFetch(cursor, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			if _, err := dst.ApplyReplRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		cursor = next
		if cursor >= head {
			break
		}
	}

	want, err := src.EncodeReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.EncodeReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed store state differs: %d vs %d bytes", len(got), len(want))
	}
}

// TestReplFeedGapAfterCheckpoint: a checkpoint prunes the feed, so a
// cursor below the new floor must get ErrReplGap — the signal for a
// snapshot resync — while a cursor at the head still works.
func TestReplFeedGapAfterCheckpoint(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableReplFeed(0)
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := s.InsertRows("users", []types.Row{{
			types.NewInt(i), types.NewString("u"), types.Null}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	head := s.ReplHead()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if floor := s.ReplFloor(); floor != head+1 {
		t.Fatalf("floor after checkpoint = %d, want %d", floor, head+1)
	}
	if _, _, _, err := s.ReplFetch(0, 1<<20); !errors.Is(err, ErrReplGap) {
		t.Fatalf("fetch below floor: err=%v, want ErrReplGap", err)
	}
	// The head cursor is still valid: caught-up replicas survive
	// checkpoints without resync.
	if recs, _, _, err := s.ReplFetch(head, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("fetch at head after checkpoint: recs=%d err=%v", len(recs), err)
	}
	// New writes after the prune stream normally from the head cursor.
	if _, err := s.InsertRows("users", []types.Row{{
		types.NewInt(11), types.NewString("u"), types.Null}}, nil); err != nil {
		t.Fatal(err)
	}
	recs, next, _, err := s.ReplFetch(head, 1<<20)
	if err != nil || len(recs) != 1 || next != head+1 {
		t.Fatalf("fetch after post-checkpoint write: recs=%d next=%d err=%v", len(recs), next, err)
	}
}

// TestReplFeedByteBudget: the in-memory ring is bounded — captures past
// the budget advance the floor instead of growing without limit.
func TestReplFeedByteBudget(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableReplFeed(4 << 10) // tiny 4 KB budget
	if err := s.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 512)
	for i := range big {
		big[i] = 'x'
	}
	for i := int64(1); i <= 100; i++ {
		if _, err := s.InsertRows("users", []types.Row{{
			types.NewInt(i), types.NewString(string(big)), types.Null}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if floor := s.ReplFloor(); floor <= 1 {
		t.Fatalf("floor never advanced under byte pressure: %d", floor)
	}
	if lag := s.ReplLagBytes(s.ReplFloor() - 1); lag > 8<<10 {
		t.Fatalf("retained bytes %d exceed budget headroom", lag)
	}
	if _, _, _, err := s.ReplFetch(0, 1<<20); !errors.Is(err, ErrReplGap) {
		t.Fatalf("fetch below pruned floor: err=%v, want ErrReplGap", err)
	}
}
