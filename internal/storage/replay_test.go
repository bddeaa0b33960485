package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"ediflow/internal/catalog"
	"ediflow/internal/types"
)

// Property: after any random stream of DML, closing and reopening the
// store (WAL replay) reproduces exactly the same tables, rows, system
// columns and counters — the crash-consistency contract.
func TestReplayEquivalenceRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			schema := &catalog.TableSchema{
				Name: "t",
				Columns: []catalog.Column{
					{Name: "a", Type: types.KindInt},
					{Name: "s", Type: types.KindString},
				},
			}
			if err := s.CreateTable(schema); err != nil {
				t.Fatal(err)
			}
			var live []int64
			for op := 0; op < 300; op++ {
				switch {
				case len(live) < 3 || rng.Intn(3) == 0:
					tids, err := s.InsertRows("t", []types.Row{{
						types.NewInt(int64(rng.Intn(1000))),
						types.NewString(fmt.Sprintf("s%d", rng.Intn(50))),
					}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, tids...)
				case rng.Intn(2) == 0:
					i := rng.Intn(len(live))
					if _, err := s.UpdateRows("t", []int64{live[i]}, []types.Row{{
						types.NewInt(int64(rng.Intn(1000))),
						types.NewString("updated"),
					}}, nil); err != nil {
						t.Fatal(err)
					}
				default:
					i := rng.Intn(len(live))
					if _, err := s.DeleteRows("t", []int64{live[i]}); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
				}
				// Occasionally checkpoint mid-stream.
				if op == 150 && seed%2 == 0 {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Capture the full state.
			capture := func(st *Store) map[int64]string {
				out := map[int64]string{}
				for _, r := range st.Table("t").Rows() {
					key := ""
					for _, v := range r.Values {
						key += v.String() + "|"
					}
					out[r.TID] = key
				}
				return out
			}
			before := capture(s)
			nextTID := s.nextTID.Load()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			after := capture(s2)
			if len(after) != len(before) {
				t.Fatalf("row count: %d vs %d", len(after), len(before))
			}
			for tid, want := range before {
				got, ok := after[tid]
				if !ok || got != want {
					t.Fatalf("tid %d: %+v vs %+v", tid, got, want)
				}
			}
			if s2.nextTID.Load() != nextTID {
				t.Fatalf("tid counter: %d vs %d", s2.nextTID.Load(), nextTID)
			}
		})
	}
}
