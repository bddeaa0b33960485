package ediflow

import (
	"sync/atomic"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/notify"
	"ediflow/internal/repl"
	"ediflow/internal/server"
	"ediflow/internal/types"
)

// The replica fan-out suite: one edit stream, 8 or 16 mirror
// connections, either all on the primary (Direct) or sharded across two
// WAL-shipping read replicas (Sharded2x). One op is an INSERT confirmed
// by every mirror's NOTIFY.
func BenchmarkReplicaFanoutDirect8(b *testing.B)     { replicaFanout(b, 0, 8) }
func BenchmarkReplicaFanoutSharded2x8(b *testing.B)  { replicaFanout(b, 2, 8) }
func BenchmarkReplicaFanoutDirect16(b *testing.B)    { replicaFanout(b, 0, 16) }
func BenchmarkReplicaFanoutSharded2x16(b *testing.B) { replicaFanout(b, 2, 16) }

// replicaFanout measures the §VI-C notification fan-out of one edit
// stream to `mirrors` mirror connections: every op is one primary
// INSERT, timed until every mirror has received the NOTIFY for it. With
// replicas == 0 all mirrors register on the primary — the pre-replica
// topology, where the primary's notifier writes `mirrors` NOTIFY lines
// per edit. With replicas > 0 the mirrors are sharded round-robin
// across that many WAL-shipping read replicas: the primary ships each
// edit once per replica and the replicas fan out locally, trading an
// extra propagation hop for taking the per-mirror work off the primary.
func replicaFanout(b *testing.B, replicas, mirrors int) {
	pdb := database.MustOpenMemory()
	defer pdb.Close()
	pn, err := notify.NewNotifier(pdb)
	if err != nil {
		b.Fatal(err)
	}
	defer pn.Close()
	if _, err := pdb.Exec("CREATE TABLE bench_obj (id INT PRIMARY KEY, v STRING)"); err != nil {
		b.Fatal(err)
	}

	// Registration targets, one embedded handle per shard.
	targets := []*database.DB{pdb}
	if replicas > 0 {
		srv := server.New(pdb, server.Config{})
		srv.SetRepl(repl.NewPrimary(pdb))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		targets = targets[:0]
		for i := 0; i < replicas; i++ {
			rdb := database.MustOpenMemory()
			defer rdb.Close()
			rn, err := notify.NewNotifier(rdb)
			if err != nil {
				b.Fatal(err)
			}
			defer rn.Close()
			rep := repl.NewReplica(rdb, repl.ReplicaConfig{
				PrimaryAddr: srv.Addr(),
				MinBackoff:  time.Millisecond,
				OnNotify:    rn.PushNotify,
			})
			rep.Start()
			defer rep.Stop()
			targets = append(targets, rdb)
		}
	}

	// Mirrors shard round-robin over the targets; each drain goroutine
	// publishes the highest NOTIFY seq it has seen.
	seen := make([]atomic.Int64, mirrors)
	for m := 0; m < mirrors; m++ {
		cl, err := notify.Connect(targets[m%len(targets)], "bench", "bench_obj")
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		go func(cl *notify.Client, slot *atomic.Int64) {
			for msg := range cl.C {
				if msg.Verb == notify.MsgNotify && msg.Seq > slot.Load() {
					slot.Store(msg.Seq)
				}
			}
		}(cl, &seen[m])
	}

	// Each op is fully confirmed before the next starts, so every edit
	// is its own dispatch batch — one journal row, one NOTIFY per
	// mirror — and "the mirror moved past its previous seq" is exactly
	// "this edit arrived".
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		before := make([]int64, mirrors)
		for m := range seen {
			before[m] = seen[m].Load()
		}
		if _, err := pdb.Exec(
			"INSERT INTO bench_obj (id, v) VALUES (?, 'e')", types.NewInt(int64(i))); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for m := 0; m < mirrors; {
			if seen[m].Load() > before[m] {
				m++
				continue
			}
			if time.Now().After(deadline) {
				b.Fatalf("edit %d never reached mirror %d (seq stuck at %d)", i, m, before[m])
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer()
}
