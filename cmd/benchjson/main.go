// Command benchjson runs a benchmark suite through testing.Benchmark
// and writes machine-readable results to a JSON file. It drives exactly
// the workloads behind the repository-root benchmarks — see
// internal/benchkit — so the JSON numbers are the numbers `go test
// -bench` prints, minus the formatting.
//
// Usage:
//
//	go run ./cmd/benchjson -suite fanout -out results/BENCH_6.json
//	go run ./cmd/benchjson -suite firehose -out results/BENCH_9.json
//
// The fanout suite is the §VI-C mirror fan-out of one edit stream,
// direct vs sharded across WAL-shipping read replicas
// (BenchmarkReplicaFanout*); the firehose suite is the §V
// reactive-ingestion latency/rate curve —
// a rate ladder of paced event streams through trigger → IVM → delta
// handler → NOTIFY, with a full-recompute divergence check at each
// point (BenchmarkFirehose*).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"ediflow/internal/benchkit"
	"ediflow/internal/workload/firehose"
)

// Result is one benchmark line: the standard ns/op and B/op plus
// suite-specific fields — notifies-per-edit for the fanout suite (how
// many NOTIFY deliveries one edit cost across all mirrors) or the
// target/achieved rate and propagation-latency percentiles for the
// firehose suite (the latency/rate curve of the reactive pipeline).
type Result struct {
	Bench           string  `json:"bench"`
	N               int     `json:"n"`
	NsPerOp         float64 `json:"ns/op"`
	BytesPerOp      int64   `json:"B/op"`
	NotifiesPerEdit float64 `json:"notifies_per_edit,omitempty"`
	TargetRate      int     `json:"target_rate,omitempty"`
	AchievedRate    float64 `json:"achieved_events_per_s,omitempty"`
	LatP50Ms        float64 `json:"latency_p50_ms,omitempty"`
	LatP99Ms        float64 `json:"latency_p99_ms,omitempty"`
	Deltas          int64   `json:"handler_deltas,omitempty"`
	Coalesced       int64   `json:"coalesced,omitempty"`
}

func main() {
	suite := flag.String("suite", "fanout", "benchmark suite: fanout or firehose")
	out := flag.String("out", "", "output JSON path (default results/BENCH_<n>.json by suite)")
	flag.Parse()

	var results []Result
	switch *suite {
	case "fanout":
		if *out == "" {
			*out = "results/BENCH_6.json"
		}
		type spec struct {
			name              string
			replicas, mirrors int
		}
		specs := []spec{
			{"ReplicaFanoutDirect8", 0, 8},
			{"ReplicaFanoutSharded2x8", 2, 8},
			{"ReplicaFanoutDirect16", 0, 16},
			{"ReplicaFanoutSharded2x16", 2, 16},
			{"ReplicaFanoutDirect32", 0, 32},
			{"ReplicaFanoutSharded4x32", 4, 32},
		}
		for _, sp := range specs {
			var stats benchkit.FanoutStats
			r := testing.Benchmark(func(b *testing.B) { stats = benchkit.ReplicaFanout(b, sp.replicas, sp.mirrors) })
			ratio := 0.0
			if stats.Edits > 0 {
				ratio = float64(stats.Notifies) / float64(stats.Edits)
			}
			res := Result{
				Bench:           sp.name,
				N:               r.N,
				NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:      r.AllocedBytesPerOp(),
				NotifiesPerEdit: ratio,
			}
			fmt.Printf("%-26s %10d iters  %12.0f ns/op  %8d B/op  %.2f notifies/edit\n",
				res.Bench, res.N, res.NsPerOp, res.BytesPerOp, res.NotifiesPerEdit)
			results = append(results, res)
		}
	case "firehose":
		if *out == "" {
			*out = "results/BENCH_9.json"
		}
		// The latency/rate curve of the batched reactive pipeline: each
		// point paces b.N events at the target rate through trigger → IVM
		// → delta handler → NOTIFY, with a view-divergence check inside
		// the harness. Points past saturation report the best-effort
		// achieved rate, so the curve shows exactly where the pipeline
		// tops out.
		rates := []int{10_000, 25_000, 50_000, 100_000, 150_000}
		for _, rate := range rates {
			rate := rate
			var stats firehose.Stats
			r := testing.Benchmark(func(b *testing.B) { stats = benchkit.Firehose(b, rate) })
			res := Result{
				Bench:        fmt.Sprintf("Firehose%dk", rate/1000),
				N:            r.N,
				NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
				TargetRate:   rate,
				AchievedRate: stats.AchievedRate,
				LatP50Ms:     float64(stats.P50.Microseconds()) / 1000,
				LatP99Ms:     float64(stats.P99.Microseconds()) / 1000,
				Deltas:       stats.HandlerDeltas,
				Coalesced:    stats.Coalesced,
			}
			fmt.Printf("%-14s %9d events  target %7d/s  achieved %9.0f/s  p50 %8.3f ms  p99 %8.3f ms  %5d deltas\n",
				res.Bench, res.N, res.TargetRate, res.AchievedRate, res.LatP50Ms, res.LatP99Ms, res.Deltas)
			results = append(results, res)
		}
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q (want fanout or firehose)\n", *suite)
		os.Exit(2)
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
