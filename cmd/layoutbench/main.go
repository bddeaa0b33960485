// Command layoutbench regenerates the §VII-B experiment: the initial
// Edge-LinLog layout runs from random positions to convergence (taking
// long), while the procedure delta handler — which seeds new nodes near
// their laid-out neighbors and warm-restarts — "terminates much faster
// since most of the nodes will only move slightly".
//
//	go run ./cmd/layoutbench [-authors 4500 -edges 10000] [-growth 1,2,5,10]
//
// The default runs at a laptop-friendly 1000 nodes; pass the paper's
// 4500/10000 for the full-scale run (the O(n²) exact repulsion takes a
// few minutes, exactly like the paper's "several minutes to converge").
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"ediflow/internal/graph"
	"ediflow/internal/layout"
	"ediflow/internal/workload/copubs"
)

func main() {
	authors := flag.Int("authors", 1000, "authors (paper: 4500)")
	edges := flag.Int("edges", 2200, "edges (paper: 10000)")
	growthFlag := flag.String("growth", "1,2,5,10", "growth percentages to test")
	baseline := flag.Bool("baseline", true, "also run the cold-restart baseline per growth step")
	flag.Parse()

	var growth []int
	for _, s := range strings.Split(*growthFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("bad growth %q", s)
		}
		growth = append(growth, n)
	}

	ds := copubs.Generate(copubs.Config{Authors: *authors, Edges: *edges, Seed: 2011})
	g := ds.Graph
	fmt.Printf("co-publication graph: %d nodes, %d edges (paper: 4500/10000)\n\n", g.NodeCount(), g.EdgeCount())

	cfg := layout.Config{Seed: 1, MaxIter: 2000, Tolerance: 2e-3}

	// Initial computation: random positions, run to convergence, streaming
	// positions (here just counted).
	streamed := 0
	cfg.OnIteration = func(iter int, pos map[graph.NodeID]layout.Point) { streamed++ }
	t0 := time.Now()
	initial := layout.LinLog(g, cfg)
	initTime := time.Since(t0)
	cfg.OnIteration = nil
	fmt.Printf("initial layout: %d iterations in %v (converged=%v, %d position snapshots streamed)\n",
		initial.Iterations, initTime.Round(time.Millisecond), initial.Converged, streamed)
	fmt.Printf("final energy: %.1f\n\n", initial.FinalEnergy)

	fmt.Printf("%8s %12s %14s %12s %14s %10s\n",
		"growth%", "incr iters", "incr time", "cold iters", "cold time", "speedup")
	positions := initial.Positions
	for _, pct := range growth {
		newNodes := g.NodeCount() * pct / 100
		gr := ds.Grow(newNodes, newNodes)
		_ = gr
		// Incremental: neighbor-seeded warm restart (the delta handler).
		t := time.Now()
		seeded := layout.IncrementalSeed(g, positions, 2)
		warm := layout.LinLogFrom(g, seeded, cfg)
		warmTime := time.Since(t)

		coldIters, coldTime := 0, time.Duration(0)
		if *baseline {
			t = time.Now()
			cold := layout.LinLog(g, cfg)
			coldTime = time.Since(t)
			coldIters = cold.Iterations
		}
		speed := "-"
		if coldIters > 0 && warm.Iterations > 0 {
			speed = fmt.Sprintf("%.1fx", float64(coldIters)/float64(warm.Iterations))
		}
		fmt.Printf("%8d %12d %14s %12d %14s %10s\n",
			pct, warm.Iterations, warmTime.Round(time.Millisecond),
			coldIters, coldTime.Round(time.Millisecond), speed)
		positions = warm.Positions
	}
	fmt.Println("\npaper claim: the incremental handler converges much faster than the initial computation")
}
