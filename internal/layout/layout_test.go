package layout

import (
	"math"
	"testing"

	"ediflow/internal/graph"
)

func testGraph(n int, seed int64) *graph.Graph {
	return graph.GenerateCommunity(graph.CommunityConfig{
		Nodes: n, Communities: 5, AvgDegree: 4, Seed: seed,
	})
}

func TestLinLogConvergesAndReducesEnergy(t *testing.T) {
	g := testGraph(120, 1)
	// Energy at random positions.
	initial := LinLogFrom(g, nil, Config{Seed: 2, MaxIter: 1})
	e0 := initial.FinalEnergy
	res := LinLog(g, Config{Seed: 2, MaxIter: 300})
	if len(res.Positions) != g.NodeCount() {
		t.Fatalf("positions: %d", len(res.Positions))
	}
	if res.FinalEnergy >= e0 {
		t.Fatalf("energy did not decrease: %f → %f", e0, res.FinalEnergy)
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations: %d", res.Iterations)
	}
}

func TestLinLogEmptyAndSingleton(t *testing.T) {
	g := graph.New()
	res := LinLog(g, Config{})
	if !res.Converged || len(res.Positions) != 0 {
		t.Fatalf("%+v", res)
	}
	g.AddNode(1, "only")
	res = LinLog(g, Config{MaxIter: 10})
	if len(res.Positions) != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestLinLogSeparatesCommunities(t *testing.T) {
	// Two cliques joined by one edge must end up with intra-clique
	// distances smaller than the inter-clique distance.
	g := graph.New()
	for i := 1; i <= 8; i++ {
		g.AddNode(graph.NodeID(i), "")
	}
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	for i := 5; i <= 8; i++ {
		for j := i + 1; j <= 8; j++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	g.AddEdge(4, 5, 1)
	res := LinLog(g, Config{Seed: 3, MaxIter: 500})
	intra := avgDist(res.Positions, []graph.NodeID{1, 2, 3, 4})
	inter := dist(centroid(res.Positions, []graph.NodeID{1, 2, 3, 4}), centroid(res.Positions, []graph.NodeID{5, 6, 7, 8}))
	if inter < intra {
		t.Fatalf("communities not separated: intra=%f inter=%f", intra, inter)
	}
}

func TestIncrementalSeedPlacement(t *testing.T) {
	g := testGraph(50, 4)
	res := LinLog(g, Config{Seed: 4, MaxIter: 200})
	// Add a node connected to 1 and 2.
	g.AddNode(1000, "new")
	g.AddEdge(1000, 1, 1)
	g.AddEdge(1000, 2, 1)
	// And a disconnected one.
	g.AddNode(1001, "lonely")
	pos := IncrementalSeed(g, res.Positions, 9)
	p1, p2 := res.Positions[1], res.Positions[2]
	cx, cy := (p1.X+p2.X)/2, (p1.Y+p2.Y)/2
	np := pos[1000]
	if math.Hypot(np.X-cx, np.Y-cy) > 1.0 {
		t.Fatalf("new node placed far from neighbor centroid: %+v vs (%f,%f)", np, cx, cy)
	}
	if _, ok := pos[1001]; !ok {
		t.Fatal("disconnected node missing")
	}
	// Old nodes keep their positions exactly.
	for _, id := range []graph.NodeID{1, 2, 3} {
		if pos[id] != res.Positions[id] {
			t.Fatalf("old node %d moved during seeding", id)
		}
	}
}

// The §VII-B result: incremental relayout converges in far fewer
// iterations than a cold start.
func TestIncrementalConvergesFaster(t *testing.T) {
	g := testGraph(150, 5)
	cold := LinLog(g, Config{Seed: 5, MaxIter: 1000, Tolerance: 2e-3})
	if !cold.Converged {
		t.Fatalf("cold layout did not converge in %d iterations", cold.Iterations)
	}
	// Insert 2% new nodes attached to existing ones.
	for i := 0; i < 3; i++ {
		id := graph.NodeID(10000 + i)
		g.AddNode(id, "new")
		g.AddEdge(id, graph.NodeID(i*3+1), 1)
		g.AddEdge(id, graph.NodeID(i*5+2), 1)
	}
	warm := LinLogFrom(g, IncrementalSeed(g, cold.Positions, 6), Config{Seed: 6, MaxIter: 1000, Tolerance: 2e-3})
	if !warm.Converged {
		t.Fatalf("incremental layout did not converge in %d iterations", warm.Iterations)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("incremental (%d iters) not faster than cold start (%d iters)",
			warm.Iterations, cold.Iterations)
	}
}

func TestOnIterationStreamsPositions(t *testing.T) {
	g := testGraph(30, 7)
	var calls int
	var lastIter int
	LinLog(g, Config{Seed: 7, MaxIter: 25, Tolerance: 1e-12, OnIteration: func(iter int, pos map[graph.NodeID]Point) {
		calls++
		lastIter = iter
		if len(pos) != g.NodeCount() {
			t.Fatalf("streamed %d positions", len(pos))
		}
	}})
	if calls != 25 || lastIter != 25 {
		t.Fatalf("calls=%d lastIter=%d", calls, lastIter)
	}
}

func TestFruchtermanReingoldBaseline(t *testing.T) {
	g := testGraph(100, 9)
	res := FruchtermanReingold(g, Config{Seed: 9, MaxIter: 200})
	if len(res.Positions) != g.NodeCount() {
		t.Fatalf("positions: %d", len(res.Positions))
	}
	// Not all positions coincide.
	var distinct int
	seen := map[Point]bool{}
	for _, p := range res.Positions {
		if !seen[p] {
			seen[p] = true
			distinct++
		}
	}
	if distinct < g.NodeCount()/2 {
		t.Fatalf("positions collapsed: %d distinct", distinct)
	}
	empty := FruchtermanReingold(graph.New(), Config{})
	if !empty.Converged {
		t.Fatal("empty graph must converge")
	}
}

func avgDist(pos map[graph.NodeID]Point, ids []graph.NodeID) float64 {
	var s float64
	var n int
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			s += dist(pos[ids[i]], pos[ids[j]])
			n++
		}
	}
	return s / float64(n)
}

func centroid(pos map[graph.NodeID]Point, ids []graph.NodeID) Point {
	var c Point
	for _, id := range ids {
		c.X += pos[id].X
		c.Y += pos[id].Y
	}
	c.X /= float64(len(ids))
	c.Y /= float64(len(ids))
	return c
}

func dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }
