// Package layout implements graph layout for the visualization layer:
// Noack's edge-repulsion LinLog energy model (§VII-B uses "the Edge
// LinLog algorithm of Noack which is among the very best for social
// networks") with
//
//   - an initial computation that starts from random positions and runs
//     iteratively to convergence, streaming intermediate positions through
//     a callback ("saving the positions every second ... allows the system
//     to appear reactive");
//   - an incremental delta handler that assigns each new node a position
//     close to its already-laid-out neighbors (random for disconnected
//     nodes) and warm-restarts the iteration, converging much faster
//     because most nodes barely move — the paper's headline §VII-B result;
//   - a Fruchterman–Reingold force-directed baseline for comparison.
package layout

import (
	"math"
	"math/rand"

	"ediflow/internal/graph"
)

// Point is a 2-D position.
type Point struct {
	X, Y float64
}

// Config controls the iteration.
type Config struct {
	// Seed drives random initial placement and jitter.
	Seed int64
	// MaxIter bounds the number of iterations (default 400).
	MaxIter int
	// Tolerance is the convergence threshold on mean displacement,
	// relative to the layout scale (default 1e-3).
	Tolerance float64
	// OnIteration, if set, receives the live positions after each
	// iteration — the hook used to stream positions into the
	// VisualAttributes table at any rate until the algorithm stops.
	OnIteration func(iter int, pos map[graph.NodeID]Point)
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 400
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-3
	}
	return c
}

// Result reports a layout computation.
type Result struct {
	Positions   map[graph.NodeID]Point
	Iterations  int
	Converged   bool
	FinalEnergy float64
}

// LinLog lays out g from random initial positions.
func LinLog(g *graph.Graph, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := map[graph.NodeID]Point{}
	scale := math.Sqrt(float64(g.NodeCount())) + 1
	for _, id := range g.Nodes() {
		pos[id] = Point{X: rng.Float64() * scale, Y: rng.Float64() * scale}
	}
	return LinLogFrom(g, pos, cfg)
}

// IncrementalSeed produces warm-start positions after a graph change:
// existing nodes keep their positions, new nodes are placed at the
// centroid of their laid-out neighbors plus jitter ("to each new node it
// assigns a position that is close to their neighbors that have already
// been laid out"), and disconnected new nodes get random positions.
func IncrementalSeed(g *graph.Graph, old map[graph.NodeID]Point, seed int64) map[graph.NodeID]Point {
	rng := rand.New(rand.NewSource(seed))
	scale := math.Sqrt(float64(g.NodeCount())) + 1
	pos := make(map[graph.NodeID]Point, g.NodeCount())
	for _, id := range g.Nodes() {
		if p, ok := old[id]; ok {
			pos[id] = p
		}
	}
	for _, id := range g.Nodes() {
		if _, ok := pos[id]; ok {
			continue
		}
		var cx, cy float64
		n := 0
		for _, nb := range g.Neighbors(id) {
			if p, ok := pos[nb]; ok {
				cx += p.X
				cy += p.Y
				n++
			}
		}
		if n > 0 {
			jitter := scale * 0.02
			pos[id] = Point{
				X: cx/float64(n) + (rng.Float64()-0.5)*jitter,
				Y: cy/float64(n) + (rng.Float64()-0.5)*jitter,
			}
		} else {
			pos[id] = Point{X: rng.Float64() * scale, Y: rng.Float64() * scale}
		}
	}
	return pos
}

// LinLogFrom lays out g starting from the given positions (warm start for
// the incremental handler). Nodes missing from initial get random
// positions.
func LinLogFrom(g *graph.Graph, initial map[graph.NodeID]Point, cfg Config) *Result {
	cfg = cfg.withDefaults()
	nodes := g.Nodes()
	n := len(nodes)
	res := &Result{Positions: map[graph.NodeID]Point{}}
	if n == 0 {
		res.Converged = true
		return res
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	scale := math.Sqrt(float64(n)) + 1

	idx := make(map[graph.NodeID]int, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	mass := make([]float64, n) // repulsion charge: weighted degree + 1
	for i, id := range nodes {
		idx[id] = i
		if p, ok := initial[id]; ok {
			xs[i], ys[i] = p.X, p.Y
		} else {
			xs[i], ys[i] = rng.Float64()*scale, rng.Float64()*scale
		}
		mass[i] = g.WeightedDegree(id) + 1
	}
	type edge struct {
		a, b int
		w    float64
	}
	edges := make([]edge, 0, g.EdgeCount())
	sumW := 0.0
	for _, e := range g.Edges() {
		edges = append(edges, edge{a: idx[e.A], b: idx[e.B], w: e.Weight})
		sumW += e.Weight
	}
	// Normalize repulsion so the equilibrium diameter is ≈ scale: uniform
	// expansion by s changes the energy by A·s − Q·ln s with A ≈ Σw and
	// Q = Σ_pairs q_a·q_b, giving s* = Q/A. Scaling every pair charge by
	// repNorm = A·scale/Q pins s* ≈ scale (only relative distances carry
	// meaning in the LinLog model).
	repNorm := repulsionNorm(sumW, mass, scale)
	for i := range mass {
		mass[i] *= math.Sqrt(repNorm)
	}

	fx := make([]float64, n)
	fy := make([]float64, n)
	prevX := make([]float64, n)
	prevY := make([]float64, n)

	// computeForces fills fx/fy with −∇U and returns the LinLog energy U
	// of the current configuration (energy and gradient share every term,
	// so they are computed together).
	computeForces := func() float64 {
		const eps = 1e-6
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		var energy float64
		// Attraction along edges: U += w·||d||; force on a is w·unit(d).
		for _, e := range edges {
			dx := xs[e.b] - xs[e.a]
			dy := ys[e.b] - ys[e.a]
			r := math.Hypot(dx, dy)
			energy += e.w * r
			if r < eps {
				continue
			}
			f := e.w / r
			fx[e.a] += f * dx
			fy[e.a] += f * dy
			fx[e.b] -= f * dx
			fy[e.b] -= f * dy
		}
		// Repulsion between node pairs: U −= q_a·q_b·ln r; force on a is
		// −q_a·q_b·unit(d)/r.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := xs[j] - xs[i]
				dy := ys[j] - ys[i]
				r2 := dx*dx + dy*dy
				if r2 < eps {
					// Coincident points: nudge apart deterministically.
					dx, dy, r2 = eps*float64(i+1), eps*float64(j+1), eps
				}
				q := mass[i] * mass[j]
				energy -= q * 0.5 * math.Log(r2)
				f := q / r2
				fx[i] -= f * dx
				fy[i] -= f * dy
				fx[j] += f * dx
				fy[j] += f * dy
			}
		}
		return energy
	}

	// Energy-guided adaptive descent: a step that increases energy is
	// reverted and halved; successful steps grow. Convergence is declared
	// when the applied mean displacement falls under the tolerance.
	step := 0.01
	cap := scale * 0.1
	prevEnergy := math.Inf(1)
	converged := false
	seenRevert := false // the step must overshoot once before small moves count
	iters := 0
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		iters = iter
		energy := computeForces()
		if energy > prevEnergy {
			// Worse than before the last move: revert and shrink.
			copy(xs, prevX)
			copy(ys, prevY)
			step *= 0.5
			seenRevert = true
			if step < 1e-9 {
				converged = true
				break
			}
			continue
		}
		prevEnergy = energy
		copy(prevX, xs)
		copy(prevY, ys)
		var moved, maxMoved float64
		for i := 0; i < n; i++ {
			dx := fx[i] * step
			dy := fy[i] * step
			d := math.Hypot(dx, dy)
			if d > cap {
				dx = dx / d * cap
				dy = dy / d * cap
				d = cap
			}
			xs[i] += dx
			ys[i] += dy
			moved += d
			if d > maxMoved {
				maxMoved = d
			}
		}
		step *= 1.1
		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, snapshotPositions(nodes, xs, ys))
		}
		// Converged when the layout is globally quiet (mean displacement)
		// AND no single node is still traveling (max displacement) — the
		// latter matters for warm restarts, where a handful of freshly
		// inserted nodes must settle while everything else stays put. The
		// growing step must have overshot at least once, otherwise early
		// iterations with a still-tiny step would trivially qualify.
		if seenRevert && moved/float64(n) < cfg.Tolerance*scale && maxMoved < 10*cfg.Tolerance*scale {
			converged = true
			break
		}
	}
	// The last accepted configuration is prevX/prevY unless the loop moved
	// past it; report the better of the two.
	final := snapshotPositions(nodes, xs, ys)
	finalE := Energy(g, final)
	prev := snapshotPositions(nodes, prevX, prevY)
	if prevE := Energy(g, prev); prevE < finalE && prevEnergy != math.Inf(1) {
		final, finalE = prev, prevE
	}
	res.Positions = final
	res.Iterations = iters
	res.Converged = converged
	res.FinalEnergy = finalE
	return res
}

func snapshotPositions(nodes []graph.NodeID, xs, ys []float64) map[graph.NodeID]Point {
	out := make(map[graph.NodeID]Point, len(nodes))
	for i, id := range nodes {
		out[id] = Point{X: xs[i], Y: ys[i]}
	}
	return out
}

// repulsionNorm computes the charge normalization factor pinning the
// equilibrium diameter to scale (see LinLogFrom).
func repulsionNorm(sumW float64, mass []float64, scale float64) float64 {
	if sumW <= 0 {
		sumW = 1
	}
	var sumQ, sumQ2 float64
	for _, q := range mass {
		sumQ += q
		sumQ2 += q * q
	}
	pairQ := (sumQ*sumQ - sumQ2) / 2
	if pairQ <= 0 {
		return 1
	}
	return sumW * scale / pairQ
}

// Energy computes the normalized LinLog energy U(x) = Σ_edges w·||d|| −
// repNorm·Σ_pairs q_a·q_b·ln||d|| (lower is better), using the same charge
// normalization as the solver so values are comparable across runs.
func Energy(g *graph.Graph, pos map[graph.NodeID]Point) float64 {
	nodes := g.Nodes()
	var u, sumW float64
	for _, e := range g.Edges() {
		pa, pb := pos[e.A], pos[e.B]
		u += e.Weight * math.Hypot(pb.X-pa.X, pb.Y-pa.Y)
		sumW += e.Weight
	}
	mass := make([]float64, len(nodes))
	for i, id := range nodes {
		mass[i] = g.WeightedDegree(id) + 1
	}
	scale := math.Sqrt(float64(len(nodes))) + 1
	repNorm := repulsionNorm(sumW, mass, scale)
	const eps = 1e-9
	for i := 0; i < len(nodes); i++ {
		pi := pos[nodes[i]]
		for j := i + 1; j < len(nodes); j++ {
			pj := pos[nodes[j]]
			r := math.Hypot(pj.X-pi.X, pj.Y-pi.Y)
			if r < eps {
				r = eps
			}
			u -= repNorm * mass[i] * mass[j] * math.Log(r)
		}
	}
	return u
}
