package bsp

import (
	"math/rand"
	"slices"
)

// Canned vertex programs and reference executors. All arithmetic is
// integer/fixed-point so the simulated run and the reference iterate to
// bit-identical states.

// FixedOne is the fixed-point representation of 1.0 (Q32.16-ish scale).
const FixedOne int64 = 1 << 16

// PageRank returns a synchronous fixed-point PageRank program:
// state = rank (fixed point), damping 0.85 approximated as 870/1024.
func PageRank() Program {
	const dampNum, dampDen = 870, 1024
	return Program{
		Name: "pagerank",
		Init: func(v int, g *Graph) int64 { return FixedOne },
		Message: func(v int, state int64, g *Graph) (int64, bool) {
			deg := len(g.Out[v])
			if deg == 0 {
				return 0, false
			}
			return state / int64(deg), true
		},
		Combine: func(a, b int64) int64 { return a + b },
		Apply: func(v int, state, inbox int64, ok bool, g *Graph) int64 {
			var sum int64
			if ok {
				sum = inbox
			}
			return (FixedOne-FixedOne*dampNum/dampDen)*1 + sum*dampNum/dampDen
		},
		EdgeInsts: 4, VertexInsts: 8,
	}
}

// RefPageRank iterates the same fixed-point recurrence in plain Go.
func RefPageRank(g *Graph, supersteps int) []int64 {
	const dampNum, dampDen = 870, 1024
	states := make([]int64, g.NumVertices)
	for v := range states {
		states[v] = FixedOne
	}
	for s := 0; s < supersteps; s++ {
		inbox := make([]int64, g.NumVertices)
		got := make([]bool, g.NumVertices)
		for v := 0; v < g.NumVertices; v++ {
			deg := len(g.Out[v])
			if deg == 0 {
				continue
			}
			m := states[v] / int64(deg)
			for _, d := range g.Out[v] {
				inbox[d] += m
				got[d] = true
			}
		}
		next := make([]int64, g.NumVertices)
		for v := 0; v < g.NumVertices; v++ {
			var sum int64
			if got[v] {
				sum = inbox[v]
			}
			next[v] = (FixedOne-FixedOne*dampNum/dampDen)*1 + sum*dampNum/dampDen
		}
		states = next
	}
	return states
}

// Components returns a connected-components program via min-label
// propagation (on the directed graph interpreted as given; pass a
// symmetrized graph for undirected components). Halts at fixpoint.
func Components() Program {
	return Program{
		Name:           "components",
		HaltOnFixpoint: true,
		Init:           func(v int, g *Graph) int64 { return int64(v) },
		Message: func(v int, state int64, g *Graph) (int64, bool) {
			return state, len(g.Out[v]) > 0
		},
		Combine: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		Apply: func(v int, state, inbox int64, ok bool, g *Graph) int64 {
			if ok && inbox < state {
				return inbox
			}
			return state
		},
		EdgeInsts: 3, VertexInsts: 5,
	}
}

// RefComponents labels every vertex with the smallest vertex ID reachable
// along undirected paths (use with a symmetrized graph).
func RefComponents(g *Graph) []int64 {
	labels := make([]int64, g.NumVertices)
	for v := range labels {
		labels[v] = int64(v)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.NumVertices; v++ {
			for _, d := range g.Out[v] {
				if labels[v] < labels[d] {
					labels[d] = labels[v]
					changed = true
				} else if labels[d] < labels[v] {
					labels[v] = labels[d]
					changed = true
				}
			}
		}
	}
	return labels
}

// RandomGraph generates a uniform random directed graph with the given
// out-degree, deterministically from seed.
func RandomGraph(vertices, outDegree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{NumVertices: vertices, Out: make([][]int32, vertices)}
	for v := 0; v < vertices; v++ {
		for i := 0; i < outDegree; i++ {
			g.Out[v] = append(g.Out[v], int32(rng.Intn(vertices)))
		}
	}
	return g
}

// Ring generates a directed ring 0→1→…→n-1→0.
func Ring(vertices int) *Graph {
	g := &Graph{NumVertices: vertices, Out: make([][]int32, vertices)}
	for v := 0; v < vertices; v++ {
		g.Out[v] = []int32{int32((v + 1) % vertices)}
	}
	return g
}

// Symmetrize returns the graph with every edge mirrored (deduplicated).
// Each adjacency list is sorted, so the result — and every simulated
// number of a run over it — is a pure function of g.
func Symmetrize(g *Graph) *Graph {
	sets := make([]map[int32]bool, g.NumVertices)
	for v := range sets {
		sets[v] = make(map[int32]bool)
	}
	for v, out := range g.Out {
		for _, d := range out {
			sets[v][d] = true
			sets[int(d)][int32(v)] = true
		}
	}
	out := &Graph{NumVertices: g.NumVertices, Out: make([][]int32, g.NumVertices)}
	for v, set := range sets {
		for d := range set {
			out.Out[v] = append(out.Out[v], d)
		}
		slices.Sort(out.Out[v])
	}
	return out
}
