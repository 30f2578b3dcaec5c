// Package bsp implements a Bulk-Synchronous-Parallel graph-processing
// layer on the Mondrian engine, demonstrating the paper's claim that data
// permutability applies to "any BSP-based graph processing algorithm"
// (§4.1.2): the message exchange between supersteps shuffles messages to
// each destination vertex's vault, and because a vault's inbox is an
// unordered bucket, the vault controllers may place arriving messages in
// any order.
//
// Vertices are partitioned across vaults by ID. Each superstep streams
// the local vertices and their out-edges, emits messages, shuffles them
// (permutable where supported), and applies a vertex program to the
// grouped inbox. Vertex programs must combine messages commutatively —
// the permutability correctness requirement.
package bsp

import (
	"fmt"
	"sort"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Graph is a directed graph with vertices 0..NumVertices-1.
type Graph struct {
	NumVertices int
	// Out[v] lists v's out-neighbors.
	Out [][]int32
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// Validate checks edge endpoints.
func (g *Graph) Validate() error {
	if g.NumVertices <= 0 {
		return fmt.Errorf("bsp: graph needs vertices")
	}
	if len(g.Out) != g.NumVertices {
		return fmt.Errorf("bsp: adjacency size %d != %d vertices", len(g.Out), g.NumVertices)
	}
	for v, out := range g.Out {
		for _, d := range out {
			if d < 0 || int(d) >= g.NumVertices {
				return fmt.Errorf("bsp: edge %d→%d out of range", v, d)
			}
		}
	}
	return nil
}

// Program is a vertex-centric BSP program over int64 vertex states and
// int64 messages.
type Program struct {
	Name string
	// Init returns vertex v's initial state.
	Init func(v int, g *Graph) int64
	// Message produces the value v sends along each out-edge this
	// superstep (called once per vertex; nil message skips sending).
	Message func(v int, state int64, g *Graph) (int64, bool)
	// Combine folds two messages (must be commutative+associative).
	Combine func(a, b int64) int64
	// Apply computes v's next state from its current state and the
	// combined inbox value; ok=false means "no message arrived".
	Apply func(v int, state int64, inbox int64, ok bool, g *Graph) int64
	// Halt, if non-nil, stops iteration early when no vertex changed.
	HaltOnFixpoint bool

	// EdgeInsts/VertexInsts charge the compute model (defaults 4 and 6).
	EdgeInsts, VertexInsts float64
}

func (p Program) edgeInsts() float64 {
	if p.EdgeInsts > 0 {
		return p.EdgeInsts
	}
	return 4
}

func (p Program) vertexInsts() float64 {
	if p.VertexInsts > 0 {
		return p.VertexInsts
	}
	return 6
}

// Result reports a BSP run.
type Result struct {
	// States holds the final vertex states.
	States []int64
	// Supersteps actually executed.
	Supersteps int
	// TotalNs is the run's simulated time.
	TotalNs float64
}

// vaultOf maps a vertex to its owning vault.
func vaultOf(v, nv int) int { return v % nv }

// Run executes up to maxSupersteps of the program on the engine.
func Run(e *engine.Engine, p Program, g *Graph, maxSupersteps int) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p.Init == nil || p.Message == nil || p.Combine == nil || p.Apply == nil {
		return nil, fmt.Errorf("bsp: program %q incomplete", p.Name)
	}
	if e.Config().Arch == engine.CPU {
		return nil, fmt.Errorf("bsp: program %q needs vault-resident units, not host cores", p.Name)
	}
	nv := e.NumVaults()
	t0 := e.TotalNs()

	// Place vertex state and adjacency per vault. States are (vertex,
	// state) tuples; edges are (src, dst) tuples, grouped by source.
	states := make([]int64, g.NumVertices)
	for v := range states {
		states[v] = p.Init(v, g)
	}
	stateRegions := make([]*engine.Region, nv)
	edgeRegions := make([]*engine.Region, nv)
	localVerts := make([][]int, nv)
	for v := 0; v < g.NumVertices; v++ {
		localVerts[vaultOf(v, nv)] = append(localVerts[vaultOf(v, nv)], v)
	}
	for vault := 0; vault < nv; vault++ {
		var st, ed []tuple.Tuple
		for _, v := range localVerts[vault] {
			st = append(st, tuple.Tuple{Key: tuple.Key(v), Val: tuple.Value(states[v])})
			for _, d := range g.Out[v] {
				ed = append(ed, tuple.Tuple{Key: tuple.Key(v), Val: tuple.Value(d)})
			}
		}
		var err error
		if stateRegions[vault], err = e.Place(vault, st); err != nil {
			return nil, err
		}
		if edgeRegions[vault], err = e.Place(vault, ed); err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for step := 0; step < maxSupersteps; step++ {
		changed, err := superstep(e, p, g, states, stateRegions, edgeRegions, localVerts)
		if err != nil {
			return nil, err
		}
		res.Supersteps++
		if p.HaltOnFixpoint && !changed {
			break
		}
	}
	res.States = states
	res.TotalNs = e.TotalNs() - t0
	return res, nil
}

// superstep runs one compute+shuffle+apply round, returning whether any
// vertex state changed.
func superstep(e *engine.Engine, p Program, g *Graph, states []int64,
	stateRegions, edgeRegions []*engine.Region, localVerts [][]int) (bool, error) {
	nv := e.NumVaults()
	streamed := e.StreamFed()

	// Phase 1: scan local vertices+edges, stage outgoing messages as
	// (destination vertex, value) tuples.
	staging := make([]*engine.Region, nv)
	e.BeginStep(engine.StepProfile{Name: "bsp-scatter", DepIPC: 1.5, InstPerAccess: 4, StreamFed: streamed})
	if err := e.ForEachVault(func(vault int, u *engine.Unit) error {
		// Stream states and edges.
		readers, err := u.OpenStreams(stateRegions[vault], edgeRegions[vault])
		if err != nil {
			return err
		}
		// Per-vertex message values.
		outVal := make(map[int32]int64, len(localVerts[vault]))
		var msgs []tuple.Tuple
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(p.vertexInsts())
			if mv, send := p.Message(int(t.Key), states[t.Key], g); send {
				outVal[int32(t.Key)] = mv
			}
		}
		for {
			t, ok := readers[1].Next()
			if !ok {
				break
			}
			u.Charge(p.edgeInsts())
			if mv, ok := outVal[int32(t.Key)]; ok {
				msgs = append(msgs, tuple.Tuple{Key: tuple.Key(t.Val), Val: tuple.Value(mv)})
			}
		}
		r, err := e.AllocOut(vault, max(len(msgs), 1))
		if err != nil {
			return err
		}
		// Staged messages are produced into a local buffer (sequential
		// writes) before the exchange.
		for _, m := range msgs {
			u.AppendLocal(r, m)
		}
		staging[vault] = r
		return nil
	}); err != nil {
		return false, err
	}
	e.EndStep()

	// Phase 2: message exchange — the permutable shuffle.
	dests, err := operators.KeyShuffle(e, "bsp-exchange", staging)
	if err != nil {
		return false, err
	}

	// Phase 3: combine inboxes and apply. Each vault reads and writes only
	// its own vertices' states; cross-vault values arrived as messages.
	changedFlags := make([]bool, nv)
	e.BeginStep(engine.StepProfile{Name: "bsp-apply", DepIPC: 1.5, InstPerAccess: 4, StreamFed: streamed})
	if err := e.ForEachVault(func(vault int, u *engine.Unit) error {
		readers, err := u.OpenStreams(dests[vault])
		if err != nil {
			return err
		}
		inboxes := make(map[int]int64)
		seen := make(map[int]bool)
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(p.vertexInsts())
			v := int(t.Key)
			if seen[v] {
				inboxes[v] = p.Combine(inboxes[v], int64(t.Val))
			} else {
				inboxes[v] = int64(t.Val)
				seen[v] = true
			}
		}
		// Deterministic application order.
		verts := localVerts[vault]
		sorted := make([]int, len(verts))
		copy(sorted, verts)
		sort.Ints(sorted)
		for i, v := range sorted {
			u.Charge(p.vertexInsts())
			in, ok := inboxes[v]
			next := p.Apply(v, states[v], in, ok, g)
			if next != states[v] {
				states[v] = next
				changedFlags[vault] = true
			}
			u.StoreTuple(stateRegions[vault], i, tuple.Tuple{Key: tuple.Key(v), Val: tuple.Value(next)})
		}
		return nil
	}); err != nil {
		return false, err
	}
	e.EndStep()
	e.Barrier()
	changed := false
	for _, c := range changedFlags {
		changed = changed || c
	}
	return changed, nil
}
