package bsp

import (
	"slices"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

func testEngine(t *testing.T, arch engine.Arch, perm bool) *engine.Engine {
	t.Helper()
	return testEngineAt(t, arch, perm, 0)
}

// testEngineAt builds the test system with the given host worker count
// (0 = GOMAXPROCS).
func testEngineAt(t *testing.T, arch engine.Arch, perm bool, parallelism int) *engine.Engine {
	t.Helper()
	g := dram.HMCGeometry()
	g.CapacityBytes = 8 << 20
	cfg := engine.Config{
		Cubes: 2, VaultsPer: 4,
		Geometry: g, Timing: dram.HMCTiming(),
		ObjectSize: tuple.Size, BarrierNs: 1000,
		Topology:    noc.FullyConnected,
		Parallelism: parallelism,
	}
	switch arch {
	case engine.CPU:
		cfg.Arch = engine.CPU
		cfg.Core = cores.CortexA57()
		cfg.CPUCores = 4
		cfg.Topology = noc.Star
		cfg.L1 = cache.L1D32K()
		cfg.LLC = cache.LLC4M()
	case engine.NMP:
		cfg.Arch = engine.NMP
		cfg.Core = cores.Krait400()
		cfg.L1 = cache.L1D32K()
		cfg.Permutable = perm
	case engine.Mondrian:
		cfg.Arch = engine.Mondrian
		cfg.Core = cores.CortexA35Mondrian()
		cfg.Permutable = perm
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGraphValidate(t *testing.T) {
	g := Ring(8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 8 {
		t.Fatalf("ring edges = %d", g.NumEdges())
	}
	bad := &Graph{NumVertices: 2, Out: [][]int32{{5}, {}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := (&Graph{}).Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := RandomGraph(500, 4, 7)
	const steps = 8
	want := RefPageRank(g, steps)
	for _, tc := range []struct {
		name string
		arch engine.Arch
		perm bool
	}{
		{"NMP", engine.NMP, false},
		{"NMP-perm", engine.NMP, true},
		{"Mondrian", engine.Mondrian, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t, tc.arch, tc.perm)
			res, err := Run(e, PageRank(), g, steps)
			if err != nil {
				t.Fatal(err)
			}
			if res.Supersteps != steps {
				t.Fatalf("supersteps = %d", res.Supersteps)
			}
			for v := range want {
				if res.States[v] != want[v] {
					t.Fatalf("vertex %d: rank %d, want %d", v, res.States[v], want[v])
				}
			}
			if res.TotalNs <= 0 {
				t.Fatal("no simulated time")
			}
		})
	}
}

func TestComponentsConverges(t *testing.T) {
	// Two disjoint rings: components {0..49} and {50..99}.
	g := &Graph{NumVertices: 100, Out: make([][]int32, 100)}
	for v := 0; v < 50; v++ {
		g.Out[v] = []int32{int32((v + 1) % 50)}
	}
	for v := 50; v < 100; v++ {
		g.Out[v] = []int32{int32(50 + (v-50+1)%50)}
	}
	sym := Symmetrize(g)
	want := RefComponents(sym)
	e := testEngine(t, engine.Mondrian, true)
	res, err := Run(e, Components(), sym, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Fixpoint halt must kick in well before the cap.
	if res.Supersteps >= 200 {
		t.Fatalf("no early halt: %d supersteps", res.Supersteps)
	}
	for v := range want {
		if res.States[v] != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, res.States[v], want[v])
		}
	}
	// Exactly two labels: 0 and 50.
	labels := map[int64]bool{}
	for _, l := range res.States {
		labels[l] = true
	}
	if len(labels) != 2 || !labels[0] || !labels[50] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestIncompleteProgramRejected(t *testing.T) {
	e := testEngine(t, engine.NMP, true)
	if _, err := Run(e, Program{Name: "hollow"}, Ring(4), 1); err == nil {
		t.Fatal("incomplete program accepted")
	}
}

// BSP runs on the vault units; a host-core system must be refused with
// an error, not a panic.
func TestRunRejectsHostCores(t *testing.T) {
	e := testEngine(t, engine.CPU, false)
	if _, err := Run(e, PageRank(), Ring(8), 1); err == nil {
		t.Fatal("host-core engine accepted")
	}
}

func TestExchangeUsesPermutability(t *testing.T) {
	g := RandomGraph(400, 4, 9)
	run := func(perm bool) (uint64, uint64) {
		e := testEngine(t, engine.NMP, perm)
		if _, err := Run(e, PageRank(), g, 4); err != nil {
			t.Fatal(err)
		}
		var permuted uint64
		for _, v := range e.Sys.Vaults() {
			permuted += v.PermutedWrites
		}
		return permuted, e.DRAMStats().Activations
	}
	permWrites, actsPerm := run(true)
	noPermWrites, actsConv := run(false)
	if permWrites == 0 || noPermWrites != 0 {
		t.Fatalf("permuted writes: perm=%d conv=%d", permWrites, noPermWrites)
	}
	if actsConv <= actsPerm {
		t.Fatalf("permutability should cut activations: %d vs %d", actsPerm, actsConv)
	}
}

func TestSymmetrize(t *testing.T) {
	g := &Graph{NumVertices: 3, Out: [][]int32{{1}, {}, {1}}}
	s := Symmetrize(g)
	found := func(v int, d int32) bool {
		for _, x := range s.Out[v] {
			if x == d {
				return true
			}
		}
		return false
	}
	if !found(1, 0) || !found(1, 2) || !found(0, 1) || !found(2, 1) {
		t.Fatalf("symmetrize: %+v", s.Out)
	}
	// Adjacency order feeds the simulated message order, so it must not
	// follow map iteration.
	big := Symmetrize(RandomGraph(200, 3, 5))
	for v, out := range big.Out {
		if !slices.IsSorted(out) {
			t.Fatalf("vertex %d: adjacency %v not sorted", v, out)
		}
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a, b := RandomGraph(50, 3, 4), RandomGraph(50, 3, 4)
	for v := range a.Out {
		for i := range a.Out[v] {
			if a.Out[v][i] != b.Out[v][i] {
				t.Fatal("RandomGraph not deterministic")
			}
		}
	}
}
