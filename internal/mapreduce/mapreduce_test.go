package mapreduce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
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

func place(t *testing.T, e *engine.Engine, rel *tuple.Relation) []*engine.Region {
	t.Helper()
	parts := rel.SplitEven(e.NumVaults())
	regions := make([]*engine.Region, len(parts))
	for v, p := range parts {
		r, err := e.Place(v, p.Tuples)
		if err != nil {
			t.Fatal(err)
		}
		regions[v] = r
	}
	return regions
}

// wordCount is the canonical job: map emits (key, 1), reduce sums.
func wordCount() Job {
	return Job{
		Name: "wordcount",
		Map: func(t tuple.Tuple, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{Key: t.Key, Val: 1})
		},
		Reduce: func(k tuple.Key, vs []tuple.Value, emit func(tuple.Tuple)) {
			var sum tuple.Value
			for _, v := range vs {
				sum += v
			}
			emit(tuple.Tuple{Key: k, Val: sum})
		},
	}
}

func gatherOut(res *Result) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range res.Out {
		out = append(out, r.Tuples...)
	}
	return out
}

func TestWordCountAcrossArchitectures(t *testing.T) {
	rel, err := workload.GroupBy(workload.Config{Seed: 3, Tuples: 4000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := RefRun(wordCount(), rel.Tuples)
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
			res, err := Run(e, wordCount(), place(t, e, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !tuple.SameMultiset(gatherOut(res), want) {
				t.Fatal("wordcount output mismatch")
			}
			if res.Keys != len(want) {
				t.Fatalf("keys = %d, want %d", res.Keys, len(want))
			}
			if res.MapNs <= 0 || res.ShuffleNs <= 0 || res.ReduceNs <= 0 {
				t.Fatalf("phases: %+v", res)
			}
		})
	}
}

func TestMapAmplification(t *testing.T) {
	// A mapper that fans out 3 tuples per input needs Amplification.
	fanOut := Job{
		Name:          "fanout",
		Amplification: 3,
		Map: func(t tuple.Tuple, emit func(tuple.Tuple)) {
			for i := 0; i < 3; i++ {
				emit(tuple.Tuple{Key: t.Key + tuple.Key(i), Val: t.Val})
			}
		},
		Reduce: func(k tuple.Key, vs []tuple.Value, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{Key: k, Val: tuple.Value(len(vs))})
		},
	}
	rel := workload.Uniform("in", workload.Config{Seed: 4, Tuples: 2000, KeySpace: 300})
	e := testEngine(t, engine.NMP, true)
	res, err := Run(e, fanOut, place(t, e, rel))
	if err != nil {
		t.Fatal(err)
	}
	if !tuple.SameMultiset(gatherOut(res), RefRun(fanOut, rel.Tuples)) {
		t.Fatal("fanout output mismatch")
	}
}

func TestMapOverflowSurfaces(t *testing.T) {
	under := Job{
		Name:          "underprovisioned",
		Amplification: 1, // actually fans out 8×
		Map: func(t tuple.Tuple, emit func(tuple.Tuple)) {
			for i := 0; i < 8; i++ {
				emit(tuple.Tuple{Key: t.Key, Val: t.Val})
			}
		},
		Reduce: func(k tuple.Key, vs []tuple.Value, emit func(tuple.Tuple)) {},
	}
	rel := workload.Uniform("in", workload.Config{Seed: 5, Tuples: 4000, KeySpace: 300})
	e := testEngine(t, engine.NMP, true)
	if _, err := Run(e, under, place(t, e, rel)); err == nil {
		t.Fatal("staging overflow not surfaced")
	}
}

func TestFilterJob(t *testing.T) {
	// A selective mapper (drop odd keys) with an identity-ish reducer.
	filter := Job{
		Name: "filter-even",
		Map: func(t tuple.Tuple, emit func(tuple.Tuple)) {
			if t.Key%2 == 0 {
				emit(t)
			}
		},
		Reduce: func(k tuple.Key, vs []tuple.Value, emit func(tuple.Tuple)) {
			for _, v := range vs {
				emit(tuple.Tuple{Key: k, Val: v})
			}
		},
	}
	rel := workload.Uniform("in", workload.Config{Seed: 6, Tuples: 3000, KeySpace: 1000})
	e := testEngine(t, engine.Mondrian, true)
	res, err := Run(e, filter, place(t, e, rel))
	if err != nil {
		t.Fatal(err)
	}
	want := RefRun(filter, rel.Tuples)
	if !tuple.SameMultiset(gatherOut(res), want) {
		t.Fatal("filter output mismatch")
	}
	for _, tp := range gatherOut(res) {
		if tp.Key%2 != 0 {
			t.Fatal("odd key survived the filter")
		}
	}
}

func TestJobValidation(t *testing.T) {
	e := testEngine(t, engine.NMP, true)
	if _, err := Run(e, Job{Name: "empty"}, nil); err == nil {
		t.Fatal("job without Map/Reduce accepted")
	}
	if _, err := Run(e, wordCount(), nil); err == nil {
		t.Fatal("wrong input shape accepted")
	}
}

// MapReduce runs on the vault units; a host-core system must be refused
// with an error, not a panic.
func TestRunRejectsHostCores(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 9, Tuples: 200, KeySpace: 50})
	e := testEngine(t, engine.CPU, false)
	if _, err := Run(e, wordCount(), place(t, e, rel)); err == nil {
		t.Fatal("host-core engine accepted")
	}
}

func TestShuffleUsesPermutability(t *testing.T) {
	rel, err := workload.GroupBy(workload.Config{Seed: 7, Tuples: 8000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(perm bool) uint64 {
		e := testEngine(t, engine.NMP, perm)
		if _, err := Run(e, wordCount(), place(t, e, rel)); err != nil {
			t.Fatal(err)
		}
		var permuted uint64
		for _, v := range e.Sys.Vaults() {
			permuted += v.PermutedWrites
		}
		return permuted
	}
	if run(true) == 0 {
		t.Fatal("permutable shuffle used no permuted writes")
	}
	if run(false) != 0 {
		t.Fatal("conventional shuffle used permuted writes")
	}
}

// Property: for any commutative job, the engine result equals the
// reference result regardless of permutability.
func TestMapReduceEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	job := wordCount()
	f := func(seed int64, n uint16, perm bool) bool {
		tuples := int(n)%2000 + 64
		rel := workload.Uniform("in", workload.Config{Seed: seed, Tuples: tuples, KeySpace: 200})
		e := testEngine(t, engine.NMP, perm)
		res, err := Run(e, job, place(t, e, rel))
		if err != nil {
			return false
		}
		return tuple.SameMultiset(gatherOut(res), RefRun(job, rel.Tuples))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMapReduceDeterministic(t *testing.T) {
	rel, err := workload.GroupBy(workload.Config{Seed: 17, Tuples: 3000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		e := testEngine(t, engine.Mondrian, true)
		res, err := Run(e, wordCount(), place(t, e, rel))
		if err != nil {
			t.Fatal(err)
		}
		return res.Ns()
	}
	if run() != run() {
		t.Fatal("mapreduce timing not deterministic")
	}
}

func TestJobDefaults(t *testing.T) {
	var j Job
	if j.mapInsts() != 8 || j.reduceInsts() != 6 || j.simdFactor() != 4 || j.amplification() != 1 {
		t.Fatalf("defaults: %v %v %v %v", j.mapInsts(), j.reduceInsts(), j.simdFactor(), j.amplification())
	}
	j = Job{MapInsts: 3, ReduceInsts: 2, SIMDFactor: 8, Amplification: 2}
	if j.mapInsts() != 3 || j.reduceInsts() != 2 || j.simdFactor() != 8 || j.amplification() != 2 {
		t.Fatal("overrides ignored")
	}
}
