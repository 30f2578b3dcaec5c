package operators

import (
	"fmt"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// Test systems: 2 cubes × 4 vaults (8 units) with 4 MB vaults.

func testGeom() dram.Geometry {
	g := dram.HMCGeometry()
	g.CapacityBytes = 4 << 20
	return g
}

type variant struct {
	name  string
	cfg   engine.Config
	opCfg Config
}

func testVariants() []variant {
	base := func() engine.Config {
		return engine.Config{
			Cubes: 2, VaultsPer: 4,
			Geometry: testGeom(), Timing: dram.HMCTiming(),
			ObjectSize: tuple.Size, BarrierNs: 1000,
		}
	}
	cpu := base()
	cpu.Arch = engine.CPU
	cpu.Core = cores.CortexA57()
	cpu.CPUCores = 4
	cpu.Topology = noc.Star
	cpu.L1 = cache.L1D32K()
	cpu.LLC = cache.LLC4M()

	nmp := base()
	nmp.Arch = engine.NMP
	nmp.Core = cores.Krait400()
	nmp.Topology = noc.FullyConnected
	nmp.L1 = cache.L1D32K()

	nmpPerm := nmp
	nmpPerm.Permutable = true

	mondrian := base()
	mondrian.Arch = engine.Mondrian
	mondrian.Core = cores.CortexA35Mondrian()
	mondrian.Topology = noc.FullyConnected
	mondrian.Permutable = true

	mondrianNoPerm := mondrian
	mondrianNoPerm.Permutable = false

	hash := Config{Costs: DefaultCosts(), KeySpace: 1 << 16}
	seq := Config{Costs: DefaultCosts(), KeySpace: 1 << 16, SortProbe: true}
	mond := Config{Costs: MondrianCosts(), KeySpace: 1 << 16, SortProbe: true}

	return []variant{
		{"CPU", cpu, hash},
		{"NMP-rand", nmp, hash},
		{"NMP-seq", nmp, seq},
		{"NMP-perm", nmpPerm, hash},
		{"Mondrian-noperm", mondrianNoPerm, mond},
		{"Mondrian", mondrian, mond},
	}
}

func newEngine(t *testing.T, cfg engine.Config) *engine.Engine {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// place distributes a relation evenly over the engine's vaults.
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

func TestScanAllVariants(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 3, Tuples: 4000, KeySpace: 500})
	needle, want := workload.ScanTarget(rel, 7)
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			inputs := place(t, e, rel)
			res, err := Scan(e, v.opCfg, inputs, needle)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != want {
				t.Fatalf("matches = %d, want %d", res.Matches, want)
			}
			if !tuple.SameMultiset(Gather(res.Out), RefScan(rel.Tuples, needle)) {
				t.Fatal("scan output mismatch")
			}
			if res.ProbeNs <= 0 {
				t.Fatal("no probe time recorded")
			}
		})
	}
}

func TestSortAllVariants(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 5, Tuples: 6000, KeySpace: 1 << 16})
	want := RefSort(rel.Tuples)
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			inputs := place(t, e, rel)
			res, err := Sort(e, v.opCfg, inputs)
			if err != nil {
				t.Fatal(err)
			}
			// Concatenated buckets must be globally sorted and the same
			// multiset as the reference sort.
			var got []tuple.Tuple
			for _, b := range res.Sorted {
				for i := 1; i < b.Len(); i++ {
					if b.Tuples[i].Key < b.Tuples[i-1].Key {
						t.Fatalf("bucket not sorted at %d", i)
					}
				}
				if len(got) > 0 && b.Len() > 0 && b.Tuples[0].Key < got[len(got)-1].Key {
					t.Fatal("buckets not range-ordered")
				}
				got = append(got, b.Tuples...)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d tuples, want %d", len(got), len(want))
			}
			if !tuple.SameMultiset(got, want) {
				t.Fatal("sort output mismatch")
			}
			if res.PartitionNs <= 0 || res.ProbeNs <= 0 {
				t.Fatalf("phases: %+v", res)
			}
		})
	}
}

func TestGroupByAllVariants(t *testing.T) {
	rel, err := workload.GroupBy(workload.Config{Seed: 9, Tuples: 4000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := RefGroupByTuples(rel.Tuples)
	wantGroups := len(RefGroupBy(rel.Tuples))
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			inputs := place(t, e, rel)
			res, err := GroupBy(e, v.opCfg, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Groups != wantGroups {
				t.Fatalf("groups = %d, want %d", res.Groups, wantGroups)
			}
			if !tuple.SameMultiset(Gather(res.Out), want) {
				t.Fatal("group-by output mismatch")
			}
		})
	}
}

func TestJoinAllVariants(t *testing.T) {
	r, s, err := workload.FKPair(workload.Config{Seed: 11, Tuples: 6000}, 800)
	if err != nil {
		t.Fatal(err)
	}
	want := RefJoin(r.Tuples, s.Tuples)
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			rIn := place(t, e, r)
			sIn := place(t, e, s)
			res, err := Join(e, v.opCfg, rIn, sIn)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != len(want) {
				t.Fatalf("matches = %d, want %d (every S tuple joins)", res.Matches, len(want))
			}
			if !tuple.SameMultiset(Gather(res.Out), want) {
				t.Fatal("join output mismatch")
			}
			if res.PartitionNs <= 0 || res.ProbeNs <= 0 {
				t.Fatalf("phases: %+v", res)
			}
		})
	}
}

func TestPartitionerBuckets(t *testing.T) {
	low := Partitioner{Buckets: 8}
	if low.Bucket(13) != 5 {
		t.Fatalf("low bits bucket = %d", low.Bucket(13))
	}
	high := Partitioner{Buckets: 4, KeySpace: 1 << 16, HighBits: true}
	if high.Bucket(0) != 0 || high.Bucket(1<<16-1) != 3 {
		t.Fatal("high-bits range partition wrong ends")
	}
	// Range property: bucket is monotone in key.
	prev := 0
	for k := 0; k < 1<<16; k += 997 {
		b := high.Bucket(tuple.Key(k))
		if b < prev {
			t.Fatal("range partition not monotone")
		}
		prev = b
	}
}

func TestMergePasses(t *testing.T) {
	for _, tc := range []struct{ n, run, fan, want int }{
		{16, 16, 2, 0},
		{17, 16, 2, 1},
		{64 << 10, 16, 2, 12},
		{64 << 10, 16, 8, 4},
		{1, 16, 2, 0},
	} {
		if got := MergePasses(tc.n, tc.run, tc.fan); got != tc.want {
			t.Fatalf("MergePasses(%d,%d,%d) = %d, want %d", tc.n, tc.run, tc.fan, got, tc.want)
		}
	}
}

func TestCPUPartitionCount(t *testing.T) {
	if got := CPUPartitionCount(1<<20, 16); got != 512 {
		t.Fatalf("1M tuples → %d buckets, want 512", got)
	}
	if got := CPUPartitionCount(1<<30, 16); got != 1<<16 {
		t.Fatalf("cap failed: %d", got)
	}
	if got := CPUPartitionCount(100, 16); got != 16 {
		t.Fatalf("floor failed: %d", got)
	}
}

func TestPermutabilityReducesDistributionActivations(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 21, Tuples: 16000, KeySpace: 1 << 16})
	run := func(perm bool) uint64 {
		vs := testVariants()
		var v variant
		for _, cand := range vs {
			if (perm && cand.name == "NMP-perm") || (!perm && cand.name == "NMP-rand") {
				v = cand
			}
		}
		e := newEngine(t, v.cfg)
		inputs := place(t, e, rel)
		before := e.DRAMStats().Activations
		_, err := PartitionPhase(e, v.opCfg, inputs, Partitioner{Buckets: e.NumVaults()})
		if err != nil {
			t.Fatal(err)
		}
		return e.DRAMStats().Activations - before
	}
	perm, noperm := run(true), run(false)
	if noperm < perm+perm/2 {
		t.Fatalf("permutability should cut activations: perm=%d noperm=%d", perm, noperm)
	}
}

// TestSkewAwareExactProvisioning pins the skew-aware partition phase on
// both partition implementations (the NMP histogram exchange, with
// conventional and permutable distribution, and the CPU's
// count-then-carve): the report's loads equal a histogram computed here,
// uniform keys keep the uniform overprovisioned estimate, and Zipf 2.0
// keys and a single constant key, which overflow that estimate, get
// exactly the largest load plus the slack.
func TestSkewAwareExactProvisioning(t *testing.T) {
	const tuples = 8000
	zipf, err := workload.Zipf("in", workload.Config{Seed: 29, Tuples: tuples, KeySpace: 1 << 16}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	constant := &tuple.Relation{Name: "in", Tuples: make([]tuple.Tuple, tuples)}
	for i := range constant.Tuples {
		constant.Tuples[i] = tuple.Tuple{Key: 7, Val: tuple.Value(i)}
	}
	inputs := []struct {
		name    string
		rel     *tuple.Relation
		resized bool
	}{
		{"uniform", workload.Uniform("in", workload.Config{Seed: 29, Tuples: tuples, KeySpace: 1 << 16}), false},
		{"zipf2.0", zipf, true},
		{"constant", constant, true},
	}
	vs := testVariants()
	for _, v := range []variant{vs[0], vs[1], vs[5]} { // CPU, NMP-rand, Mondrian
		for _, in := range inputs {
			t.Run(v.name+"/"+in.name, func(t *testing.T) {
				e := newEngine(t, v.cfg)
				cfg := v.opCfg
				cfg.SkewAware = true
				part := Partitioner{Buckets: e.NumVaults()}
				if v.cfg.Arch == engine.CPU {
					part.Buckets = 64
				}
				res, err := PartitionPhase(e, cfg, place(t, e, in.rel), part)
				if err != nil {
					t.Fatal(err)
				}
				if res.Skew == nil {
					t.Fatal("skew-aware partition phase returned no SkewReport")
				}

				loads := make([]int, part.Buckets)
				for _, tp := range in.rel.Tuples {
					loads[part.Bucket(tp.Key)]++
				}
				maxLoad := 0
				for b, n := range loads {
					if n > maxLoad {
						maxLoad = n
					}
					if got := res.Buckets[b].Len(); got != n {
						t.Errorf("bucket %d holds %d tuples, histogram says %d", b, got, n)
					}
				}
				uniform := int(float64(tuples/part.Buckets)*cfg.overprovision()) + bucketSlack
				rep := res.Skew
				if rep.MaxLoad != maxLoad {
					t.Errorf("MaxLoad = %d, want %d", rep.MaxLoad, maxLoad)
				}
				if want := float64(tuples) / float64(part.Buckets); rep.MeanLoad != want {
					t.Errorf("MeanLoad = %v, want %v", rep.MeanLoad, want)
				}
				if rep.Resized != in.resized {
					t.Errorf("Resized = %v, want %v", rep.Resized, in.resized)
				}
				want := uniform
				if in.resized {
					want = maxLoad + bucketSlack
				}
				if rep.Provisioned != want {
					t.Errorf("Provisioned = %d, want %d (uniform estimate %d, max load %d)",
						rep.Provisioned, want, uniform, maxLoad)
				}
			})
		}
	}
}

func TestHashTableCollisionsAndLookups(t *testing.T) {
	v := testVariants()[1] // NMP
	e := newEngine(t, v.cfg)
	ht, err := newHashTable(e, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(engine.StepProfile{Name: "ht"})
	for i := 0; i < 100; i++ {
		if err := ht.insert(u, tuple.Tuple{Key: tuple.Key(i * 7), Val: tuple.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, ok := ht.lookup(u, tuple.Key(i*7))
		if !ok || got.Val != tuple.Value(i) {
			t.Fatalf("lookup %d = %v,%v", i, got, ok)
		}
	}
	if _, ok := ht.lookup(u, tuple.Key(99999)); ok {
		t.Fatal("found absent key")
	}
	e.EndStep()
}

// mergesortLocal sorts one bucket with the NMP algorithm on one unit:
// formRuns, then mergePass ping-ponging between the bucket and a
// same-vault scratch region, the per-bucket sequence sortBuckets runs
// in lockstep steps. It returns the region holding the sorted result
// (either r or scratch).
func mergesortLocal(u *engine.Unit, cm CostModel, r, scratch *engine.Region, simd bool) (*engine.Region, error) {
	n := r.Len()
	if scratch.Cap() < n {
		return nil, fmt.Errorf("operators: scratch capacity %d < %d", scratch.Cap(), n)
	}
	if err := formRuns(u, cm, r, simd); err != nil {
		return nil, err
	}
	src, dst := r, scratch
	for runLen := cm.InitialRunLen; runLen < n; runLen *= cm.MergeFanIn {
		dst.Reset()
		if err := mergePass(u, cm, src, dst, runLen, cm.MergeFanIn, simd); err != nil {
			return nil, err
		}
		src, dst = dst, src
	}
	return src, nil
}

func TestMergesortLocalSorts(t *testing.T) {
	v := testVariants()[5] // Mondrian
	e := newEngine(t, v.cfg)
	rel := workload.Uniform("in", workload.Config{Seed: 31, Tuples: 1000, KeySpace: 1 << 30})
	r, err := e.Place(0, rel.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := e.AllocOut(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(engine.StepProfile{Name: "sort", StreamFed: true})
	out, err := mergesortLocal(u, MondrianCosts(), r, scratch, true)
	e.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1000 {
		t.Fatalf("sorted len = %d", out.Len())
	}
	for i := 1; i < out.Len(); i++ {
		if out.Tuples[i].Key < out.Tuples[i-1].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if !tuple.SameMultiset(out.Tuples, rel.Tuples) {
		t.Fatal("mergesort changed the multiset")
	}
}
