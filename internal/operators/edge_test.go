package operators

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// Edge cases and properties beyond the happy-path matrix.

func TestOperatorsOnEmptyInput(t *testing.T) {
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			empty := tuple.NewRelation("empty", 0)
			inputs := place(t, e, empty)

			scan, err := Scan(e, v.opCfg, inputs, 42)
			if err != nil || scan.Matches != 0 {
				t.Fatalf("scan on empty: %v, %d matches", err, scan.Matches)
			}

			e2 := newEngine(t, v.cfg)
			sorted, err := Sort(e2, v.opCfg, place(t, e2, empty))
			if err != nil {
				t.Fatalf("sort on empty: %v", err)
			}
			if got := totalLen(sorted.Sorted); got != 0 {
				t.Fatalf("sort emitted %d tuples from nothing", got)
			}

			e3 := newEngine(t, v.cfg)
			gb, err := GroupBy(e3, v.opCfg, place(t, e3, empty))
			if err != nil || gb.Groups != 0 {
				t.Fatalf("groupby on empty: %v, %d groups", err, gb.Groups)
			}
		})
	}
}

func TestJoinWithEmptyR(t *testing.T) {
	s := workload.Uniform("s", workload.Config{Seed: 1, Tuples: 500, KeySpace: 100})
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			rIn := place(t, e, tuple.NewRelation("r", 0))
			sIn := place(t, e, s)
			res, err := Join(e, v.opCfg, rIn, sIn)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != 0 {
				t.Fatalf("join with empty R matched %d", res.Matches)
			}
		})
	}
}

func TestSingleTupleOperators(t *testing.T) {
	one := &tuple.Relation{Name: "one", Tuples: []tuple.Tuple{{Key: 5, Val: 50}}}
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			res, err := Sort(e, v.opCfg, place(t, e, one))
			if err != nil {
				t.Fatal(err)
			}
			var got []tuple.Tuple
			for _, b := range res.Sorted {
				got = append(got, b.Tuples...)
			}
			if len(got) != 1 || got[0].Key != 5 {
				t.Fatalf("sorted = %v", got)
			}
		})
	}
}

func TestSortAutoKeySpace(t *testing.T) {
	// Keys occupy only [0, 100) but the declared key space is absent:
	// Sort must derive the range instead of collapsing into bucket 0.
	rel := workload.Uniform("in", workload.Config{Seed: 9, Tuples: 3000, KeySpace: 100})
	for _, v := range testVariants() {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.opCfg
			cfg.KeySpace = 0
			e := newEngine(t, v.cfg)
			res, err := Sort(e, cfg, place(t, e, rel))
			if err != nil {
				t.Fatal(err)
			}
			var got []tuple.Tuple
			for _, b := range res.Sorted {
				got = append(got, b.Tuples...)
			}
			if !tuple.SameMultiset(got, rel.Tuples) {
				t.Fatal("auto-keyspace sort lost tuples")
			}
			// With low keys and the auto range, buckets must be
			// populated beyond the first.
			if res.Sorted[0].Len() == len(got) && len(got) > 0 {
				t.Fatal("all tuples collapsed into one bucket")
			}
		})
	}
}

func TestSkewOverflowAndOverprovisionRetry(t *testing.T) {
	skewed, err := workload.Zipf("z", workload.Config{Seed: 13, Tuples: 16000, KeySpace: 1 << 20}, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	v := testVariants()[5] // Mondrian
	run := func(over float64) error {
		e := newEngine(t, v.cfg)
		cfg := v.opCfg
		cfg.Overprovision = over
		_, err := GroupBy(e, cfg, place(t, e, skewed))
		return err
	}
	if err := run(0); !errors.Is(err, ErrPartitionOverflow) {
		t.Fatalf("default overprovision on skew: %v, want overflow", err)
	}
	if err := run(64); err != nil {
		t.Fatalf("overprovision ×64 still failed: %v", err)
	}
}

func TestProbeGroupsShape(t *testing.T) {
	v := testVariants()[0] // CPU, 4 cores
	e := newEngine(t, v.cfg)
	// 32 buckets of 100 tuples each.
	buckets := make([]*engine.Region, 32)
	for i := range buckets {
		r, err := e.Place(i%e.NumVaults(), workload.Sequential("b", 100).Tuples)
		if err != nil {
			t.Fatal(err)
		}
		buckets[i] = r
	}
	groups := probeGroups(e, buckets)
	// 3200 tuples on 4 cores clamp the 32 Ki target to 800 per group →
	// 4 groups of 8 consecutive buckets.
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	next := 0
	for _, g := range groups {
		if len(g) != 8 {
			t.Fatalf("group sizes: %v, want 8 buckets each", groups)
		}
		for _, b := range g {
			if b != next {
				t.Fatalf("groups not consecutive: %v", groups)
			}
			next++
		}
	}
	// NMP systems: strictly one bucket per group.
	nmp := newEngine(t, testVariants()[1].cfg)
	nBuckets := make([]*engine.Region, nmp.NumVaults())
	for i := range nBuckets {
		r, err := nmp.Place(i, workload.Sequential("b", 10).Tuples)
		if err != nil {
			t.Fatal(err)
		}
		nBuckets[i] = r
	}
	ngroups := probeGroups(nmp, nBuckets)
	if len(ngroups) != nmp.NumVaults() {
		t.Fatalf("NMP groups = %d", len(ngroups))
	}
	for i, g := range ngroups {
		if len(g) != 1 || g[0] != i {
			t.Fatalf("NMP group %d = %v", i, g)
		}
	}
}

func TestProbeGroupsKeepCoresBusy(t *testing.T) {
	// Small dataset: group size shrinks so all 4 CPU cores get work.
	v := testVariants()[0]
	e := newEngine(t, v.cfg)
	buckets := make([]*engine.Region, 16)
	for i := range buckets {
		r, err := e.Place(i%e.NumVaults(), workload.Sequential("b", 50).Tuples)
		if err != nil {
			t.Fatal(err)
		}
		buckets[i] = r
	}
	groups := probeGroups(e, buckets)
	if len(groups) < len(e.Units()) {
		t.Fatalf("only %d groups for %d cores", len(groups), len(e.Units()))
	}
}

func TestQuicksortSuperSpansRegions(t *testing.T) {
	v := testVariants()[0]
	e := newEngine(t, v.cfg)
	u := e.Units()[0]
	r1, _ := e.Place(0, []tuple.Tuple{{Key: 9}, {Key: 3}})
	r2, _ := e.Place(1, []tuple.Tuple{{Key: 7}, {Key: 1}})
	e.BeginStep(engine.StepProfile{Name: "qs", DepIPC: 1, InstPerAccess: 4})
	quicksortSuper(u, DefaultCosts(), []*engine.Region{r1, r2})
	e.EndStep()
	got := append(append([]tuple.Tuple{}, r1.Tuples...), r2.Tuples...)
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatalf("cross-region sort broken: %v", got)
		}
	}
}

func TestHashTableFull(t *testing.T) {
	v := testVariants()[1]
	e := newEngine(t, v.cfg)
	ht, err := newHashTable(e, 0, 1) // 4 slots
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(engine.StepProfile{Name: "ht"})
	var insertErr error
	for i := 0; i < 8 && insertErr == nil; i++ {
		insertErr = ht.insert(u, tuple.Tuple{Key: tuple.Key(i)})
	}
	e.EndStep()
	if insertErr == nil {
		t.Fatal("overfilled hash table did not error")
	}
}

func TestAggregatesAvg(t *testing.T) {
	a := &Aggregates{}
	if a.Avg() != 0 {
		t.Fatal("empty Avg should be 0")
	}
	a.Count, a.Sum = 4, 10
	if a.Avg() != 2 {
		t.Fatalf("Avg = %d", a.Avg())
	}
}

// Property: for random workloads, every variant's Join output equals the
// reference, and all variants agree with each other.
func TestJoinEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vs := testVariants()
	f := func(seed int64, sn uint16, rn uint8) bool {
		sSize := int(sn)%3000 + 100
		rSize := int(rn)%300 + 10
		r, s, err := workload.FKPair(workload.Config{Seed: seed, Tuples: sSize}, rSize)
		if err != nil {
			return false
		}
		want := RefJoin(r.Tuples, s.Tuples)
		for _, v := range vs {
			e, err := engine.New(v.cfg)
			if err != nil {
				return false
			}
			rIn := placeQuiet(e, r)
			sIn := placeQuiet(e, s)
			if rIn == nil || sIn == nil {
				return false
			}
			res, err := Join(e, v.opCfg, rIn, sIn)
			if err != nil {
				return false
			}
			if !tuple.SameMultiset(Gather(res.Out), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// placeQuiet is place without the testing.T plumbing (for quick.Check).
func placeQuiet(e *engine.Engine, rel *tuple.Relation) []*engine.Region {
	parts := rel.SplitEven(e.NumVaults())
	regions := make([]*engine.Region, len(parts))
	for v, p := range parts {
		r, err := e.Place(v, p.Tuples)
		if err != nil {
			return nil
		}
		regions[v] = r
	}
	return regions
}

func TestRadixPasses(t *testing.T) {
	for _, tc := range []struct {
		ks   uint64
		want int
	}{
		{256, 1}, {257, 2}, {1 << 16, 2}, {1 << 24, 3}, {1, 1},
	} {
		if got := RadixPasses(tc.ks); got != tc.want {
			t.Fatalf("RadixPasses(%d) = %d, want %d", tc.ks, got, tc.want)
		}
	}
}

func TestRadixSortLocalSorts(t *testing.T) {
	v := testVariants()[5] // Mondrian
	e := newEngine(t, v.cfg)
	rel := workload.Uniform("in", workload.Config{Seed: 33, Tuples: 2000, KeySpace: 1 << 16})
	r, err := e.Place(0, rel.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := e.AllocOut(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(engine.StepProfile{Name: "radix", StreamFed: true, DepIPC: 2})
	out, err := radixSortLocal(u, MondrianCosts(), r, scratch, 1<<16, true)
	e.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < out.Len(); i++ {
		if out.Tuples[i].Key < out.Tuples[i-1].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if !tuple.SameMultiset(out.Tuples, rel.Tuples) {
		t.Fatal("radix sort changed the multiset")
	}
}

func TestRadixSortStability(t *testing.T) {
	// Equal keys must keep their relative payload order (LSD stability).
	v := testVariants()[1] // NMP
	e := newEngine(t, v.cfg)
	in := []tuple.Tuple{{Key: 5, Val: 1}, {Key: 3, Val: 2}, {Key: 5, Val: 3}, {Key: 3, Val: 4}}
	r, _ := e.Place(0, in)
	scratch, _ := e.AllocOut(0, 4)
	u := e.UnitForVault(0)
	e.BeginStep(engine.StepProfile{Name: "radix"})
	out, err := radixSortLocal(u, DefaultCosts(), r, scratch, 256, false)
	e.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	want := []tuple.Tuple{{Key: 3, Val: 2}, {Key: 3, Val: 4}, {Key: 5, Val: 1}, {Key: 5, Val: 3}}
	for i := range want {
		if out.Tuples[i] != want[i] {
			t.Fatalf("stability broken: %v", out.Tuples)
		}
	}
}

func TestRadixSortBucketsAcrossVaults(t *testing.T) {
	v := testVariants()[5]
	e := newEngine(t, v.cfg)
	rel := workload.Uniform("in", workload.Config{Seed: 35, Tuples: 4000, KeySpace: 1 << 16})
	buckets := place(t, e, rel)
	sorted, err := RadixSortBuckets(e, MondrianCosts(), buckets, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	var got []tuple.Tuple
	for _, b := range sorted {
		for i := 1; i < b.Len(); i++ {
			if b.Tuples[i].Key < b.Tuples[i-1].Key {
				t.Fatal("bucket not sorted")
			}
		}
		got = append(got, b.Tuples...)
	}
	if !tuple.SameMultiset(got, rel.Tuples) {
		t.Fatal("radix buckets lost tuples")
	}
}

// Failure injection: vault memory exhaustion must surface as errors, not
// panics, from every operator entry point.
func TestVaultExhaustionSurfacesAsError(t *testing.T) {
	v := testVariants()[5] // Mondrian
	cfg := v.cfg
	cfg.Geometry.CapacityBytes = 96 << 10 // 96 KB vaults: too small for scratch
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel := workload.Uniform("in", workload.Config{Seed: 41, Tuples: 16000, KeySpace: 1 << 16})
	parts := rel.SplitEven(e.NumVaults())
	inputs := make([]*engine.Region, len(parts))
	for i, p := range parts {
		r, err := e.Place(i, p.Tuples)
		if err != nil {
			t.Skipf("placement itself exhausted the vault: %v", err)
		}
		inputs[i] = r
	}
	if _, err := Sort(e, v.opCfg, inputs); err == nil {
		t.Fatal("sort in exhausted vaults should error")
	}
}

func TestPartitionPhaseInputValidation(t *testing.T) {
	v := testVariants()[1]
	e := newEngine(t, v.cfg)
	if _, err := PartitionPhase(e, v.opCfg, nil, Partitioner{Buckets: e.NumVaults()}); err == nil {
		t.Fatal("nil inputs accepted")
	}
	rel := workload.Sequential("s", 100)
	inputs := place(t, e, rel)
	if _, err := PartitionPhase(e, v.opCfg, inputs, Partitioner{Buckets: 3}); err == nil {
		t.Fatal("NMP partitioning with wrong bucket count accepted")
	}
}

func TestCheckInputsRejectsMisplacedRegions(t *testing.T) {
	v := testVariants()[1]
	e := newEngine(t, v.cfg)
	rel := workload.Sequential("s", 64)
	inputs := place(t, e, rel)
	// Swap two regions: vault order broken.
	inputs[0], inputs[1] = inputs[1], inputs[0]
	if _, err := Scan(e, v.opCfg, inputs, 1); err == nil {
		t.Fatal("misordered inputs accepted")
	}
}
