package plan

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

func engineCfg(arch engine.Arch) engine.Config {
	g := dram.HMCGeometry()
	g.CapacityBytes = 16 << 20
	cfg := engine.Config{
		Cubes: 2, VaultsPer: 4,
		Geometry: g, Timing: dram.HMCTiming(),
		ObjectSize: tuple.Size, BarrierNs: 1000,
		Topology: noc.FullyConnected,
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
	case engine.Mondrian:
		cfg.Arch = engine.Mondrian
		cfg.Core = cores.CortexA35Mondrian()
		cfg.Permutable = true
	}
	return cfg
}

func testEngine(t *testing.T, arch engine.Arch) *engine.Engine {
	t.Helper()
	e, err := engine.New(engineCfg(arch))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func opCfg(arch engine.Arch) operators.Config {
	cfg := operators.Config{Costs: operators.DefaultCosts(), KeySpace: 1 << 16, CPUBuckets: 256}
	if arch == engine.Mondrian {
		cfg.Costs = operators.MondrianCosts()
		cfg.SortProbe = true
	}
	return cfg
}

func table(t *testing.T, e *engine.Engine, label string, rel *tuple.Relation) *Table {
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
	return &Table{Label: label, Regions: regions}
}

func TestJoinThenGroupBy(t *testing.T) {
	rRel, sRel, err := workload.FKPair(workload.Config{Seed: 3, Tuples: 4000}, 500)
	if err != nil {
		t.Fatal(err)
	}
	joined := operators.RefJoin(rRel.Tuples, sRel.Tuples)
	want := operators.RefGroupByTuples(joined)

	for _, arch := range []engine.Arch{engine.CPU, engine.NMP, engine.Mondrian} {
		t.Run(arch.String(), func(t *testing.T) {
			e := testEngine(t, arch)
			root := &GroupBy{In: &Join{
				R: table(t, e, "R", rRel),
				S: table(t, e, "S", sRel),
			}}
			res, err := Run(e, opCfg(arch), root)
			if err != nil {
				t.Fatal(err)
			}
			if !tuple.SameMultiset(res.Tuples(), want) {
				t.Fatal("join→groupby output mismatch")
			}
			if len(res.Stages) != 2 {
				t.Fatalf("stages = %d", len(res.Stages))
			}
			if res.Ns() <= 0 {
				t.Fatal("no plan time")
			}
			// The group-by consumes the join's hash-partitioned output
			// without re-shuffling on the vault-partitioned systems.
			wantElisions := 1
			if arch == engine.CPU {
				wantElisions = 0
			}
			if res.Elisions != wantElisions {
				t.Fatalf("elisions = %d, want %d", res.Elisions, wantElisions)
			}
			if fused := res.Stages[1].Fused; fused != (wantElisions == 1) {
				t.Fatalf("groupby stage fused = %v", fused)
			}
		})
	}
}

func TestFilterThenSort(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 5, Tuples: 5000, KeySpace: 64})
	needle, count := workload.ScanTarget(rel, 7)
	e := testEngine(t, engine.Mondrian)
	root := &Sort{In: &Filter{In: table(t, e, "in", rel), Needle: needle}}
	res, err := Run(e, opCfg(engine.Mondrian), root)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tuples()
	if len(got) != count {
		t.Fatalf("filtered %d tuples, want %d", len(got), count)
	}
	for _, tp := range got {
		if tp.Key != needle {
			t.Fatalf("foreign key %d survived the filter", tp.Key)
		}
	}
}

func TestSortPlanPreservesMultiset(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 9, Tuples: 6000, KeySpace: 1 << 16})
	e := testEngine(t, engine.NMP)
	res, err := Run(e, opCfg(engine.NMP), &Sort{In: table(t, e, "in", rel)})
	if err != nil {
		t.Fatal(err)
	}
	if !tuple.SameMultiset(res.Tuples(), rel.Tuples) {
		t.Fatal("sort plan changed the multiset")
	}
	// On vault-partitioned systems the materialized layout is globally
	// ordered: vault v holds range bucket v.
	var last tuple.Key
	for _, r := range res.Out {
		for i, tp := range r.Tuples {
			if tp.Key < last {
				t.Fatalf("global order broken at vault %d index %d", r.Vault.ID, i)
			}
			last = tp.Key
		}
	}
	// A sort root also exposes the ordered buckets directly.
	ordered := res.OrderedTuples()
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Key < ordered[i-1].Key {
			t.Fatalf("Ordered broken at %d", i)
		}
	}
	if !tuple.SameMultiset(ordered, rel.Tuples) {
		t.Fatal("Ordered changed the multiset")
	}
}

// TestSortKeySpaceNotClobbered is the regression test for the seed's Sort
// stage bug: the executor copied Sort.KeySpace into the operator config
// unconditionally, so a node leaving it zero wiped the configured key
// space and silently re-derived the bound from the data. With keys in
// [0,256) under a configured 1<<16 bound, the correct range partition puts
// every tuple in bucket 0; the clobbered config spread them over all
// vaults.
func TestSortKeySpaceNotClobbered(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 11, Tuples: 3000, KeySpace: 256})
	e := testEngine(t, engine.NMP)
	cfg := opCfg(engine.NMP) // KeySpace: 1 << 16
	// All tuples legitimately land in range bucket 0 — provision for it.
	cfg.Overprovision = 9
	res, err := Run(e, cfg, &Sort{In: table(t, e, "in", rel)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0].Len() != len(rel.Tuples) {
		t.Fatalf("configured key space ignored: vault 0 holds %d of %d tuples",
			res.Out[0].Len(), len(rel.Tuples))
	}
	// An explicit node override still takes effect.
	e2 := testEngine(t, engine.NMP)
	res2, err := Run(e2, cfg, &Sort{In: table(t, e2, "in", rel), KeySpace: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Out[0].Len() == len(rel.Tuples) {
		t.Fatal("node key-space override had no effect")
	}
	if !tuple.SameMultiset(res2.Tuples(), rel.Tuples) {
		t.Fatal("override run changed the multiset")
	}
}

func TestTableShapeValidation(t *testing.T) {
	e := testEngine(t, engine.NMP)
	bad := &Table{Label: "bad", Regions: nil}
	if _, err := Run(e, opCfg(engine.NMP), bad); err == nil {
		t.Fatal("mis-shaped table accepted")
	}
}

func TestMaterializeCompactsLocally(t *testing.T) {
	e := testEngine(t, engine.NMP)
	// Two fragments in vault 0, one in vault 3.
	a, _ := e.Place(0, workload.Sequential("a", 10).Tuples)
	b, _ := e.Place(0, workload.Sequential("b", 5).Tuples)
	c, _ := e.Place(3, workload.Sequential("c", 7).Tuples)
	out, err := Materialize(e, []*engine.Region{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != e.NumVaults() {
		t.Fatalf("out regions = %d", len(out))
	}
	if out[0].Len() != 15 || out[3].Len() != 7 || out[1].Len() != 0 {
		t.Fatalf("lengths: %d %d %d", out[0].Len(), out[3].Len(), out[1].Len())
	}
	// Fragments stay in their vault.
	if out[0].Vault.ID != 0 || out[3].Vault.ID != 3 {
		t.Fatal("materialize moved data between vaults")
	}
	var all []tuple.Tuple
	all = append(all, a.Tuples...)
	all = append(all, b.Tuples...)
	all = append(all, c.Tuples...)
	var got []tuple.Tuple
	for _, r := range out {
		got = append(got, r.Tuples...)
	}
	if !tuple.SameMultiset(all, got) {
		t.Fatal("materialize lost tuples")
	}
}

// TestMaterializeBulkDifferential pins the satellite fix: the compaction
// pass now rides the run-based bulk access path, and NoBulk's per-tuple
// reference loop must charge exactly the same simulated work.
func TestMaterializeBulkDifferential(t *testing.T) {
	for _, arch := range []engine.Arch{engine.CPU, engine.NMP, engine.Mondrian} {
		t.Run(arch.String(), func(t *testing.T) {
			run := func(noBulk bool) (float64, []tuple.Tuple) {
				cfg := engineCfg(arch)
				cfg.NoBulk = noBulk
				e, err := engine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				a, _ := e.Place(0, workload.Sequential("a", 1000).Tuples)
				b, _ := e.Place(0, workload.Sequential("b", 333).Tuples)
				c, _ := e.Place(5, workload.Sequential("c", 777).Tuples)
				d, _ := e.Place(2, nil)
				out, err := Materialize(e, []*engine.Region{a, b, c, d})
				if err != nil {
					t.Fatal(err)
				}
				return e.TotalNs(), operators.Gather(out)
			}
			bulkNs, bulkOut := run(false)
			refNs, refOut := run(true)
			if bulkNs != refNs {
				t.Fatalf("bulk %v ns != reference %v ns", bulkNs, refNs)
			}
			if !tuple.SameMultiset(bulkOut, refOut) {
				t.Fatal("bulk and reference outputs differ")
			}
		})
	}
}

// TestStagedMatchesFused pins the compiler's core guarantee: eliding a
// re-shuffle changes cost, never the result. The fused run must produce
// the staged run's exact output multiset while skipping at least one
// partition phase and finishing in less simulated time.
func TestStagedMatchesFused(t *testing.T) {
	rRel, sRel, err := workload.FKPair(workload.Config{Seed: 13, Tuples: 6000}, 700)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []engine.Arch{engine.NMP, engine.Mondrian} {
		t.Run(arch.String(), func(t *testing.T) {
			build := func(e *engine.Engine) Node {
				// The sort's range bound matches the join key domain
				// ([0, 700)); the config's 1<<16 default would funnel
				// every aggregate into range bucket 0.
				return &Sort{KeySpace: 700, In: &GroupBy{In: &Join{
					R: table(t, e, "R", rRel),
					S: table(t, e, "S", sRel),
				}}}
			}
			eF := testEngine(t, arch)
			fused, err := RunWith(eF, opCfg(arch), build(eF), Options{})
			if err != nil {
				t.Fatal(err)
			}
			eS := testEngine(t, arch)
			staged, err := RunWith(eS, opCfg(arch), build(eS), Options{NoFusion: true})
			if err != nil {
				t.Fatal(err)
			}
			if staged.Elisions != 0 {
				t.Fatalf("staged run elided %d shuffles", staged.Elisions)
			}
			if fused.Elisions < 1 {
				t.Fatal("fused run elided nothing")
			}
			if !tuple.SameMultiset(fused.Tuples(), staged.Tuples()) {
				t.Fatal("fusion changed the output multiset")
			}
			want := operators.RefGroupByTuples(operators.RefJoin(rRel.Tuples, sRel.Tuples))
			if !tuple.SameMultiset(fused.Tuples(), want) {
				t.Fatal("fused output does not match the reference")
			}
			if eF.TotalNs() >= eS.TotalNs() {
				t.Fatalf("fused %v ns not faster than staged %v ns", eF.TotalNs(), eS.TotalNs())
			}
		})
	}
}

// TestRangeFusionChain exercises the range-partition elision rule: a
// group-by over a sort output runs vault-local (range buckets isolate
// keys just as well as hash buckets), and a second sort over the
// key-preserving aggregation reuses the same range partition.
func TestRangeFusionChain(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 17, Tuples: 5000, KeySpace: 1 << 12})
	e := testEngine(t, engine.NMP)
	cfg := opCfg(engine.NMP)
	cfg.KeySpace = 1 << 12
	root := &Sort{In: &GroupBy{In: &Sort{In: table(t, e, "in", rel)}}}
	res, err := Run(e, cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elisions != 2 {
		t.Fatalf("elisions = %d, want 2 (groupby on range + sort reuse)", res.Elisions)
	}
	if !tuple.SameMultiset(res.Tuples(), operators.RefGroupByTuples(rel.Tuples)) {
		t.Fatal("fused chain output mismatch")
	}
	ordered := res.OrderedTuples()
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Key < ordered[i-1].Key {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestMultiJoinGreedyOrder pins the statistics-free join ordering: the
// smallest dimension joins first (innermost), regardless of the order the
// caller listed them, and the star output matches the reference
// composition.
func TestMultiJoinGreedyOrder(t *testing.T) {
	r1, sRel, err := workload.FKPair(workload.Config{Seed: 19, Tuples: 5000}, 600)
	if err != nil {
		t.Fatal(err)
	}
	// A second, smaller dimension over a subset of the key domain with
	// distinct deterministic payloads.
	r2 := tuple.NewRelation("R2", 300)
	for i := 0; i < 300; i++ {
		r2.Append1(tuple.Tuple{Key: tuple.Key(i), Val: tuple.Value(uint64(i)*2654435761 + 7)})
	}

	e := testEngine(t, engine.NMP)
	big := table(t, e, "R1", r1)
	small := table(t, e, "R2", r2)
	m := &MultiJoin{Fact: table(t, e, "S", sRel), Dims: []Node{big, small}}

	chain, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := chain.(*Join)
	if !ok || outer.R != Node(big) {
		t.Fatal("largest dimension should join last (outermost)")
	}
	inner, ok := outer.S.(*Join)
	if !ok || inner.R != Node(small) {
		t.Fatal("smallest dimension should join first (innermost)")
	}

	res, err := Run(e, opCfg(engine.NMP), &GroupBy{In: m})
	if err != nil {
		t.Fatal(err)
	}
	want := operators.RefGroupByTuples(
		operators.RefJoin(r1.Tuples, operators.RefJoin(r2.Tuples, sRel.Tuples)))
	if !tuple.SameMultiset(res.Tuples(), want) {
		t.Fatal("star join output mismatch")
	}
	// The second join's probe side and the group-by both reuse the
	// running intermediate's hash partition.
	if res.Elisions != 2 {
		t.Fatalf("elisions = %d, want 2", res.Elisions)
	}
	if (&MultiJoin{}).Name() != "multijoin" {
		t.Fatal("multijoin name wrong")
	}
	if _, err := (&MultiJoin{Fact: big}).Chain(); err == nil {
		t.Fatal("dimensionless multijoin accepted")
	}
}

func TestNodeNames(t *testing.T) {
	n := &GroupBy{In: &Join{R: &Table{Label: "r"}, S: &Table{Label: "s"}}}
	if n.Name() != "groupby" || n.In.Name() != "join" {
		t.Fatal("node names wrong")
	}
	if (&Filter{}).Name() != "filter" || (&Sort{}).Name() != "sort" {
		t.Fatal("node names wrong")
	}
	if (&Table{Label: "x"}).Name() != "table:x" {
		t.Fatal("table name wrong")
	}
}

// TestStageLabelsNumberRepeats: the first stage of a name keeps the bare
// name and each repeat gets "#n", counted per name, so every stage of a
// plan with two joins stays addressable in manifests.
func TestStageLabelsNumberRepeats(t *testing.T) {
	x := &executor{}
	var got []string
	for _, name := range []string{"join", "join", "agg", "join", "agg", "sort"} {
		got = append(got, x.label(name))
	}
	want := []string{"join", "join#2", "agg", "join#3", "agg#2", "sort"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %q, want %q", got, want)
		}
	}
}
