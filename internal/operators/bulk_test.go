package operators

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// TestBulkMatchesReferenceTiming runs every operator on every variant
// twice — bulk and the per-tuple reference loops (NoBulk) — and requires
// identical simulated time and identical functional results. This is the
// operators-level half of the differential pin; the simulate package
// pins full byte-identical report JSON.
func TestBulkMatchesReferenceTiming(t *testing.T) {
	scanRel := workload.Uniform("in", workload.Config{Seed: 3, Tuples: 4000, KeySpace: 500})
	needle, _ := workload.ScanTarget(scanRel, 7)
	sortRel := workload.Uniform("in", workload.Config{Seed: 5, Tuples: 6000, KeySpace: 1 << 16})
	gbRel, err := workload.GroupBy(workload.Config{Seed: 9, Tuples: 4000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	joinR, joinS, err := workload.FKPair(workload.Config{Seed: 11, Tuples: 6000}, 800)
	if err != nil {
		t.Fatal(err)
	}
	type opRun struct {
		name string
		run  func(e *engine.Engine, cfg Config) (float64, int, []*engine.Region, error)
	}
	ops := []opRun{
		{"scan", func(e *engine.Engine, cfg Config) (float64, int, []*engine.Region, error) {
			res, err := Scan(e, cfg, place(t, e, scanRel), needle)
			if err != nil {
				return 0, 0, nil, err
			}
			return e.TotalNs(), res.Matches, res.Out, nil
		}},
		{"sort", func(e *engine.Engine, cfg Config) (float64, int, []*engine.Region, error) {
			res, err := Sort(e, cfg, place(t, e, sortRel))
			if err != nil {
				return 0, 0, nil, err
			}
			return e.TotalNs(), 0, res.Sorted, nil
		}},
		{"groupby", func(e *engine.Engine, cfg Config) (float64, int, []*engine.Region, error) {
			res, err := GroupBy(e, cfg, place(t, e, gbRel))
			if err != nil {
				return 0, 0, nil, err
			}
			return e.TotalNs(), res.Groups, res.Out, nil
		}},
		{"join", func(e *engine.Engine, cfg Config) (float64, int, []*engine.Region, error) {
			res, err := Join(e, cfg, place(t, e, joinR), place(t, e, joinS))
			if err != nil {
				return 0, 0, nil, err
			}
			return e.TotalNs(), res.Matches, res.Out, nil
		}},
	}
	for _, v := range testVariants() {
		for _, skew := range []bool{false, true} {
			for _, op := range ops {
				name := v.name + "/" + op.name
				if skew {
					name += "/skew"
				}
				t.Run(name, func(t *testing.T) {
					refCfg := v.cfg
					refCfg.NoBulk = true
					opCfg := v.opCfg
					opCfg.SkewAware = skew

					ns0, count0, out0, err := op.run(newEngine(t, v.cfg), opCfg)
					if err != nil {
						t.Fatal(err)
					}
					ns1, count1, out1, err := op.run(newEngine(t, refCfg), opCfg)
					if err != nil {
						t.Fatal(err)
					}
					if ns0 != ns1 {
						t.Fatalf("simulated time diverged: bulk %v ns, reference %v ns", ns0, ns1)
					}
					if count0 != count1 {
						t.Fatalf("result count diverged: bulk %d, reference %d", count0, count1)
					}
					if !tuple.SameMultiset(Gather(out0), Gather(out1)) {
						t.Fatal("output multiset diverged")
					}
				})
			}
		}
	}
}

// TestMergesortKernelSteadyStateZeroAlloc pins the bulk mergesort kernel
// (run formation plus every merge pass) on a streamed Mondrian unit and on
// a cache-backed NMP unit: the unit's stream group carries the per-group
// views and readers, and the scratch region's host storage is reserved
// once, so after one warm-up call every further call performs zero heap
// allocations.
func TestMergesortKernelSteadyStateZeroAlloc(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 25, Tuples: 4096, KeySpace: 1 << 16})
	for _, v := range []variant{testVariants()[2], testVariants()[5]} { // NMP-seq, Mondrian
		t.Run(v.name, func(t *testing.T) {
			e := newEngine(t, v.cfg)
			r, err := e.Place(0, rel.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := e.AllocOut(0, rel.Len())
			if err != nil {
				t.Fatal(err)
			}
			u := e.UnitForVault(0)
			simd := isSIMD(e)
			e.BeginStep(engine.StepProfile{Name: "sort", StreamFed: e.StreamFed()})
			defer e.EndStep()
			kernel := func() {
				if _, err := mergesortLocal(u, v.opCfg.Costs, r, scratch, simd); err != nil {
					t.Fatal(err)
				}
			}
			kernel()
			if allocs := testing.AllocsPerRun(10, kernel); allocs != 0 {
				t.Fatalf("mergesort kernel steady state allocates %v times per run", allocs)
			}
		})
	}
}
