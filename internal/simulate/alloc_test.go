package simulate

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// parentAllocs and parentBytes hold the heap allocations and allocated
// bytes of one pooled run at goldenParams (Parallelism 1, after warm-up,
// Go 1.24): per system, the four operators in Operators() order, then the
// five plans in Plans() order. They were recorded once host tuple buffers
// were sized from the exchanged histograms and outputs were verified by
// streaming digests, and lowered where they fell since: once placement
// stopped building a relation per vault chunk, once the exchange's
// arrival order became an index permutation, and once the Group-by
// tables and the references moved from Go maps to flat key tables. With
// no Go map left on these paths, ten processes measure the same counts,
// so the counts are pinned exactly. The bytes are the largest of those
// ten measurements (they differ by at most 9 B), or the earlier pin where
// that was lower: CPU Sort and filter-sort run 0.5% and 1.0% above theirs.
var parentAllocs = map[System][9]float64{
	CPU:            {45, 112, 186, 282, 183, 380, 525, 687, 797},
	NMP:            {66, 263, 316, 512, 231, 431, 710, 959, 1045},
	NMPPerm:        {66, 254, 307, 494, 222, 422, 692, 932, 1018},
	NMPRand:        {66, 263, 316, 512, 231, 431, 710, 959, 1045},
	NMPSeq:         {66, 263, 333, 666, 231, 448, 858, 1107, 1307},
	MondrianNoPerm: {74, 239, 317, 635, 255, 391, 796, 1010, 1208},
	Mondrian:       {74, 230, 308, 617, 246, 382, 778, 983, 1181},
}

var parentBytes = map[System][9]float64{
	CPU:            {274880, 592947, 998289, 1493283, 318083, 1673480, 3099968, 4243792, 2725512},
	NMP:            {275576, 858584, 1267288, 1746152, 287528, 1405840, 2707875, 4201712, 2477920},
	NMPPerm:        {275576, 857880, 1266584, 1744744, 286833, 1405136, 2706467, 4199600, 2475808},
	NMPRand:        {275576, 858584, 1267297, 1746152, 287528, 1405840, 2707872, 4201712, 2477920},
	NMPSeq:         {275576, 858584, 1190712, 1824168, 287528, 1336816, 2605312, 4101840, 2515680},
	MondrianNoPerm: {275704, 856920, 1189176, 1818888, 287912, 1330672, 2600928, 4089936, 2503552},
	Mondrian:       {275704, 856216, 1188472, 1817480, 287208, 1329968, 2599520, 4087824, 2501440},
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes
// allocated (the MemStats.TotalAlloc delta) per run.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// forEachCell calls f with every System × Operator and System × Plan
// cell at p, its index into the parent tables and a function running it
// once pooled.
func forEachCell(t *testing.T, p Params, f func(s System, i int, name string, run func())) {
	for _, s := range Systems() {
		for i, op := range Operators() {
			name := s.String() + "/" + op.String()
			f(s, i, name, func() {
				if _, err := Run(s, op, p); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		for i, pl := range Plans() {
			name := s.String() + "/" + pl.String()
			f(s, len(Operators())+i, name, func() {
				if _, err := RunPlan(s, pl, p); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
	}
}

// TestRunAllocationBound keeps the experiment harness from adding heap
// allocations per run: a pooled Run of every System × Operator and a
// pooled RunPlan of every System × Plan allocate no more often than the
// recorded parentAllocs, and no more bytes than parentBytes plus 2%.
// Allocation does not depend on the host CPU, so the bound holds on any
// runner; the race detector's instrumentation does move it, so -race
// builds skip the test.
func TestRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	p := goldenParams()
	p.Parallelism = 1
	forEachCell(t, p, func(s System, i int, name string, run func()) {
		run() // fill the pool
		allocs, bytes := allocsPerRun(5, run)
		if want := parentAllocs[s][i]; allocs > want {
			t.Errorf("%s: %.0f allocations per pooled run, want at most %.0f", name, allocs, want)
		}
		if want := parentBytes[s][i]; bytes > want*1.02 {
			t.Errorf("%s: %.0f bytes allocated per pooled run, want at most %.0f (recorded %.0f)", name, bytes, want*1.02, want)
		}
	})
}

// TestPoolRetainsNoInputSizedState checks that what the engine pool keeps
// between runs is the engines' construction state, not scratch sized by
// the longest run an engine has retired: once every System × Operator and
// System × Plan cell has run pooled, the live heap a fresh pool holds is
// no larger at 4× the input than at goldenParams.
func TestPoolRetainsNoInputSizedState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves the live heap")
	}
	retained := func(scale int) uint64 {
		saved := enginePool
		defer func() { enginePool = saved }()
		enginePool = engine.NewPool(1)
		p := goldenParams()
		p.Parallelism = 1
		p.STuples *= scale
		p.RTuples *= scale
		before := liveHeap()
		forEachCell(t, p, func(_ System, _ int, _ string, run func()) { run() })
		after := liveHeap()
		runtime.KeepAlive(enginePool)
		if after < before {
			return 0
		}
		return after - before
	}
	base, large := retained(1), retained(4)
	t.Logf("the pool retains %d B at 1×, %d B at 4× the input", base, large)
	// Slack for the allocator's and the runtime's own bookkeeping.
	if large > base+base/20+64<<10 {
		t.Fatalf("the pool retains %d B after runs at 4× the input, %d B at 1×: pooled engines keep input-sized state", large, base)
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRunAllocationsIndependentOfCollections: a pooled Run of every
// System × Operator and a pooled RunPlan of every System × Plan allocate
// as often right after a garbage collection as with collection switched
// off. Anything a run draws from a cache that
// collections empty (fmt's printer cache, behind every Sprintf) breaks
// this, and with it the bound above, which then passes or fails by when
// collections fall. Each side is the least of three runs, which sets
// aside the odd run that allocates once more whether or not a collection
// came before it.
func TestRunAllocationsIndependentOfCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := goldenParams()
	p.Parallelism = 1
	// mallocs returns the least allocation count of three runs, each
	// after a forced collection when collect is set.
	mallocs := func(run func(), collect bool) uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			if collect {
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	forEachCell(t, p, func(_ System, _ int, name string, run func()) {
		run() // fill the pool
		run()
		quiet := mallocs(run, false)
		if collected := mallocs(run, true); collected != quiet {
			t.Errorf("%s: %d allocations right after a collection, %d with none", name, collected, quiet)
		}
	})
}
