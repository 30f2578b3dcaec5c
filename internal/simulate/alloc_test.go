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
// streaming digests, which halved both, and lowered where they fell once
// placement stopped building a relation per vault chunk and the
// exchange's arrival order became an index permutation. Each value is the
// largest of ten measurements, each in its own process: Go's randomized
// map hash seeds move the counts by up to 0.4% and the bytes by up to
// 1.4% (the map-heavy aggregation plans) from process to process.
var parentAllocs = map[System][9]float64{
	CPU:            {54, 380, 4496, 807, 455, 4956, 8407, 8835, 5630},
	NMP:            {79, 311, 4358, 539, 255, 4505, 7806, 8102, 4582},
	NMPPerm:        {79, 302, 4349, 521, 246, 4496, 7784, 8073, 4555},
	NMPRand:        {79, 311, 4358, 539, 255, 4505, 7802, 8101, 4583},
	NMPSeq:         {79, 311, 2402, 745, 255, 2549, 4522, 4817, 3244},
	MondrianNoPerm: {87, 271, 2369, 686, 279, 2460, 4415, 4655, 3078},
	Mondrian:       {87, 262, 2361, 668, 270, 2451, 4397, 4629, 3051},
}

var parentBytes = map[System][9]float64{
	CPU:            {277110, 592947, 1286720, 1603662, 318083, 1956334, 3509785, 4641003, 3052990},
	NMP:            {278073, 862803, 1569580, 1869001, 290571, 1717862, 3151112, 4647942, 2821859},
	NMPPerm:        {278051, 862116, 1568889, 1867596, 289900, 1717179, 3141475, 4638019, 2819747},
	NMPRand:        {278080, 862806, 1569588, 1869019, 290579, 1717841, 3142910, 4640544, 2829251},
	NMPSeq:         {278051, 862806, 1308385, 1949516, 290604, 1456052, 2872180, 4371273, 2774771},
	MondrianNoPerm: {278187, 860382, 1306062, 1942900, 290996, 1448380, 2865267, 4363265, 2766779},
	Mondrian:       {278220, 859643, 1305385, 1941484, 290259, 1447707, 2856473, 4361571, 2764628},
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
// recorded parentAllocs, plus 2 allocations and 0.1% for the map-seed
// noise, and no more bytes than parentBytes plus 2%.
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
		if want := parentAllocs[s][i]; allocs > want+2+want/1000 {
			t.Errorf("%s: %.0f allocations per pooled run, want at most %.0f (recorded %.0f)", name, allocs, want+2+want/1000, want)
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
// System × Operator allocates as often right after a garbage collection
// as with collection switched off. Anything a run draws from a cache that
// collections empty (fmt's printer cache, behind every Sprintf) breaks
// this, and with it the bound above, which then passes or fails by when
// collections fall. Each side is the least of three runs, which sets
// aside the odd run that allocates once more whether or not a collection
// came before it. The plans are left out: their host-side hash maps grow
// by Go's per-map random seed, so their counts vary from run to run
// whatever the collector does.
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
	for _, s := range Systems() {
		for _, op := range Operators() {
			run := func() {
				if _, err := Run(s, op, p); err != nil {
					t.Fatalf("%v/%v: %v", s, op, err)
				}
			}
			run() // fill the pool
			run()
			quiet := mallocs(run, false)
			if collected := mallocs(run, true); collected != quiet {
				t.Errorf("%v/%v: %d allocations right after a collection, %d with none", s, op, collected, quiet)
			}
		}
	}
}
