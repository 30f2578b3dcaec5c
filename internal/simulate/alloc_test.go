package simulate

import (
	"runtime"
	"testing"
)

// parentAllocs and parentBytes hold the heap allocations and allocated
// bytes of one pooled run at goldenParams (Parallelism 1, after warm-up,
// Go 1.24): per system, the four operators in Operators() order, then the
// five plans in Plans() order. They were recorded once host tuple buffers
// were sized from the exchanged histograms and outputs were verified by
// streaming digests, which halved both. Each value is the largest of ten
// measurements, each in its own process: Go's randomized map hash seeds
// move the counts by up to 0.4% and the bytes by up to 1.4% (the
// map-heavy aggregation plans) from process to process.
var parentAllocs = map[System][9]float64{
	CPU:            {65, 392, 4507, 827, 466, 4968, 8427, 8855, 5659},
	NMP:            {90, 323, 4369, 559, 266, 4516, 7823, 8122, 4612},
	NMPPerm:        {90, 314, 4360, 541, 257, 4507, 7806, 8095, 4585},
	NMPRand:        {90, 323, 4369, 559, 266, 4516, 7825, 8121, 4611},
	NMPSeq:         {90, 323, 2414, 766, 266, 2561, 4543, 4842, 3276},
	MondrianNoPerm: {98, 283, 2382, 707, 290, 2472, 4435, 4676, 3109},
	Mondrian:       {98, 273, 2373, 689, 281, 2463, 4417, 4651, 3082},
}

var parentBytes = map[System][9]float64{
	CPU:            {277632, 592947, 1286720, 1603662, 318083, 1956334, 3509785, 4641003, 3052990},
	NMP:            {278636, 1087084, 1800620, 2198185, 290611, 1941988, 3472100, 5523931, 3207016},
	NMPPerm:        {278587, 1086441, 1799897, 2196782, 289900, 1941292, 3470697, 5521790, 3204931},
	NMPRand:        {278614, 1087092, 1800643, 2198203, 290619, 1942006, 3486849, 5530723, 3199651},
	NMPSeq:         {278531, 1087089, 1539521, 2278726, 290604, 1680276, 3215248, 5248148, 3152595},
	MondrianNoPerm: {278667, 1084680, 1537267, 2272083, 290996, 1672577, 3194030, 5231208, 3137238},
	Mondrian:       {278659, 1083926, 1536536, 2270609, 290299, 1671929, 3192664, 5236899, 3135060},
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
// cell at goldenParams (Parallelism 1), its index into the parent tables
// and a function running it once pooled.
func forEachCell(t *testing.T, f func(s System, i int, name string, run func())) {
	p := goldenParams()
	p.Parallelism = 1
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
	forEachCell(t, func(s System, i int, name string, run func()) {
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
