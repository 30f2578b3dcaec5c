package simulate

import "testing"

// parentAllocs holds the heap allocations of one pooled run at
// goldenParams (Parallelism 1, after warm-up), recorded before Run and
// RunPlan shared one harness: per system, the four operators in
// Operators() order, then the five plans in Plans() order. Each value is
// the largest of ten measurements; Go's randomized map hash seeds move
// the count by up to 0.08% from process to process.
var parentAllocs = map[System][9]float64{
	CPU:            {66, 406, 4564, 906, 470, 5079, 8573, 9074, 5858},
	NMP:            {90, 4368, 5102, 1861, 268, 8654, 9234, 18660, 6541},
	NMPPerm:        {90, 4359, 5093, 1840, 259, 8645, 9216, 18635, 6513},
	NMPRand:        {90, 4368, 5102, 1858, 268, 8651, 9234, 18660, 6545},
	NMPSeq:         {90, 4368, 6554, 7105, 268, 10074, 14398, 23824, 14667},
	MondrianNoPerm: {98, 2680, 4868, 4638, 293, 6661, 10209, 15240, 10074},
	Mondrian:       {98, 2667, 4858, 4620, 284, 6659, 10191, 15199, 10053},
}

// TestRunAllocationBound keeps the experiment harness from adding heap
// allocations per run: a pooled Run of every System × Operator and a
// pooled RunPlan of every System × Plan allocate no more than the
// recorded parentAllocs, plus 2 allocations and 0.1% for the map-seed
// noise. Allocation counts do not depend on the host CPU, so the bound
// holds on any runner; the race detector's instrumentation does move
// them, so -race builds skip the test.
func TestRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	p := goldenParams()
	p.Parallelism = 1
	check := func(name string, bound float64, run func() error) {
		if err := run(); err != nil { // warm the pool and the allocator
			t.Fatalf("%s: %v", name, err)
		}
		got := testing.AllocsPerRun(5, func() {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if limit := bound + 2 + bound/1000; got > limit {
			t.Errorf("%s: %.0f allocations per pooled run, want at most %.0f (recorded %.0f)", name, got, limit, bound)
		}
	}
	for _, s := range Systems() {
		want := parentAllocs[s]
		for i, op := range Operators() {
			check(s.String()+"/"+op.String(), want[i], func() error {
				_, err := Run(s, op, p)
				return err
			})
		}
		for i, pl := range Plans() {
			check(s.String()+"/"+pl.String(), want[len(Operators())+i], func() error {
				_, err := RunPlan(s, pl, p)
				return err
			})
		}
	}
}
