package simulate

import (
	"errors"
	"testing"
)

// FuzzRunNoPanic is the boundary's no-crash guarantee: for any Params in
// the mutated space, any System and any experiment — one of the four
// operators through Run or one of the five query plans through RunPlan —
// the harness either returns a result or a typed error: never a panic,
// and never an internal-invariant failure on an input that Validate
// accepted. The seed corpus covers each formerly-crashing reproducer
// from the issue (negative STuples, join with RTuples=0, GroupSize=0,
// VaultCapBytes=0), a silently-accepted non-pow2 KeySpace, and the Zipf
// exponents s ≤ 1 that panicked workload generation before Zipf grew an
// error contract. The mutated space also spans the skew-aware execution
// path (SkewAware × ZipfS) and both plan fusion modes (NoFusion), so the
// detector, provisioning, splitting and stealing layers and fused probes
// on elided re-shuffles all sit under the no-crash guarantee.
//
// The harness folds raw fuzz values into bounded magnitudes — preserving
// sign, zero and non-pow2 structure so every rejection path stays
// reachable — because the guarantee excludes host-resource exhaustion:
// Validate's job is typed rejection, not making a tens-of-terabytes run
// affordable.
func FuzzRunNoPanic(f *testing.F) {
	type seed struct {
		sys, sel, cubes, vaultsPer, sTup, rTup, group int
		keySpace                                      uint64
		vaultCap                                      int64
		cpuBuckets, par                               int
		seed                                          int64
		noBulk, skewAware, noFusion                   bool
		zipfS                                         float64
	}
	// One seed per formerly-crashing probe, on the system/operator that
	// crashed, plus healthy baselines for every system so the fuzzer
	// starts from accepted inputs too.
	seeds := []seed{
		{int(Mondrian), opSel(OpScan), 1, 4, -5, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, false, 0},         // -s-tuples -5
		{int(Mondrian), opSel(OpJoin), 1, 4, 1 << 11, 0, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, false, 0},          // join -r-tuples 0
		{int(Mondrian), opSel(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 0, 1 << 20, 16 << 20, 0, 1, 42, false, false, false, 0}, // GroupSize=0
		{int(Mondrian), opSel(OpScan), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 0, 0, 1, 42, false, false, false, 0},           // VaultCapBytes=0
		{int(NMP), opSel(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 3 << 10, 16 << 20, 0, 1, 42, false, false, false, 0},         // non-pow2 KeySpace
		{int(CPU), opSel(OpJoin), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 1 << 8, 1, 42, false, false, false, 0},
		{int(NMPPerm), opSel(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 2, 7, true, false, false, 0},
		{int(NMPRand), opSel(OpScan), 2, 4, 1 << 10, 1 << 9, 4, 1 << 18, 8 << 20, 0, 0, 3, false, false, false, 0},
		{int(NMPSeq), opSel(OpSort), 1, 1, 1 << 10, 1 << 9, 4, 1 << 18, 8 << 20, 0, 1, 9, false, false, false, 0},
		{int(MondrianNoPerm), opSel(OpJoin), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 3, 11, false, false, false, 0},
		// The formerly-panicking Zipf exponents (s ≤ 1 crashed workload
		// generation before validation rejected them) and live skew shapes.
		{int(Mondrian), opSel(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, false, 1.0},
		{int(Mondrian), opSel(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, true, false, 0.5},
		{int(Mondrian), opSel(OpGroupBy), 1, 4, 1 << 12, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, true, false, 2.0},
		{int(CPU), opSel(OpJoin), 1, 4, 1 << 12, 1 << 10, 4, 1 << 20, 16 << 20, 1 << 8, 2, 42, false, true, false, 1.5},
		{int(NMPSeq), opSel(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 4, 9, true, true, false, 1.1},
		// Query plans, fused and staged.
		{int(Mondrian), planSel(PlanJoinAgg), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, false, 0},
		{int(NMP), planSel(PlanJoinAggSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 2, 7, false, false, true, 0},
		{int(CPU), planSel(PlanStarJoinAgg), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 1 << 8, 1, 42, false, false, false, 0},
		{int(NMPSeq), planSel(PlanSortAgg), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 4, 9, true, true, false, 1.5},
		{int(Mondrian), planSel(PlanFilterSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, true, true, 1.1},
		{int(Mondrian), planSel(PlanJoinAgg), 1, 4, -5, 0, 0, 3 << 10, 0, 0, 1, 42, false, false, false, 0.5},
	}
	for _, s := range seeds {
		f.Add(s.sys, s.sel, s.cubes, s.vaultsPer, s.sTup, s.rTup, s.group,
			s.keySpace, s.vaultCap, s.cpuBuckets, s.par, s.seed, s.noBulk,
			s.skewAware, s.noFusion, s.zipfS)
	}

	f.Fuzz(func(t *testing.T, sysRaw, selRaw, cubes, vaultsPer, sTup, rTup, group int,
		keySpace uint64, vaultCap int64, cpuBuckets, par int, seed int64, noBulk bool,
		skewAware, noFusion bool, zipfS float64) {
		p := TestParams()
		// Bound magnitudes so accepted inputs stay affordable; Go's %
		// keeps the sign, so negative and zero garbage still reaches the
		// rejection paths, and keySpace keeps its non-pow2 structure.
		p.Cubes = cubes % 4
		p.VaultsPer = vaultsPer % 10
		p.CPUCores = 2
		p.STuples = sTup % (1 << 12)
		p.RTuples = rTup % (1 << 11)
		p.GroupSize = group % 64
		p.KeySpace = keySpace % (1 << 26)
		p.VaultCapBytes = vaultCap % (1 << 25)
		p.CPUBuckets = cpuBuckets % (1 << 12)
		p.Parallelism = par % 8
		p.Seed = seed
		p.NoBulk = noBulk
		p.SkewAware = skewAware
		p.NoFusion = noFusion
		// ZipfS passes through raw: NaN/Inf/s ≤ 1 must reach the typed
		// rejection, and any accepted s > 1 is affordable at the bounded
		// tuple counts. Huge exponents just degenerate to one hot key.
		p.ZipfS = zipfS
		// Selectors range over every valid value plus one invalid probe
		// on each side: systems -1..numSystems, and the experiment over
		// operators -1..numOperators followed by plans -1..numPlans.
		sys := System(mod(sysRaw, int(numSystems)+2) - 1)
		var x experiment
		if i := mod(selRaw, int(numOperators)+int(numPlans)+4); i < int(numOperators)+2 {
			x = Operator(i - 1)
		} else {
			x = Plan(i - int(numOperators) - 3)
		}

		validated := validateSelectors(sys, x) == nil && p.Validate() == nil
		var err error
		gotResult := false
		switch x := x.(type) {
		case Operator:
			var res *Result
			res, err = Run(sys, x, p)
			gotResult = res != nil
		case Plan:
			var res *PlanResult
			res, err = RunPlan(sys, x, p)
			gotResult = res != nil
		}
		if err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("internal invariant tripped (validated=%v) on %v/%v %+v: %v\n%s",
					validated, sys, x, p, ie, ie.StackTrace())
			}
			if validated && errors.As(err, new(*ParamError)) {
				t.Fatalf("Validate accepted %+v but %v/%v was rejected: %v", p, sys, x, err)
			}
			return // typed rejection or a clean runtime error (e.g. overflow)
		}
		if !validated {
			t.Fatalf("harness accepted input that Validate rejects: %v/%v %+v", sys, x, p)
		}
		if !gotResult {
			t.Fatal("nil result without error")
		}
	})
}

// opSel and planSel are the fuzz selector values that pick an operator or
// a plan.
func opSel(op Operator) int { return int(op) + 1 }
func planSel(pl Plan) int   { return int(numOperators) + 3 + int(pl) }

// mod is the non-negative remainder.
func mod(v, m int) int { return (v%m + m) % m }
