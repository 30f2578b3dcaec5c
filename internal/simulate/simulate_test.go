package simulate

import (
	"testing"
)

// The simulate tests run the full system × operator matrix at TestParams
// scale: every run's output is verified against the reference oracles, and
// the qualitative results of the paper's evaluation are asserted as
// invariants (who wins, and in which direction the co-design features
// push).

func suite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(TestParams())
}

func TestStringers(t *testing.T) {
	if CPU.String() != "CPU" || Mondrian.String() != "Mondrian" || NMPPerm.String() != "NMP-perm" {
		t.Fatal("system names wrong")
	}
	if OpScan.String() != "Scan" || OpGroupBy.String() != "Group by" {
		t.Fatal("operator names wrong")
	}
	if System(99).String() == "" || Operator(99).String() == "" {
		t.Fatal("fallback names empty")
	}
	if len(Systems()) != int(numSystems) || len(Operators()) != int(numOperators) {
		t.Fatal("enumerations incomplete")
	}
}

func TestEngineConfigsPerSystem(t *testing.T) {
	p := TestParams()
	for _, s := range Systems() {
		cfg := p.EngineConfig(s)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if !p.EngineConfig(Mondrian).Permutable {
		t.Fatal("Mondrian must be permutable")
	}
	if p.EngineConfig(MondrianNoPerm).Permutable {
		t.Fatal("Mondrian-noperm must not be permutable")
	}
	if p.EngineConfig(NMPPerm).Permutable == false {
		t.Fatal("NMP-perm must be permutable")
	}
	if p.EngineConfig(CPU).LLC.SizeBytes == 0 {
		t.Fatal("CPU needs an LLC")
	}
}

func TestOperatorConfigsPerSystem(t *testing.T) {
	p := TestParams()
	if p.OperatorConfig(NMPSeq).SortProbe == false {
		t.Fatal("NMP-seq must sort-probe")
	}
	if p.OperatorConfig(NMPRand).SortProbe {
		t.Fatal("NMP-rand must hash-probe")
	}
	if p.OperatorConfig(Mondrian).Costs.MergeFanIn != 8 {
		t.Fatal("Mondrian must merge through 8 stream buffers")
	}
	if p.OperatorConfig(CPU).Costs.MergeFanIn != 2 {
		t.Fatal("scalar systems merge 2-way")
	}
}

func TestMatrixVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	p := TestParams()
	for _, s := range Systems() {
		for _, op := range Operators() {
			r, err := Run(s, op, p)
			if err != nil {
				t.Fatalf("%v/%v: %v", s, op, err)
			}
			if !r.Verified {
				t.Errorf("%v/%v not verified", s, op)
			}
			if r.TotalNs <= 0 {
				t.Errorf("%v/%v has no runtime", s, op)
			}
			if r.Energy.Total() <= 0 {
				t.Errorf("%v/%v has no energy", s, op)
			}
			if op != OpScan && (r.PartitionNs <= 0 || r.ProbeNs <= 0) {
				t.Errorf("%v/%v missing phase times", s, op)
			}
			if op == OpScan && r.PartitionNs != 0 {
				t.Errorf("Scan has no partitioning phase, got %v", r.PartitionNs)
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := suite(t).Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper ordering: NMP < NMP-perm < Mondrian-noperm < Mondrian, all
	// faster than the CPU.
	for i, r := range rows {
		if r.SpeedupVsCPU <= 1 {
			t.Errorf("%v partition speedup %.2f <= 1", r.System, r.SpeedupVsCPU)
		}
		if i > 0 && r.SpeedupVsCPU <= rows[i-1].SpeedupVsCPU {
			t.Errorf("ordering violated: %v (%.1f) <= %v (%.1f)",
				r.System, r.SpeedupVsCPU, rows[i-1].System, rows[i-1].SpeedupVsCPU)
		}
	}
	// Permutability must raise distribution bandwidth (NMP-perm vs NMP).
	if rows[1].DistBWPerVaultGBs <= rows[0].DistBWPerVaultGBs {
		t.Errorf("permutability did not raise bandwidth: %.2f vs %.2f",
			rows[1].DistBWPerVaultGBs, rows[0].DistBWPerVaultGBs)
	}
}

func TestFig6Shape(t *testing.T) {
	su := suite(t)
	series, err := su.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	bySys := map[System]map[Operator]float64{}
	for _, s := range series {
		bySys[s.System] = s.Speedups
	}
	// NMP-rand and NMP-seq execute the same Scan code (§7.1).
	if bySys[NMPRand][OpScan] != bySys[NMPSeq][OpScan] {
		t.Errorf("Scan NMP-rand (%.2f) != NMP-seq (%.2f)",
			bySys[NMPRand][OpScan], bySys[NMPSeq][OpScan])
	}
	// NMP-rand outperforms NMP-seq on Group by and Join (§7.1: the
	// sequential pattern can't compensate the extra log n passes).
	for _, op := range []Operator{OpGroupBy, OpJoin} {
		if bySys[NMPRand][op] <= bySys[NMPSeq][op] {
			t.Errorf("%v: NMP-rand (%.2f) should beat NMP-seq (%.2f)",
				op, bySys[NMPRand][op], bySys[NMPSeq][op])
		}
	}
	// Mondrian wins every probe.
	for _, op := range Operators() {
		if bySys[Mondrian][op] <= bySys[NMPRand][op] {
			t.Errorf("%v: Mondrian (%.2f) should beat NMP-rand (%.2f)",
				op, bySys[Mondrian][op], bySys[NMPRand][op])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	su := suite(t)
	series, err := su.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	bySys := map[System]map[Operator]float64{}
	for _, s := range series {
		bySys[s.System] = s.Speedups
	}
	for _, op := range Operators() {
		if bySys[Mondrian][op] <= 1 {
			t.Errorf("%v: Mondrian not faster than CPU", op)
		}
		if bySys[Mondrian][op] <= bySys[NMP][op] {
			t.Errorf("%v: Mondrian (%.1f) should beat NMP (%.1f)",
				op, bySys[Mondrian][op], bySys[NMP][op])
		}
	}
	// Permutability helps end-to-end on partition-heavy operators.
	for _, op := range []Operator{OpSort, OpGroupBy, OpJoin} {
		if bySys[NMPPerm][op] < bySys[NMP][op] {
			t.Errorf("%v: NMP-perm (%.1f) slower than NMP (%.1f)",
				op, bySys[NMPPerm][op], bySys[NMP][op])
		}
	}
}

func TestFig8Shape(t *testing.T) {
	su := suite(t)
	entries, err := su.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Fatalf("entries = %d, want 4 systems × 4 operators", len(entries))
	}
	for _, e := range entries {
		f := e.Breakdown.Fractions()
		sum := f[0] + f[1] + f[2] + f[3]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%v/%v fractions sum to %v", e.System, e.Operator, sum)
		}
		// §7.2: in the CPU case core energy dominates.
		if e.System == CPU && f[2] < f[0] {
			t.Errorf("CPU %v: cores (%.2f) should dominate DRAM dyn (%.2f)", e.Operator, f[2], f[0])
		}
		// Mondrian's aggressive bandwidth use makes DRAM dynamic the
		// largest DRAM component relative to the CPU's.
		if e.System == Mondrian && f[0] <= 0.05 {
			t.Errorf("Mondrian %v: DRAM dynamic fraction %.2f suspiciously small", e.Operator, f[0])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	su := suite(t)
	eff, err := su.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := su.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	effBy := map[System]map[Operator]float64{}
	for _, s := range eff {
		effBy[s.System] = s.Speedups
	}
	perfBy := map[System]map[Operator]float64{}
	for _, s := range perf {
		perfBy[s.System] = s.Speedups
	}
	for _, op := range Operators() {
		if effBy[Mondrian][op] <= 1 {
			t.Errorf("%v: Mondrian efficiency not better than CPU", op)
		}
		if effBy[Mondrian][op] <= effBy[NMP][op] {
			t.Errorf("%v: Mondrian efficiency (%.1f) should beat NMP (%.1f)",
				op, effBy[Mondrian][op], effBy[NMP][op])
		}
	}
	_ = perfBy
}

// §7.2: "the gains are smaller than the performance improvements" —
// Mondrian draws higher power while running. This is a property of the
// paper's full 64-vault system shape (64 Mondrian cores vs 16 CPU cores),
// so it is asserted at that shape.
func TestEfficiencyTrailsPerformanceAtPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape run in -short mode")
	}
	p := DefaultParams()
	p.STuples = 1 << 17
	p.RTuples = 1 << 16
	su := NewSuite(p)
	cpu, err := su.Get(CPU, OpJoin)
	if err != nil {
		t.Fatal(err)
	}
	m, err := su.Get(Mondrian, OpJoin)
	if err != nil {
		t.Fatal(err)
	}
	perf := cpu.TotalNs / m.TotalNs
	eff := m.Efficiency() / cpu.Efficiency()
	if eff <= 1 || perf <= 1 {
		t.Fatalf("no gains: perf %.1f eff %.1f", perf, eff)
	}
	if eff >= perf {
		t.Errorf("efficiency gain (%.1f) should trail performance gain (%.1f)", eff, perf)
	}
}

func TestSuiteMemoizes(t *testing.T) {
	su := suite(t)
	a, err := su.Get(NMP, OpScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := su.Get(NMP, OpScan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("suite re-ran a cached experiment")
	}
}

func TestRunDeterministic(t *testing.T) {
	p := TestParams()
	a, err := Run(Mondrian, OpJoin, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Mondrian, OpJoin, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalNs != b.TotalNs || a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("nondeterministic run: %v vs %v ns", a.TotalNs, b.TotalNs)
	}
}

func TestPermutabilityActivationsAcrossSystems(t *testing.T) {
	p := TestParams()
	perm, err := Run(NMPPerm, OpJoin, p)
	if err != nil {
		t.Fatal(err)
	}
	noperm, err := Run(NMP, OpJoin, p)
	if err != nil {
		t.Fatal(err)
	}
	if noperm.DRAM.Activations <= perm.DRAM.Activations {
		t.Errorf("permutability should reduce activations: perm=%d noperm=%d",
			perm.DRAM.Activations, noperm.DRAM.Activations)
	}
}
