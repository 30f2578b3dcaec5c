package energy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))+1e-18
}

func TestDefaultParamsMatchTable4(t *testing.T) {
	p := DefaultParams()
	if p.CPUCoreW != 2.1 || p.NMPCoreW != 0.312 || p.MondrianCoreW != 0.180 {
		t.Fatalf("core powers: %+v", p)
	}
	if p.ActivationJ != 0.65e-9 {
		t.Fatalf("activation energy = %v, want 0.65 nJ", p.ActivationJ)
	}
	if p.AccessJPerBit != 2e-12 {
		t.Fatalf("access energy = %v, want 2 pJ/bit", p.AccessJPerBit)
	}
	if p.SerDesBusyJPerBit != 3e-12 || p.SerDesIdleJPerBit != 1e-12 {
		t.Fatalf("serdes energies: %+v", p)
	}
	if p.HMCBackgroundW != 0.980 || p.LLCLeakW != 0.110 || p.NoCLeakW != 0.030 {
		t.Fatalf("static powers: %+v", p)
	}
	if p.LLCAccessJ != 0.09e-9 || p.NoCPerBitMMJ != 0.04e-12 {
		t.Fatalf("per-event energies: %+v", p)
	}
}

func TestDRAMDynamicJ(t *testing.T) {
	p := DefaultParams()
	// One activation plus one full 256 B row read.
	got := p.DRAMDynamicJ(1, 256)
	want := 0.65e-9 + 256*8*2e-12
	if !almost(got, want) {
		t.Fatalf("DRAMDynamicJ = %v, want %v", got, want)
	}
	// Activation share for a whole-row access should be modest (~14% in
	// the paper's CACTI-3DD estimate; our Table 4 constants land nearby).
	frac := 0.65e-9 / want
	if frac < 0.10 || frac > 0.25 {
		t.Fatalf("activation fraction for full row = %.2f, want ~0.14", frac)
	}
	// For an 8 B access the activation must dominate (~80% in the paper).
	small := p.DRAMDynamicJ(1, 8)
	frac8 := 0.65e-9 / small
	if frac8 < 0.7 {
		t.Fatalf("activation fraction for 8B access = %.2f, want > 0.7", frac8)
	}
}

func TestDRAMStaticJ(t *testing.T) {
	p := DefaultParams()
	if got := p.DRAMStaticJ(4, 2.0); !almost(got, 4*0.980*2) {
		t.Fatalf("DRAMStaticJ = %v", got)
	}
}

func TestCoreUtilJBusyIdleSplit(t *testing.T) {
	p := DefaultParams()
	// At full utilization busy power is peak.
	full := p.CoreUtilJ(2.0, 1.0, 1.0, 1)
	if !almost(full, 2.0) {
		t.Fatalf("fully busy core = %v, want 2.0", full)
	}
	idle := p.CoreUtilJ(2.0, 0.0, 1.0, 1)
	if !almost(idle, 2.0*p.IdleCoreFraction) {
		t.Fatalf("idle core = %v", idle)
	}
	half := p.CoreUtilJ(2.0, 0.5, 1.0, 1)
	if !(half > idle && half < full) {
		t.Fatalf("half-busy core %v not between %v and %v", half, idle, full)
	}
	// Busy time is clamped to the phase duration.
	if got := p.CoreUtilJ(2.0, 5.0, 1.0, 1); !almost(got, 2.0) {
		t.Fatalf("clamped CoreUtilJ = %v, want 2.0", got)
	}
}

func TestSerDesJ(t *testing.T) {
	p := DefaultParams()
	// Fully busy link: pure busy energy.
	busy := p.SerDesJ(1000, 160, 50, 50)
	if !almost(busy, 1000*8*3e-12) {
		t.Fatalf("busy SerDesJ = %v", busy)
	}
	// Fully idle link for 100 ns at 160 Gb/s: 16000 idle bits at 1 pJ.
	idle := p.SerDesJ(0, 160, 0, 100)
	if !almost(idle, 16000*1e-12) {
		t.Fatalf("idle SerDesJ = %v", idle)
	}
	// Busy time exceeding total must not produce negative idle energy.
	if got := p.SerDesJ(10, 160, 100, 50); got < 0 {
		t.Fatalf("SerDesJ went negative: %v", got)
	}
}

func TestLLCAndNoC(t *testing.T) {
	p := DefaultParams()
	if got := p.LLCJ(1000, 0.5); !almost(got, 1000*0.09e-9+0.110*0.5) {
		t.Fatalf("LLCJ = %v", got)
	}
	if got := p.NoCJ(1e6, 4, 0.25); !almost(got, 1e6*0.04e-12+4*0.030*0.25) {
		t.Fatalf("NoCJ = %v", got)
	}
}

func TestBreakdownTotalAdd(t *testing.T) {
	b := Breakdown{DRAMDynamic: 1, DRAMStatic: 2, Cores: 3, LLC: 4, Network: 5}
	if b.Total() != 15 {
		t.Fatalf("Total = %v, want 15", b.Total())
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 30 {
		t.Fatalf("accumulated total = %v, want 30", acc.Total())
	}
}

func TestBreakdownFractions(t *testing.T) {
	b := Breakdown{DRAMDynamic: 10, DRAMStatic: 20, Cores: 25, LLC: 5, Network: 40}
	f := b.Fractions()
	wants := [4]float64{0.10, 0.20, 0.30, 0.40}
	for i := range f {
		if !almost(f[i], wants[i]) {
			t.Fatalf("Fractions[%d] = %v, want %v", i, f[i], wants[i])
		}
	}
	var zero Breakdown
	if zero.Fractions() != [4]float64{} {
		t.Fatal("zero breakdown should have zero fractions")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{DRAMDynamic: 1, DRAMStatic: 1, Cores: 1, Network: 1}
	s := b.String()
	if !strings.Contains(s, "25%") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: every energy function is non-negative and monotone in its
// activity inputs.
func TestEnergyMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	f := func(acts, bytes uint32, extra uint16) bool {
		a, b2 := uint64(acts), uint64(bytes)
		base := p.DRAMDynamicJ(a, b2)
		more := p.DRAMDynamicJ(a+uint64(extra), b2+uint64(extra))
		if base < 0 || more < base {
			return false
		}
		c := p.CoreUtilJ(1.0, float64(acts%1000)/1000, 1.0, 1)
		return c >= 0 && c <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fractions always sums to 1 for non-zero breakdowns.
func TestFractionsSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(a, b, c, d, e uint16) bool {
		br := Breakdown{float64(a) + 1, float64(b), float64(c), float64(d), float64(e)}
		fr := br.Fractions()
		sum := fr[0] + fr[1] + fr[2] + fr[3]
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
