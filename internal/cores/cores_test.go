package cores

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPresetParameters(t *testing.T) {
	a57 := CortexA57()
	if a57.FreqGHz != 2 || a57.IssueWidth != 3 || a57.ROB != 128 || a57.PeakPowerW != 2.1 {
		t.Fatalf("A57 = %+v", a57)
	}
	k := Krait400()
	if k.FreqGHz != 1 || k.ROB != 48 || k.PeakPowerW != 0.312 {
		t.Fatalf("Krait = %+v", k)
	}
	m := CortexA35Mondrian()
	if !m.InOrder || m.SIMDBits != 1024 || m.IssueWidth != 2 || m.PeakPowerW != 0.180 {
		t.Fatalf("Mondrian A35 = %+v", m)
	}
}

func TestSIMDLanes(t *testing.T) {
	m := CortexA35Mondrian()
	// 1024-bit datapath over 16-byte tuples = 8 tuples per op (paper §5.2).
	if got := m.SIMDLanes(16); got != 8 {
		t.Fatalf("SIMD lanes = %d, want 8", got)
	}
	if got := CortexA35().SIMDLanes(16); got != 1 {
		t.Fatalf("128-bit SIMD lanes over 16B tuples = %d, want 1", got)
	}
	if got := CortexA57().SIMDLanes(16); got != 1 {
		t.Fatalf("scalar core lanes = %d, want 1", got)
	}
}

func TestA57MLPMatchesPaperEstimate(t *testing.T) {
	// Paper §3.2: A57 with 128-entry ROB, one 8-byte access every 6
	// instructions → about 20 outstanding accesses; at 30 ns latency
	// that approaches 5.3 GB/s.
	a57 := CortexA57()
	mlp := a57.MLP(6)
	if mlp < 18 || mlp > 22 {
		t.Fatalf("A57 MLP = %.1f, want ~20", mlp)
	}
	// First-order bound for random accesses: MLP × bytes / latency.
	bw := mlp * 8 / 30
	if bw < 5.0 || bw > 6.0 {
		t.Fatalf("A57 sustained random BW = %.2f GB/s, want ~5.3", bw)
	}
}

func TestMLPCappedByMSHRs(t *testing.T) {
	a57 := CortexA57()
	if got := a57.MLP(1); got != float64(a57.MSHRs) {
		t.Fatalf("MLP(1) = %v, want MSHR cap %d", got, a57.MSHRs)
	}
	if got := a57.MLP(1000); got != 1 {
		t.Fatalf("MLP floor = %v, want 1", got)
	}
	if got := a57.MLP(0); got != float64(a57.MSHRs) {
		t.Fatalf("MLP(0) should treat as 1 inst/access, got %v", got)
	}
}

func TestInOrderMLPIsTiny(t *testing.T) {
	m := CortexA35Mondrian()
	if got := m.MLP(6); got > 2 {
		t.Fatalf("in-order MLP = %v, want <= 2", got)
	}
}

func TestPhaseTimeComputeBound(t *testing.T) {
	m := Krait400() // 3-wide, 1 GHz
	r := m.PhaseTime(Work{Instructions: 3000, DependencyIPC: 0})
	if math.Abs(r.TimeNs-1000) > 1e-9 {
		t.Fatalf("compute-bound time = %v ns, want 1000", r.TimeNs)
	}
	if math.Abs(r.AchievedIPC-3) > 1e-9 {
		t.Fatalf("IPC = %v, want 3", r.AchievedIPC)
	}
}

func TestPhaseTimeDependencyLimited(t *testing.T) {
	m := Krait400()
	r := m.PhaseTime(Work{Instructions: 1000, DependencyIPC: 1})
	if math.Abs(r.TimeNs-1000) > 1e-9 {
		t.Fatalf("dependency-limited time = %v, want 1000", r.TimeNs)
	}
	// Dependency cap above issue width must not raise IPC beyond width.
	r2 := m.PhaseTime(Work{Instructions: 3000, DependencyIPC: 10})
	if r2.AchievedIPC > 3+1e-9 {
		t.Fatalf("IPC exceeded issue width: %v", r2.AchievedIPC)
	}
}

func TestPhaseTimeMemoryStallsOverlap(t *testing.T) {
	m := CortexA57()
	w := Work{Instructions: 6000, DependencyIPC: 2, MemStallNs: 30000, InstPerMemAccess: 6}
	r := m.PhaseTime(w)
	// Stalls divided by MLP ~21.3: ~1406 ns, on top of 1500 ns compute.
	if r.MemStallNs >= 30000/10 {
		t.Fatalf("stalls barely overlapped: %v", r.MemStallNs)
	}
	if r.TimeNs <= r.ComputeNs {
		t.Fatal("stall time vanished entirely")
	}
	// In-order core, same work, must stall far longer.
	io := CortexA35Mondrian().PhaseTime(w)
	if io.MemStallNs <= r.MemStallNs*2 {
		t.Fatalf("in-order stall %v should dwarf OoO stall %v", io.MemStallNs, r.MemStallNs)
	}
}

func TestStreamFedHidesLatency(t *testing.T) {
	m := CortexA35Mondrian()
	w := Work{Instructions: 1000, MemStallNs: 50000, StreamFed: true}
	r := m.PhaseTime(w)
	if r.MemStallNs != 0 {
		t.Fatalf("stream-fed stalls = %v, want 0", r.MemStallNs)
	}
	if r.TimeNs != r.ComputeNs {
		t.Fatal("stream-fed time should be pure compute")
	}
}

func TestPhaseTimePanicsOnNegativeWork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	CortexA57().PhaseTime(Work{Instructions: -1})
}

func TestZeroWork(t *testing.T) {
	r := CortexA57().PhaseTime(Work{})
	if r.TimeNs != 0 || r.AchievedIPC != 0 {
		t.Fatalf("zero work: %+v", r)
	}
}

// Property: phase time is monotone in both instructions and stalls, and
// achieved IPC never exceeds issue width.
func TestPhaseTimeMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	models := []Model{CortexA57(), Krait400(), CortexA35Mondrian()}
	f := func(ins uint32, stall uint32, extra uint16, which uint8) bool {
		m := models[int(which)%len(models)]
		w := Work{Instructions: float64(ins), DependencyIPC: 1.5,
			MemStallNs: float64(stall), InstPerMemAccess: 6}
		base := m.PhaseTime(w)
		w2 := w
		w2.Instructions += float64(extra)
		w2.MemStallNs += float64(extra)
		more := m.PhaseTime(w2)
		return more.TimeNs >= base.TimeNs &&
			base.AchievedIPC <= float64(m.IssueWidth)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
