package cores

import (
	"math"
	"testing"
)

func TestMLPOverrideTakesPrecedence(t *testing.T) {
	m := CortexA57()
	w := Work{Instructions: 100, DependencyIPC: 1, MemStallNs: 1000,
		InstPerMemAccess: 6, MLPOverride: 2}
	r := m.PhaseTime(w)
	if math.Abs(r.EffectiveMLP-2) > 1e-9 {
		t.Fatalf("effective MLP = %v, want override 2", r.EffectiveMLP)
	}
	if math.Abs(r.MemStallNs-500) > 1e-9 {
		t.Fatalf("stall = %v, want 500", r.MemStallNs)
	}
}

func TestSubUnityMLPOverrideModelsContention(t *testing.T) {
	// MLP < 1 encodes queueing: each miss costs more than its unloaded
	// latency (the CPU partition-loop calibration uses 0.5).
	m := CortexA57()
	w := Work{Instructions: 0, MemStallNs: 100, MLPOverride: 0.5}
	r := m.PhaseTime(w)
	if math.Abs(r.MemStallNs-200) > 1e-9 {
		t.Fatalf("contended stall = %v, want 200", r.MemStallNs)
	}
}

func TestStockA35Preset(t *testing.T) {
	a := CortexA35()
	if !a.InOrder || a.SIMDBits != 128 || a.PeakPowerW != 0.090 {
		t.Fatalf("A35 = %+v", a)
	}
	// 128-bit SIMD over 8-byte halves: two lanes of 8 B, one 16 B tuple.
	if a.SIMDLanes(8) != 2 {
		t.Fatalf("A35 8B lanes = %d", a.SIMDLanes(8))
	}
}

func TestSIMDLanesFloor(t *testing.T) {
	m := CortexA35()
	// A 32-byte object exceeds the 128-bit datapath: still 1 lane.
	if m.SIMDLanes(32) != 1 {
		t.Fatalf("lanes = %d, want floor of 1", m.SIMDLanes(32))
	}
}

func TestPhaseResultFields(t *testing.T) {
	m := Krait400()
	r := m.PhaseTime(Work{Instructions: 3000, DependencyIPC: 3, MemStallNs: 300, InstPerMemAccess: 10})
	if r.ComputeNs <= 0 || r.MemStallNs <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if math.Abs(r.TimeNs-(r.ComputeNs+r.MemStallNs)) > 1e-9 {
		t.Fatal("time != compute + stalls")
	}
}
