// Package cores provides analytical timing models for the three compute
// units of the paper (Table 3):
//
//   - CPU baseline: ARM Cortex-A57-like, 64-bit, 2 GHz, out-of-order,
//     3-wide dispatch/retire, 128-entry ROB;
//   - NMP baseline: Qualcomm Krait400-like, 1 GHz, out-of-order, 3-wide,
//     48-entry ROB;
//   - Mondrian: ARM Cortex-A35-like, 1 GHz, dual-issue in-order, with a
//     1024-bit fixed-point SIMD unit (8 lanes of 16-byte tuples).
//
// The model follows the paper's own performance methodology (§6): runtime
// is instruction count divided by achieved IPC and frequency, where the
// achieved IPC reflects issue width, dependency chains, and memory stalls
// bounded by the core's sustainable memory-level parallelism (MLP). The
// MLP derivation mirrors the paper's §3.2 estimate: an OoO core keeps
// about ROB/instructions-per-access memory requests in flight, capped by
// its MSHRs; an in-order core without stream buffers keeps barely one.
package cores

import "fmt"

// Model describes a compute unit.
type Model struct {
	Name       string
	FreqGHz    float64
	IssueWidth int
	ROB        int // reorder-buffer entries; 0 for in-order cores
	MSHRs      int // outstanding-miss registers
	InOrder    bool
	SIMDBits   int     // SIMD datapath width in bits; 0 = scalar only
	PeakPowerW float64 // Table 4 peak power
}

// CortexA57 returns the CPU-centric baseline core model.
func CortexA57() Model {
	return Model{Name: "Cortex-A57", FreqGHz: 2, IssueWidth: 3, ROB: 128, MSHRs: 32, PeakPowerW: 2.1}
}

// Krait400 returns the NMP baseline core model. Its 312 mW peak power is
// the full per-vault budget of Table 4.
func Krait400() Model {
	return Model{Name: "Krait400", FreqGHz: 1, IssueWidth: 3, ROB: 48, MSHRs: 16, PeakPowerW: 0.312}
}

// CortexA35Mondrian returns the Mondrian compute unit: dual-issue in-order
// with the widened 1024-bit fixed-point SIMD unit (§5.2), 180 mW.
func CortexA35Mondrian() Model {
	return Model{Name: "Cortex-A35+SIMD1024", FreqGHz: 1, IssueWidth: 2, InOrder: true,
		MSHRs: 4, SIMDBits: 1024, PeakPowerW: 0.180}
}

// CortexA35 returns the stock in-order A35 with 128-bit NEON, used by the
// SIMD-width ablation study.
func CortexA35() Model {
	return Model{Name: "Cortex-A35", FreqGHz: 1, IssueWidth: 2, InOrder: true,
		MSHRs: 4, SIMDBits: 128, PeakPowerW: 0.090}
}

// SIMDLanes returns how many 16-byte tuples one SIMD operation covers.
func (m Model) SIMDLanes(tupleBytes int) int {
	if m.SIMDBits == 0 {
		return 1
	}
	lanes := m.SIMDBits / 8 / tupleBytes
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// MLP estimates sustainable outstanding memory accesses given the average
// number of instructions between memory accesses (paper §3.2: A57 with a
// 128-entry ROB and one access every 6 instructions sustains ~21, capped
// by MSHRs). In-order cores expose only their few non-blocking loads.
func (m Model) MLP(instPerAccess float64) float64 {
	if instPerAccess <= 0 {
		instPerAccess = 1
	}
	if m.InOrder {
		return float64(min(m.MSHRs, 2))
	}
	mlp := float64(m.ROB) / instPerAccess
	if mlp > float64(m.MSHRs) {
		mlp = float64(m.MSHRs)
	}
	if mlp < 1 {
		mlp = 1
	}
	return mlp
}

// Work summarizes one compute unit's share of an operator phase.
type Work struct {
	// Instructions retired (SIMD operations count as single instructions;
	// the operator cost model already divides tuple work by SIMD lanes).
	Instructions float64
	// DependencyIPC caps issue due to data-dependency chains in the inner
	// loop (e.g. histogram pointer chasing caps near 1.0). Zero means
	// "no dependency limit" (cap at issue width).
	DependencyIPC float64
	// MemStallNs is the sum of memory latencies not hidden by caches or
	// stream buffers (demand misses), before MLP overlap.
	MemStallNs float64
	// InstPerMemAccess feeds the MLP estimate for stall overlap.
	InstPerMemAccess float64
	// StreamFed marks phases whose loads arrive through binding-prefetch
	// stream buffers; their latency is fully hidden (bandwidth is
	// enforced separately by DRAM/link busy times).
	StreamFed bool
	// MLPOverride, when positive, replaces the ROB/MSHR-derived MLP for
	// stall overlap. Operator cost models use it where the paper's
	// measured IPCs reflect dependence patterns the structural estimate
	// cannot see (e.g. serialized histogram-cursor chases).
	MLPOverride float64
}

// PhaseResult reports the core-side timing of a phase.
type PhaseResult struct {
	TimeNs       float64
	ComputeNs    float64
	MemStallNs   float64 // after MLP overlap
	AchievedIPC  float64
	EffectiveMLP float64
}

// PhaseTime estimates how long the core needs for the given work.
func (m Model) PhaseTime(w Work) PhaseResult {
	if w.Instructions < 0 || w.MemStallNs < 0 {
		panic(fmt.Sprintf("cores: negative work %+v", w))
	}
	ipcCap := float64(m.IssueWidth)
	if w.DependencyIPC > 0 && w.DependencyIPC < ipcCap {
		ipcCap = w.DependencyIPC
	}
	computeNs := w.Instructions / ipcCap / m.FreqGHz
	mlp := m.MLP(w.InstPerMemAccess)
	if w.MLPOverride > 0 {
		mlp = w.MLPOverride
	}
	stallNs := 0.0
	if !w.StreamFed {
		stallNs = w.MemStallNs / mlp
	}
	total := computeNs + stallNs
	var ipc float64
	if total > 0 {
		ipc = w.Instructions / (total * m.FreqGHz)
	}
	return PhaseResult{
		TimeNs:       total,
		ComputeNs:    computeNs,
		MemStallNs:   stallNs,
		AchievedIPC:  ipc,
		EffectiveMLP: mlp,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
