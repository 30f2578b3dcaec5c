// Package energy implements the paper's custom energy-modeling framework
// (§6, Table 4). Components report raw event counts (row activations, bits
// moved, flit bit-millimetres, busy times); this package converts them to
// joules and aggregates them into the four categories of the paper's
// Fig. 8 energy breakdown: DRAM dynamic, DRAM static, cores, SerDes+NOC.
package energy

import "fmt"

// Params holds the power and energy constants of Table 4 plus the derived
// modeling knobs. All powers are watts, energies joules. Run manifests
// record them under these JSON keys.
type Params struct {
	CPUCoreW      float64 `json:"cpu_core_w"`      // per CPU core (2.1 W)
	NMPCoreW      float64 `json:"nmp_core_w"`      // per NMP-baseline core (312 mW)
	MondrianCoreW float64 `json:"mondrian_core_w"` // per Mondrian core (180 mW)

	LLCAccessJ float64 `json:"llc_access_j"` // per LLC access (0.09 nJ)
	LLCLeakW   float64 `json:"llc_leak_w"`   // LLC leakage (110 mW)

	NoCPerBitMMJ float64 `json:"noc_per_bit_mm_j"` // NoC dynamic energy (0.04 pJ/bit/mm)
	NoCLeakW     float64 `json:"noc_leak_w"`       // NoC leakage per cube mesh (30 mW)

	HMCBackgroundW float64 `json:"hmc_background_w"` // per 8 GB cube (980 mW)
	ActivationJ    float64 `json:"activation_j"`     // per row activation (0.65 nJ)
	AccessJPerBit  float64 `json:"access_j_per_bit"` // DRAM access energy (2 pJ/bit)

	SerDesIdleJPerBit float64 `json:"serdes_idle_j_per_bit"` // idle links burn 1 pJ per bit-time of capacity
	SerDesBusyJPerBit float64 `json:"serdes_busy_j_per_bit"` // transferring costs 3 pJ/bit

	// IdleCoreFraction is the fraction of peak power a core draws while
	// stalled at a phase barrier (clock gating is imperfect).
	IdleCoreFraction float64 `json:"idle_core_fraction"`
}

// DefaultParams returns Table 4 of the paper.
func DefaultParams() Params {
	return Params{
		CPUCoreW:          2.1,
		NMPCoreW:          0.312,
		MondrianCoreW:     0.180,
		LLCAccessJ:        0.09e-9,
		LLCLeakW:          0.110,
		NoCPerBitMMJ:      0.04e-12,
		NoCLeakW:          0.030,
		HMCBackgroundW:    0.980,
		ActivationJ:       0.65e-9,
		AccessJPerBit:     2e-12,
		SerDesIdleJPerBit: 1e-12,
		SerDesBusyJPerBit: 3e-12,
		IdleCoreFraction:  0.3,
	}
}

// Breakdown is an energy account in joules, split the way Fig. 8 reports
// it. LLC energy is tracked separately but reported inside Cores (the
// cache hierarchy is part of the processor die).
type Breakdown struct {
	DRAMDynamic float64 // activations + access energy
	DRAMStatic  float64 // HMC background power × time
	Cores       float64 // core busy+idle energy
	LLC         float64 // LLC access + leakage (CPU system only)
	Network     float64 // SerDes + NoC, dynamic + idle/leakage
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 {
	return b.DRAMDynamic + b.DRAMStatic + b.Cores + b.LLC + b.Network
}

// Add accumulates another breakdown into this one.
func (b *Breakdown) Add(o Breakdown) {
	b.DRAMDynamic += o.DRAMDynamic
	b.DRAMStatic += o.DRAMStatic
	b.Cores += o.Cores
	b.LLC += o.LLC
	b.Network += o.Network
}

// Fractions returns the Fig. 8 category fractions in order
// [DRAM dyn, DRAM static, cores (incl. LLC), SerDes+NOC]. A zero-total
// breakdown yields all zeros.
func (b Breakdown) Fractions() [4]float64 {
	t := b.Total()
	if t == 0 {
		return [4]float64{}
	}
	return [4]float64{
		b.DRAMDynamic / t,
		b.DRAMStatic / t,
		(b.Cores + b.LLC) / t,
		b.Network / t,
	}
}

// String renders the breakdown for logs.
func (b Breakdown) String() string {
	f := b.Fractions()
	return fmt.Sprintf("total %.3g J (DRAMdyn %.0f%%, DRAMstatic %.0f%%, cores %.0f%%, net %.0f%%)",
		b.Total(), f[0]*100, f[1]*100, f[2]*100, f[3]*100)
}

// DRAMDynamicJ converts raw DRAM events into dynamic energy.
func (p Params) DRAMDynamicJ(activations, bytesMoved uint64) float64 {
	return float64(activations)*p.ActivationJ + float64(bytesMoved*8)*p.AccessJPerBit
}

// DRAMStaticJ charges HMC background power for the given cubes and time.
func (p Params) DRAMStaticJ(cubes int, seconds float64) float64 {
	return float64(cubes) * p.HMCBackgroundW * seconds
}

// CoreUtilJ charges one core that is busy for busySeconds of a phase of
// totalSeconds and idle, at IdleCoreFraction of peak, for the rest. Busy
// power scales with utilization: the paper estimates core power "based on
// the core's peak power and its utilization statistics" (§6). utilization
// is achieved IPC over issue width; a fully stalled core draws the idle
// fraction of peak, a saturated one full peak.
func (p Params) CoreUtilJ(peakW, busySeconds, totalSeconds, utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	busyW := peakW * (p.IdleCoreFraction + (1-p.IdleCoreFraction)*utilization)
	return busyW*minF(busySeconds, totalSeconds) +
		p.IdleCoreFraction*peakW*maxF(0, totalSeconds-busySeconds)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// LLCJ charges LLC accesses plus leakage over the phase.
func (p Params) LLCJ(accesses uint64, seconds float64) float64 {
	return float64(accesses)*p.LLCAccessJ + p.LLCLeakW*seconds
}

// NoCJ charges mesh dynamic energy (bit-millimetres) plus leakage for the
// given number of cube meshes over the phase.
func (p Params) NoCJ(bitMM float64, meshes int, seconds float64) float64 {
	return bitMM*p.NoCPerBitMMJ + float64(meshes)*p.NoCLeakW*seconds
}

// SerDesJ charges one link: busy bits at the busy energy and the remaining
// capacity-time at the idle energy.
func (p Params) SerDesJ(bytesMoved uint64, bandwidthGbps, busyNs, totalNs float64) float64 {
	busy := float64(bytesMoved*8) * p.SerDesBusyJPerBit
	idleNs := totalNs - busyNs
	if idleNs < 0 {
		idleNs = 0
	}
	// Idle bits = link capacity (bits/ns) × idle time (ns).
	idleBits := bandwidthGbps * idleNs // Gb/s × ns = bits
	return busy + idleBits*p.SerDesIdleJPerBit
}
