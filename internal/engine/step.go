package engine

import (
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/energy"
)

// StepProfile characterizes one step's inner loop for the core timing
// model. The values come from the operator cost model
// (internal/operators/costs.go) and stand in for the per-loop IPC and MLP
// behaviour the paper measured with cycle-accurate simulation.
type StepProfile struct {
	Name string
	// DepIPC caps issue throughput due to dependency chains (0 = issue
	// width).
	DepIPC float64
	// InstPerAccess is the mean instruction distance between memory
	// accesses, feeding the structural MLP estimate.
	InstPerAccess float64
	// StreamFed marks steps whose reads flow through stream buffers.
	StreamFed bool
	// MLPOverride, when positive, pins the stall-overlap factor (used
	// where dependent misses serialize below the structural estimate).
	MLPOverride float64
}

// StepTiming is the outcome of one barrier-synchronized step.
type StepTiming struct {
	Name string
	// Ns is the step's wall-clock contribution: the max of compute,
	// memory and link bounds.
	Ns float64
	// MaxUnitNs is the slowest compute unit's time (compute + stalls).
	MaxUnitNs float64
	// MemNs is the largest per-vault DRAM busy time in this step.
	MemNs float64
	// NetNs is the largest SerDes link busy time in this step.
	NetNs float64
	// AggIPC is Σ instructions / (Ns × Σ unit frequency) — comparable to
	// the per-core IPCs the paper quotes.
	AggIPC float64
	// Instructions across all units.
	Instructions float64

	bytes uint64 // DRAM bytes moved during the step
}

// BandwidthPerVaultGBs returns the average per-vault DRAM bandwidth drawn
// during the step, the metric the paper quotes (e.g. "NMP utilizes only
// 1.0 GB/s of memory bandwidth per vault").
func (s StepTiming) BandwidthPerVaultGBs(bytes uint64, vaults int) float64 {
	if s.Ns == 0 || vaults == 0 {
		return 0
	}
	return float64(bytes) / s.Ns / float64(vaults)
}

// snapshot freezes monotone busy counters so EndStep can compute deltas.
type snapshot struct {
	vaultBusy []float64
	linkBusy  []float64
	dramBytes uint64
}

func (e *Engine) takeSnapshot() snapshot {
	var s snapshot
	for _, v := range e.Sys.Vaults() {
		s.vaultBusy = append(s.vaultBusy, v.DRAM.BusyNs())
	}
	for _, l := range e.Sys.Net.Links() {
		s.linkBusy = append(s.linkBusy, l.Stats().BusyNs)
	}
	s.dramBytes = e.Sys.TotalDRAMStats().TotalBytes()
	return s
}

// BeginStep opens a new step; all Unit work until EndStep is attributed
// to it. Steps must not nest.
func (e *Engine) BeginStep(p StepProfile) {
	if e.inStep {
		panic("engine: BeginStep while a step is open")
	}
	e.inStep = true
	e.profile = p
	if e.cfg.Arch == CPU {
		e.llcStage().beginStep(e.parallelism() >= 2)
	}
	e.snap = e.takeSnapshot()
	for _, u := range e.units {
		u.insts = 0
		u.stallRawNs = 0
		u.accesses = 0
	}
}

// EndStep closes the current step, computes its barrier-synchronized
// duration, and accumulates run totals.
func (e *Engine) EndStep() StepTiming {
	if !e.inStep {
		panic("engine: EndStep without BeginStep")
	}
	e.inStep = false
	p := e.profile
	if s := e.llcq; s != nil {
		s.park()
		for i, u := range e.units {
			u.stallRawNs = s.stall[i].ns
		}
	}

	var unitNs []float64
	if e.cfg.Obs != nil {
		unitNs = make([]float64, len(e.units))
	}
	var maxUnit, sumInsts float64
	for i, u := range e.units {
		w := cores.Work{
			Instructions:     u.insts,
			DependencyIPC:    p.DepIPC,
			MemStallNs:       u.stallRawNs,
			InstPerMemAccess: p.InstPerAccess,
			StreamFed:        p.StreamFed,
			MLPOverride:      p.MLPOverride,
		}
		r := e.cfg.Core.PhaseTime(w)
		u.busyNs += r.TimeNs
		u.accessTotal += u.accesses
		u.accesses = 0 // folded into accessTotal; keeps between-step snapshots exact
		if r.TimeNs > maxUnit {
			maxUnit = r.TimeNs
		}
		sumInsts += u.insts
		if unitNs != nil {
			unitNs[i] = r.TimeNs
		}
	}

	var memNs, netNs float64
	for i, v := range e.Sys.Vaults() {
		if d := v.DRAM.BusyNs() - e.snap.vaultBusy[i]; d > memNs {
			memNs = d
		}
	}
	for i, l := range e.Sys.Net.Links() {
		if d := l.Stats().BusyNs - e.snap.linkBusy[i]; d > netNs {
			netNs = d
		}
	}

	ns := maxUnit
	if memNs > ns {
		ns = memNs
	}
	if netNs > ns {
		ns = netNs
	}
	st := StepTiming{
		Name:         p.Name,
		Ns:           ns,
		MaxUnitNs:    maxUnit,
		MemNs:        memNs,
		NetNs:        netNs,
		Instructions: sumInsts,
	}
	if ns > 0 && len(e.units) > 0 {
		st.AggIPC = sumInsts / (ns * e.cfg.Core.FreqGHz) / float64(len(e.units))
	}
	st.bytes = e.Sys.TotalDRAMStats().TotalBytes() - e.snap.dramBytes
	e.steps = append(e.steps, st)
	if unitNs != nil {
		e.stepUnits = append(e.stepUnits, unitNs)
	}
	e.totalNs += ns
	return st
}

// StepBytes returns the DRAM bytes the step moved (for bandwidth reports).
func (s StepTiming) StepBytes() uint64 { return s.bytes }

// Barrier charges one all-to-all notification (MSI interrupt vector,
// §5.4) to the run.
func (e *Engine) Barrier() {
	e.totalNs += e.cfg.BarrierNs
	e.barrierCnt++
	e.steps = append(e.steps, StepTiming{Name: "barrier", Ns: e.cfg.BarrierNs})
	if e.cfg.Obs != nil {
		e.stepUnits = append(e.stepUnits, nil) // keep stepUnits aligned with steps
	}
}

// Energy converts the run's accumulated activity into the paper's Fig. 8
// breakdown using the Table 4 constants.
func (e *Engine) Energy(p energy.Params) energy.Breakdown {
	e.drainLLC()
	seconds := e.totalNs * 1e-9
	var b energy.Breakdown

	ds := e.Sys.TotalDRAMStats()
	b.DRAMDynamic = p.DRAMDynamicJ(ds.Activations, ds.TotalBytes())
	b.DRAMStatic = p.DRAMStaticJ(len(e.Sys.Cubes), seconds)

	for _, u := range e.units {
		util := 0.0
		if u.busyNs > 0 {
			util = u.instTotal / (u.busyNs * e.cfg.Core.FreqGHz) / float64(e.cfg.Core.IssueWidth)
		}
		b.Cores += p.CoreUtilJ(e.cfg.Core.PeakPowerW, u.busyNs*1e-9, seconds, util)
	}
	if e.llc != nil {
		b.LLC = p.LLCJ(e.llc.Stats().Accesses, seconds)
	}

	var bitMM float64
	meshes := 0
	for _, c := range e.Sys.Cubes {
		bitMM += c.Mesh.Stats().BitMM
		meshes++
	}
	if e.mesh != nil {
		bitMM += e.mesh.Stats().BitMM
		meshes++
	}
	b.Network = p.NoCJ(bitMM, meshes, seconds)
	for _, l := range e.Sys.Net.Links() {
		s := l.Stats()
		b.Network += p.SerDesJ(s.Bytes, l.BandwidthGbps, s.BusyNs, e.totalNs)
	}
	return b
}
