package engine

import "github.com/ecocloud-go/mondrian/internal/obs"

// Pooled-lifecycle support: Reset restores a constructed engine to its
// just-built state so the expensive construction work — cache line arrays,
// DRAM devices, NoC meshes, per-unit hardware — is reused across runs
// instead of rebuilt and garbage-collected per run (DESIGN.md §16).
//
// The contract is byte-identity: a run on a reset engine must produce
// report JSON byte-identical to the same run on a fresh New(cfg) engine,
// for every system and operator (TestResetEquivalence in
// internal/simulate). Two kinds of state are therefore distinguished:
//
//   - simulation state (cache/TLB/LLC contents and stats, DRAM row
//     buffers and counters, link/mesh stats, vault allocators and
//     permutation regions, step/phase/exchange/skew accounting) — all of
//     it cleared to construction values;
//   - host-side scratch capacity (trace buffers, cache run buffers, the
//     host-core LLC stage ring) — retained, so pooled re-runs reuse it
//     instead of growing it again.

// Reset restores the engine to its just-constructed state. Regions,
// readers and results handed out by previous runs are invalidated — the
// caller must drop them before resetting (the pool does this by only
// resetting engines whose run has completed). Not safe for concurrent use
// with a running operator.
func (e *Engine) Reset() {
	if e.llcq != nil {
		e.llcq.park() // retire pending requests before the fabric is cleared
	}
	// Memory fabric: DRAM stats/busy/rows, vault allocators and
	// permutation regions, SerDes links, cube meshes.
	e.Sys.ResetAll()
	if e.llc != nil {
		e.llc.Reset()
	}
	if e.mesh != nil {
		e.mesh.ResetStats()
	}

	for _, u := range e.units {
		if u.L1 != nil {
			u.L1.Reset()
		}
		if u.tlbL1 != nil {
			u.tlbL1.Reset()
		}
		if u.tlbL2 != nil {
			u.tlbL2.Reset()
		}
		if u.ObjBuf != nil {
			u.ObjBuf.Reset()
		}
		if u.Streams != nil {
			u.Streams.Reset()
		}
		u.insts = 0
		u.stallRawNs = 0
		u.accesses = 0
		u.busyNs = 0
		u.instTotal = 0
		u.accessTotal = 0
		u.buffering = false
		u.traceBuf = u.traceBuf[:0]
		u.group.release()
	}

	e.tracer = nil
	e.inStep = false
	e.profile = StepProfile{}
	e.snap = snapshot{}

	// Run accounting is released, not truncated: results returned by the
	// previous run alias these slices (Result.Steps aliases e.steps), so
	// the next run must append into fresh backing arrays.
	e.steps = nil
	e.totalNs = 0
	e.barrierCnt = 0

	e.phaseOpen = false
	e.phasePrefix = ""
	e.curPhase = PhaseTiming{}
	e.phaseSnap = obsTotals{}
	e.phaseSeen = nil
	e.phases = nil
	e.stepUnits = nil
	e.exchanges = nil

	e.stolenTasks = 0
	e.splitKeys = 0
	e.skewStats = nil
}

// SetObs retargets the engine's observability registry for the next run
// (nil disables phase tracking). Everything else about the configuration
// is immutable for the engine's lifetime; the registry is the one per-run
// binding, which is how the pool hands the same engine to callers with
// different (or no) registries. Call only between runs.
func (e *Engine) SetObs(reg *obs.Registry) { e.cfg.Obs = reg }
