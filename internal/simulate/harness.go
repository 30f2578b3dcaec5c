package simulate

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
)

// experiment selects what one harness run executes: an Operator or a
// compiled Plan. Both kinds share the harness (execute, runOn); only the
// body differs.
type experiment interface {
	fmt.Stringer
	// selector names the selector's Params-style field and returns its
	// value and the number of valid values, for the range check.
	selector() (field string, value, count int)
	// body places the inputs on a pristine engine, executes the operator
	// or plan and returns the kind's report with its own fields set, and
	// the check of its output.
	body(e *engine.Engine, s System, p Params) (report, *outputCheck, error)
}

// report is a typed experiment report, *Result or *PlanResult.
type report interface {
	// record stores the measurements every kind reports.
	record(m measurement)
}

// measurement is the report tail every experiment shares, read off the
// engine after the body ran.
type measurement struct {
	Verified bool
	TotalNs  float64
	Energy   energy.Breakdown
	DRAM     dram.Stats
	Steps    []engine.StepTiming
	Phases   []engine.PhaseTiming
	Spans    *obs.Span
}

// validateSelectors range-checks the experiment selectors, which are
// caller inputs just like Params fields.
func validateSelectors(s System, x experiment) error {
	if n := registeredSystems(); s < 0 || int(s) >= n {
		return &ParamError{"System", int(s), fmt.Sprintf("want a registered system 0..%d", n-1)}
	}
	if field, v, n := x.selector(); v < 0 || v >= n {
		return &ParamError{field, v, fmt.Sprintf("want 0..%d", n-1)}
	}
	return nil
}

// execute is the one experiment harness behind Run and RunPlan, the
// engine's validated front door (DESIGN.md §10). It vets every caller
// input first (the selector range checks plus Params.Validate, rejecting
// with a typed *ParamError) and executes the experiment under a recovery
// boundary, so a panic in the simulation internals — an engine invariant
// violation, by the error contract — returns as a *InternalError carrying
// the original panic value and stack instead of crashing the caller's
// process. It draws the engine from the shared pool (pool.go) unless
// Params.NoPool opts out, and releases it on every non-panicking return —
// a panic abandons the engine to the garbage collector instead of
// recycling unknowable state.
func execute(s System, x experiment, p Params) (report, error) {
	if err := validateSelectors(s, x); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var res report
	err := Protect(fmt.Sprintf("%v/%v", s, x), func() error {
		e, release, err := acquireEngine(p, s)
		if err != nil {
			return err
		}
		res, err = runOn(e, s, x, p)
		release()
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runOn executes one experiment on the given pristine engine: the kind's
// body, then the shared tail — the output check, total time, energy, DRAM
// counters and the step timeline, plus, under Params.Obs, the collected
// metrics, the phase timeline and the span tree. The returned report aliases no engine state
// that outlives the run's release: Reset replaces (rather than truncates)
// the step, phase and exchange slices, so the report's views stay intact
// after the engine is recycled.
func runOn(e *engine.Engine, s System, x experiment, p Params) (report, error) {
	res, chk, err := x.body(e, s, p)
	if err != nil {
		return nil, err
	}
	m := measurement{Verified: verifyOutput(chk), TotalNs: e.TotalNs(), Energy: e.Energy(p.Energy), DRAM: e.DRAMStats(), Steps: e.Steps()}
	if p.Obs != nil {
		e.CollectObs(p.Obs)
		collectEnergy(p.Obs, m.Energy)
		m.Phases = e.Phases()
		m.Spans = e.BuildSpans()
	}
	res.record(m)
	return res, nil
}
