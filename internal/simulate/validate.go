package simulate

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// This file is the engine's error contract (DESIGN.md §10): every
// caller-supplied input is checked at the Run boundary and rejected with a
// typed *ParamError, and any panic that still fires past validation is an
// internal invariant violation, converted by the same boundary into a
// *InternalError that carries the original panic value and stack. Library
// consumers and the CLIs therefore never see a raw Go panic.

// ParamError reports one rejected Params field. It is the error type every
// caller-input problem surfaces as, so CLIs can print it as a one-line
// diagnostic and tests can assert on the offending field.
type ParamError struct {
	Field  string // the Params field (or derived quantity) that failed
	Value  any    // the rejected value
	Reason string // why it was rejected
}

// Error implements error as a single line.
func (e *ParamError) Error() string {
	return fmt.Sprintf("simulate: invalid Params.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validation bounds. The upper bounds are far beyond every modeled
// configuration (the paper's system is 4 cubes × 16 vaults of 512 MB);
// they exist so that absurd inputs are rejected before they can exhaust
// host memory rather than after.
const (
	maxCubes         = 1024
	maxVaultsPer     = 4096
	maxVaults        = 1 << 16
	maxCPUCores      = 4096
	maxVaultCapBytes = int64(1) << 40 // 1 TB per vault
	maxCPUBuckets    = 1 << 20
)

// isPow2 reports whether v is a power of two.
func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// isSquare reports whether v is a perfect square (the HMC logic-layer
// mesh is square, so VaultsPer must be).
func isSquare(v int) bool {
	s := int(math.Sqrt(float64(v)))
	for _, c := range []int{s - 1, s, s + 1} {
		if c >= 0 && c*c == v {
			return true
		}
	}
	return false
}

// Validate checks every Params field and returns a *ParamError naming the
// first offending field, or nil if the configuration is runnable. Run
// calls it before building anything; call it directly to vet
// caller-supplied configurations without paying for a run.
func (p Params) Validate() error {
	if p.Cubes < 1 || p.Cubes > maxCubes {
		return &ParamError{"Cubes", p.Cubes, fmt.Sprintf("want 1..%d cubes", maxCubes)}
	}
	if p.VaultsPer < 1 || p.VaultsPer > maxVaultsPer {
		return &ParamError{"VaultsPer", p.VaultsPer, fmt.Sprintf("want 1..%d vaults per cube", maxVaultsPer)}
	}
	if !isSquare(p.VaultsPer) {
		return &ParamError{"VaultsPer", p.VaultsPer, "must be a perfect square (the logic-layer mesh is square)"}
	}
	if v := p.Cubes * p.VaultsPer; v > maxVaults {
		return &ParamError{"VaultsPer", p.VaultsPer, fmt.Sprintf("Cubes×VaultsPer = %d vaults exceeds %d", v, maxVaults)}
	}
	if p.CPUCores < 1 || p.CPUCores > maxCPUCores {
		return &ParamError{"CPUCores", p.CPUCores, fmt.Sprintf("want 1..%d cores", maxCPUCores)}
	}
	if p.VaultCapBytes < 1 || p.VaultCapBytes > maxVaultCapBytes {
		return &ParamError{"VaultCapBytes", p.VaultCapBytes, fmt.Sprintf("want 1..%d bytes per vault", maxVaultCapBytes)}
	}
	// Dataset cardinalities: positive, and the footprint must fit the
	// simulated memory (which also keeps host allocations proportional
	// to a capacity the caller already declared).
	capTuples := int64(p.Cubes) * int64(p.VaultsPer) * p.VaultCapBytes / tuple.Size
	if p.STuples < 1 {
		return &ParamError{"STuples", p.STuples, "want at least 1 tuple"}
	}
	if int64(p.STuples) > capTuples {
		return &ParamError{"STuples", p.STuples, fmt.Sprintf("dataset exceeds the %d tuples of simulated memory", capTuples)}
	}
	if p.RTuples < 1 {
		return &ParamError{"RTuples", p.RTuples, "want at least 1 tuple"}
	}
	if int64(p.RTuples) > capTuples {
		return &ParamError{"RTuples", p.RTuples, fmt.Sprintf("dataset exceeds the %d tuples of simulated memory", capTuples)}
	}
	if p.GroupSize < 1 {
		return &ParamError{"GroupSize", p.GroupSize, "want an average group size of at least 1"}
	}
	if !isPow2(p.KeySpace) {
		return &ParamError{"KeySpace", p.KeySpace, "must be a power of two (the range-partitioning and shift/mask fast paths assume it)"}
	}
	if p.CPUBuckets != 0 {
		if p.CPUBuckets < 0 || p.CPUBuckets > maxCPUBuckets || !isPow2(uint64(p.CPUBuckets)) {
			return &ParamError{"CPUBuckets", p.CPUBuckets, fmt.Sprintf("want 0 (auto) or a power of two up to %d", maxCPUBuckets)}
		}
	}
	if p.Parallelism < 0 {
		return &ParamError{"Parallelism", p.Parallelism, "want 0 (GOMAXPROCS) or a positive worker count"}
	}
	if math.IsNaN(p.BarrierNs) || math.IsInf(p.BarrierNs, 0) || p.BarrierNs < 0 {
		return &ParamError{"BarrierNs", p.BarrierNs, "want a finite non-negative barrier cost"}
	}
	if p.ZipfS != 0 && (math.IsNaN(p.ZipfS) || math.IsInf(p.ZipfS, 0) || p.ZipfS <= 1) {
		return &ParamError{"ZipfS", p.ZipfS, "want 0 (uniform keys) or a finite Zipf exponent > 1"}
	}
	if p.Overprovision != 0 && (math.IsNaN(p.Overprovision) || math.IsInf(p.Overprovision, 0) || p.Overprovision < 1) {
		return &ParamError{"Overprovision", p.Overprovision, "want 0 (operator default) or a finite factor of at least 1"}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Energy.CPUCoreW", p.Energy.CPUCoreW},
		{"Energy.NMPCoreW", p.Energy.NMPCoreW},
		{"Energy.MondrianCoreW", p.Energy.MondrianCoreW},
		{"Energy.LLCAccessJ", p.Energy.LLCAccessJ},
		{"Energy.LLCLeakW", p.Energy.LLCLeakW},
		{"Energy.NoCPerBitMMJ", p.Energy.NoCPerBitMMJ},
		{"Energy.NoCLeakW", p.Energy.NoCLeakW},
		{"Energy.HMCBackgroundW", p.Energy.HMCBackgroundW},
		{"Energy.ActivationJ", p.Energy.ActivationJ},
		{"Energy.AccessJPerBit", p.Energy.AccessJPerBit},
		{"Energy.SerDesIdleJPerBit", p.Energy.SerDesIdleJPerBit},
		{"Energy.SerDesBusyJPerBit", p.Energy.SerDesBusyJPerBit},
		{"Energy.IdleCoreFraction", p.Energy.IdleCoreFraction},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return &ParamError{c.name, c.v, "want a finite non-negative energy constant"}
		}
	}
	return nil
}

// InternalError is a panic that escaped the simulation internals on a
// validated input — by the error contract, an engine invariant violation
// rather than a caller mistake. Error() stays on one line for CLI
// diagnostics; the captured stack is available through StackTrace.
type InternalError struct {
	// Op identifies the experiment that was running ("Mondrian/Join").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured where the panic was
	// recovered — on the worker goroutine itself when it crossed the
	// engine's worker pool.
	Stack []byte
}

// Error implements error as a single line.
func (e *InternalError) Error() string {
	msg := strings.ReplaceAll(fmt.Sprint(e.Value), "\n", "; ")
	return fmt.Sprintf("simulate: internal error in %s: %s [invariant violation — please report; stack via StackTrace]", e.Op, msg)
}

// Unwrap exposes a panic value that was itself an error.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// StackTrace returns the stack captured at the recovery point.
func (e *InternalError) StackTrace() string { return string(e.Stack) }

// newInternalError converts a recovered panic value into an InternalError,
// unwrapping the engine's worker-pool capture so the reported value and
// stack are the worker goroutine's own.
func newInternalError(op string, r any) *InternalError {
	if wp, ok := r.(*engine.PanicError); ok {
		return &InternalError{Op: op, Value: wp.Value, Stack: wp.Stack}
	}
	return &InternalError{Op: op, Value: r, Stack: debug.Stack()}
}

// Protect runs fn under the recovery boundary: a panic inside fn returns
// as a *InternalError instead of crashing the process. Run installs it
// automatically; tools that drive the engine/operators layers directly
// (e.g. cmd/mondrian-trace) can wrap their bodies in it for the same
// no-panic guarantee.
func Protect(op string, fn func() error) error {
	return protect(func() string { return op }, fn)
}

// protect is Protect with the operation's name built only on a panic, so
// the error path costs a run nothing: formatting goes through fmt's
// printer cache, which the garbage collector empties, and would make a
// run's allocations depend on when collections fell.
func protect(op func() string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newInternalError(op(), r)
		}
	}()
	return fn()
}
