package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Host-side parallel execution of per-vault work (see DESIGN.md, "Host
// parallelism vs. simulated parallelism").
//
// The paper's compute units execute independently between barriers, and the
// simulated timing model already reflects that: a step's duration is the
// barrier-synchronized maximum over per-unit times and per-vault busy
// times, regardless of the order the host evaluates the units in. This
// file exploits that property to run the *functional* execution of
// independent per-vault work on a bounded pool of goroutines.
//
// Determinism contract: ForEachVault/ForEachTask produce bit-identical
// simulation results at every worker count. The contract holds because a
// well-formed parallel section touches only state owned by its index —
// its unit (instruction/stall accounting, L1, TLBs, stream buffers, object
// buffer), its vault (DRAM device, row buffers, bump allocator), and its
// own slots of caller-provided slices. Cross-vault interactions (the
// shuffle) go through Distribute (shuffle.go, exchange.go), which stages
// messages and applies them in a data-determined order. All reductions
// (EndStep, Energy, stat merges) remain serial, in fixed vault-ID order.

// Workers returns the size of the worker pool a parallel section uses.
// The CPU's cores share simulated state (the LLC and chip mesh), so it
// always runs serially: its accesses are order-dependent.
// For the vault-resident architectures the pool is Config.Parallelism
// workers (default GOMAXPROCS when zero), never more than the unit count.
// Values above GOMAXPROCS are honored — the goroutines time-share — so
// race tests exercise real concurrency even on single-core hosts.
func (e *Engine) Workers() int {
	if e.cfg.Arch == CPU {
		return 1
	}
	w := e.parallelism()
	if w < 1 {
		return 1
	}
	if w > len(e.units) {
		w = len(e.units)
	}
	return w
}

// parallelism resolves Config.Parallelism: 0 selects GOMAXPROCS. On the
// CPU, 2 or more runs the LLC stage on a goroutine of its
// own during steps (llcstage.go).
func (e *Engine) parallelism() int {
	if e.cfg.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.cfg.Parallelism
}

// ForEachVault runs fn(v, UnitForVault(v)) for every vault, fanning the
// calls over the worker pool. fn must touch only vault-v-owned state (its
// unit, its vault's DRAM/allocator, and index-v slots of caller slices).
// Every index runs even after a failure; the lowest-index error is
// returned, matching serial first-error semantics at any worker count.
func (e *Engine) ForEachVault(fn func(v int, u *Unit) error) error {
	if e.cfg.Arch == CPU {
		panic("engine: ForEachVault on a host-core system")
	}
	return e.forEach(len(e.units), func(i int) error { return fn(i, e.units[i]) })
}

// ForEachTask runs fn(i) for i in [0,n) over the worker pool, for
// per-bucket or per-group work. The caller must ensure distinct indices
// operate on distinct vaults/units when the engine is parallel (true for
// the vault-resident architectures, where buckets and probe groups are
// 1:1 with vaults; the CPU architecture always runs serially).
func (e *Engine) ForEachTask(n int, fn func(i int) error) error {
	return e.forEach(n, fn)
}

// PanicError carries a panic recovered on a worker goroutine together with
// the stack captured at the recovery point. Rethrowing a worker panic from
// the caller's goroutine would otherwise discard the worker's stack — the
// only record of where the invariant actually broke — so forEach wraps the
// value before propagating it. Recovery boundaries (simulate.Protect)
// unwrap it to report the original value with the original stack.
type PanicError struct {
	Value any    // the worker's original panic value
	Stack []byte // debug.Stack() of the worker goroutine at recovery
}

// Error implements error as a single line; the stack stays in Stack.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: worker panic: %v", p.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// forEach runs fn(i) for i in [0,n) over the worker pool. Work is handed
// out through an atomic cursor; results are indexed by task so error/panic
// selection is deterministic — the lowest-index error wins regardless of
// which worker ran it. Traces buffer per unit while workers run in
// parallel and flush in unit-ID order, so the trace stream is identical at
// every worker count.
func (e *Engine) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := e.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		// Serial mode still runs every index and reports the
		// lowest-index error so error behavior matches parallel runs.
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	buffered := e.tracer != nil
	if buffered {
		e.beginTraceBuffer()
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var panicked atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*PanicError); !ok {
								r = &PanicError{Value: r, Stack: debug.Stack()}
							}
							panics[i] = r
							panicked.Store(true)
						}
					}()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if buffered {
		e.flushTraceBuffer()
	}
	if panicked.Load() {
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one buffered tracer call: a single access (count == 1) or
// a run-length-encoded run of count accesses stride bytes apart.
type traceEvent struct {
	unit   int
	kind   AccessKind
	addr   int64
	size   int
	stride int
	count  int
	write  bool
}

// trace emits one access to the installed tracer, buffering per unit
// while a parallel section runs so that concurrent units do not interleave
// nondeterministically in the trace.
func (u *Unit) trace(kind AccessKind, addr int64, size int, write bool) {
	e := u.engine
	if e.tracer == nil {
		return
	}
	if u.buffering {
		u.traceBuf = append(u.traceBuf, traceEvent{unit: u.ID, kind: kind, addr: addr, size: size, count: 1, write: write})
		return
	}
	e.tracer.Access(u.ID, kind, addr, size, write)
}

// traceRun emits a run of count accesses as one record: tracers that speak
// RunTracer get a single run-length-encoded event, others get the expanded
// per-access stream. Runs buffer as one entry during parallel sections.
func (u *Unit) traceRun(kind AccessKind, addr int64, size, stride, count int, write bool) {
	e := u.engine
	if e.tracer == nil || count <= 0 {
		return
	}
	if u.buffering {
		u.traceBuf = append(u.traceBuf, traceEvent{unit: u.ID, kind: kind, addr: addr, size: size, stride: stride, count: count, write: write})
		return
	}
	emitRun(e.tracer, u.ID, kind, addr, size, stride, count, write)
}

// emitRun delivers one run to a tracer, run-length-encoded when supported.
func emitRun(t Tracer, unit int, kind AccessKind, addr int64, size, stride, count int, write bool) {
	if count == 1 {
		t.Access(unit, kind, addr, size, write)
		return
	}
	if rt, ok := t.(RunTracer); ok {
		rt.AccessRun(unit, kind, addr, size, stride, count, write)
		return
	}
	for i := 0; i < count; i++ {
		t.Access(unit, kind, addr+int64(i)*int64(stride), size, write)
	}
}

// beginTraceBuffer switches every unit to buffered tracing for the
// duration of a parallel section.
func (e *Engine) beginTraceBuffer() {
	for _, u := range e.units {
		u.buffering = true
	}
}

// flushTraceBuffer replays buffered events in unit-ID order — the order a
// serial per-vault loop emits them in — and returns units to direct
// tracing.
func (e *Engine) flushTraceBuffer() {
	for _, u := range e.units {
		u.buffering = false
		for _, ev := range u.traceBuf {
			emitRun(e.tracer, ev.unit, ev.kind, ev.addr, ev.size, ev.stride, ev.count, ev.write)
		}
		u.traceBuf = u.traceBuf[:0]
	}
}
