package engine

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// workout runs a fixed little workload on a pristine engine — placement,
// a read-sweep step, a barrier — and returns the accumulated simulated
// time. It must be a pure function of the engine's construction state, so
// identical outcomes on a fresh and a reset engine prove Reset restored
// everything the simulation reads.
func workout(t *testing.T, e *Engine) float64 {
	t.Helper()
	const n = 2048
	r, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	e.BeginStep(StepProfile{Name: "sweep", InstPerAccess: 4})
	u := e.Units()[0]
	for i := 0; i < n; i++ {
		u.Charge(4)
		u.ReadBytes(r.Addr+int64(i)*tuple.Size, tuple.Size)
	}
	e.EndStep()
	e.Barrier()
	return e.TotalNs()
}

func TestResetRestoresPristineState(t *testing.T) {
	for name, cfg := range map[string]Config{
		"cpu":      cpuConfig(),
		"nmp":      nmpConfig(true),
		"mondrian": mondrianConfig(),
	} {
		t.Run(name, func(t *testing.T) {
			e := mustEngine(t, cfg)
			first := workout(t, e)
			firstDRAM := e.DRAMStats()
			if first <= 0 || firstDRAM.Accesses() == 0 {
				t.Fatalf("workout did nothing: total=%v dram=%+v", first, firstDRAM)
			}

			e.Reset()
			if e.TotalNs() != 0 || len(e.Steps()) != 0 || e.barrierCnt != 0 {
				t.Fatalf("reset left run accounting: total=%v steps=%d barriers=%d",
					e.TotalNs(), len(e.Steps()), e.barrierCnt)
			}
			if ds := e.DRAMStats(); ds != (dram.Stats{}) {
				t.Fatalf("reset left DRAM stats: %+v", ds)
			}
			if e.llc != nil && e.llc.Stats().Accesses != 0 {
				t.Fatal("reset left LLC stats")
			}
			for _, u := range e.Units() {
				if u.L1 != nil && u.L1.Stats().Accesses != 0 {
					t.Fatal("reset left L1 stats")
				}
				if u.busyNs != 0 || u.instTotal != 0 || u.accessTotal != 0 {
					t.Fatal("reset left unit accounting")
				}
			}

			// The definitive check: the same workload on the reset engine
			// reproduces the fresh run exactly (same addresses, same
			// row-buffer behaviour, same step timing).
			second := workout(t, e)
			if second != first {
				t.Fatalf("reset run differs from fresh run: %v vs %v", second, first)
			}
			if got := e.DRAMStats(); got != firstDRAM {
				t.Fatalf("reset run DRAM stats differ: %+v vs %+v", got, firstDRAM)
			}
		})
	}
}

// TestResetRetainsScratchCapacity: Reset keeps the host-side scratch —
// the per-unit trace buffers and the CPU's LLC stage ring — so a pooled
// re-run reuses it instead of growing it again.
func TestResetRetainsScratchCapacity(t *testing.T) {
	const n = 1024
	e := mustEngine(t, mondrianConfig())
	u := e.Units()[0]
	sweep := func(r *Region) {
		e.beginTraceBuffer()
		sweepUnit(u, r, n)
		e.flushTraceBuffer()
	}
	e.SetTracer(&nullTracer{})
	r, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	sweep(r) // grow the trace buffer once
	grown := cap(u.traceBuf)
	if grown == 0 {
		t.Fatal("buffered sweep did not grow the trace buffer")
	}

	e.Reset()
	if got := cap(u.traceBuf); got != grown {
		t.Fatalf("Reset changed the trace buffer capacity: %d, want %d", got, grown)
	}
	// Pooled re-run steady state: after Reset, buffered tracing stays
	// allocation-free on the retained capacity.
	e.SetTracer(&nullTracer{})
	r2, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { sweep(r2) }); allocs != 0 {
		t.Errorf("buffered sweep allocates %.1f times after Reset", allocs)
	}

	cpu := mustEngine(t, cpuConfig())
	workout(t, cpu)
	q := cpu.llcq
	if q == nil {
		t.Fatal("a CPU step did not build the LLC stage")
	}
	cpu.Reset()
	if cpu.llcq != q {
		t.Fatal("Reset replaced the LLC stage ring")
	}
}

// parked returns the total number of engines p holds idle across keys.
func parked(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.idle {
		n += len(l)
	}
	return n
}

func TestPoolReuseAndKeying(t *testing.T) {
	p := NewPool(2)
	cfg := mondrianConfig()

	e1, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workout(t, e1)
	p.Release(e1)
	if parked(p) != 1 {
		t.Fatalf("idle = %d, want 1", parked(p))
	}

	e2, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatal("same-key acquire did not reuse the released engine")
	}
	if e2.TotalNs() != 0 || len(e2.Steps()) != 0 {
		t.Fatal("pooled engine was not pristine")
	}

	// A different construction-shaping field is a different key.
	other := cfg
	other.L1 = cfg.L1
	other.StreamBuffers = 4
	e3, err := p.Acquire(other)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e2 {
		t.Fatal("different configs shared one pooled engine")
	}

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestPoolBoundDiscards(t *testing.T) {
	p := NewPool(2)
	cfg := nmpConfig(false)
	var es []*Engine
	for i := 0; i < 3; i++ {
		e, err := p.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	for _, e := range es {
		p.Release(e)
	}
	if parked(p) != 2 {
		t.Fatalf("idle = %d, want the per-key bound 2", parked(p))
	}
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("stats = %+v, want 1 discard", st)
	}
	p.Release(nil) // no-op
}

func TestPoolRebindsObsRegistry(t *testing.T) {
	p := NewPool(1)
	cfg := mondrianConfig()
	e, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(e)

	reg := obs.NewRegistry()
	cfg.Obs = reg
	e2, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e {
		t.Fatal("registry binding must not change the pool key")
	}
	if e2.Config().Obs != reg {
		t.Fatal("acquire did not rebind the observability registry")
	}
}

// TestPoolCycleAllocatesNothing: once an engine is parked, acquiring and
// releasing it again allocates nothing, registry binding included. The
// pool key is the configuration itself; a key formatted through fmt
// allocated on every Acquire and Release, and more after each garbage
// collection (fmt's printer cache), so a run's allocation count depended
// on when collections fell.
func TestPoolCycleAllocatesNothing(t *testing.T) {
	p := NewPool(1)
	cfg := mondrianConfig()
	cfg.Obs = obs.NewRegistry()
	e, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(e)
	allocs := testing.AllocsPerRun(20, func() {
		e, err := p.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(e)
	})
	if allocs != 0 {
		t.Fatalf("a pooled Acquire/Release cycle allocates %.0f times, want 0", allocs)
	}
	if st := p.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want every cycle after the first served from the pool", st)
	}
}
