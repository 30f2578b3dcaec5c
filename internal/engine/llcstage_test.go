package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// cpuAt returns the CPU test configuration at a host parallelism: 1 runs
// the LLC stage inline, 2 and more on its own goroutine.
func cpuAt(par int) Config {
	cfg := cpuConfig()
	cfg.Parallelism = par
	return cfg
}

// llcWorkout drives every kind of LLC-bound request across many batch
// boundaries: random reads and writes from all cores (demand fetches,
// prefetches, writebacks, page walks, L2-TLB hits), bulk runs, a phase
// boundary and a histogram announcement (ShuffleBegin's route) in the
// middle of a step, and accesses outside any step.
func llcWorkout(t *testing.T, e *Engine) {
	t.Helper()
	const n = 1 << 14
	regions := make([]*Region, e.NumVaults())
	for v := range regions {
		r, err := e.Place(v, make([]tuple.Tuple, n))
		if err != nil {
			t.Fatal(err)
		}
		regions[v] = r
	}
	rng := rand.New(rand.NewSource(7))
	units := e.Units()
	for step := 0; step < 3; step++ {
		e.BeginPhase("phase")
		e.BeginStep(StepProfile{Name: "mixed", InstPerAccess: 4})
		for i := 0; i < 6*batchRecs; i++ {
			u := units[i%len(units)]
			r := regions[rng.Intn(len(regions))]
			u.Charge(3)
			if rng.Intn(4) == 0 {
				u.WriteBytes(r.Addr+int64(rng.Intn(n))*tuple.Size, tuple.Size)
			} else {
				u.ReadBytes(r.Addr+int64(rng.Intn(n))*tuple.Size, tuple.Size)
			}
			switch i {
			case 2 * batchRecs:
				e.EndPhase()
				e.BeginPhase("second")
			case 4*batchRecs + 100:
				hist := make([][]int64, len(units))
				for s := range hist {
					hist[s] = make([]int64, e.NumVaults())
				}
				if err := e.ShuffleBegin(regions, hist); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, u := range units {
			u.ReadRunBytes(regions[u.ID].Addr, tuple.Size, n/2)
		}
		e.EndStep()
		e.EndPhase()
		units[0].WriteBytes(regions[1].Addr, tuple.Size) // between steps
	}
}

// llcFingerprint collects everything the LLC stage writes.
type llcFingerprint struct {
	Steps  []StepTiming
	Total  float64
	LLC    cache.Stats
	DRAM   dram.Stats
	Mesh   noc.MeshStats
	Links  []noc.LinkStats
	Phases []PhaseTiming
}

func fingerprintLLC(e *Engine) llcFingerprint {
	f := llcFingerprint{Steps: e.Steps(), Total: e.TotalNs(), LLC: e.LLC().Stats(), DRAM: e.DRAMStats(), Mesh: e.mesh.Stats(), Phases: e.Phases()}
	for _, l := range e.Sys.Net.Links() {
		f.Links = append(f.Links, l.Stats())
	}
	for i := range f.Phases {
		f.Phases[i].WallNs = 0 // host wall time
	}
	return f
}

// TestLLCStagePipelinedMatchesInline is the engine-level differential
// oracle: the same request stream retired inline (Parallelism 1) and by
// the stage-2 goroutine (Parallelism 2 and 4) leaves byte-identical step
// timings, stalls and shared-memory statistics.
func TestLLCStagePipelinedMatchesInline(t *testing.T) {
	var ref llcFingerprint
	for _, par := range []int{1, 2, 4} {
		cfg := cpuAt(par)
		cfg.Obs = obs.NewRegistry()
		e := mustEngine(t, cfg)
		llcWorkout(t, e)
		got := fingerprintLLC(e)
		if got.LLC.Accesses == 0 || got.DRAM.Accesses() == 0 {
			t.Fatalf("parallelism %d: workout reached no LLC/DRAM traffic", par)
		}
		if par == 1 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("parallelism %d differs from the inline stage:\n%+v\nvs\n%+v", par, got, ref)
		}
	}
}

// waitGoroutines polls until the goroutine count is back at base; a
// goroutine that has signalled its exit may still be unwinding.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLLCStageGoroutineLifecycle: the consumer lives only inside steps.
// EndStep and Reset leave no goroutine behind, and neither does a step
// the producer abandons with a panic.
func TestLLCStageGoroutineLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	e := mustEngine(t, cpuAt(4))
	if e.llcq != nil {
		t.Fatal("New built the LLC stage; it must wait for the first step")
	}
	llcWorkout(t, e)
	waitGoroutines(t, base, "after steps")
	q := e.llcq
	e.Reset()
	if e.llcq != q {
		t.Fatal("Reset rebuilt the LLC stage instead of reusing its ring")
	}
	llcWorkout(t, e)
	e.Reset()
	waitGoroutines(t, base, "after Reset")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("producer panic did not propagate")
			}
		}()
		r, err := e.Place(0, make([]tuple.Tuple, 1<<12))
		if err != nil {
			t.Fatal(err)
		}
		e.BeginStep(StepProfile{Name: "doomed"})
		for i := 0; i < 1<<12; i++ {
			e.Units()[i%4].ReadBytes(r.Addr+int64(i*7919%(1<<12))*tuple.Size, tuple.Size)
		}
		panic("operator invariant broke mid-step")
	}()
	waitGoroutines(t, base, "after a producer panic mid-step")
}

// TestLLCStageConsumerPanicReraised: a panic on the stage-2 goroutine
// (here a request for an address no vault owns) comes back on the
// producer at the next drain as a *PanicError carrying the consumer's
// stack, and the stage is usable again afterwards.
func TestLLCStageConsumerPanicReraised(t *testing.T) {
	base := runtime.NumGoroutine()
	e := mustEngine(t, cpuAt(4))
	bad := e.Sys.CapacityBytes() + 1<<20
	func() {
		defer func() {
			r := recover()
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T %v, want *PanicError", r, r)
			}
			if !strings.Contains(pe.Error(), "outside") {
				t.Errorf("panic value %v, want the vault-lookup failure", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "llcStage") {
				t.Errorf("consumer stack not captured:\n%s", pe.Stack)
			}
		}()
		e.BeginStep(StepProfile{Name: "bad"})
		e.Units()[0].ReadBytes(bad, tuple.Size)
		e.EndStep()
	}()
	waitGoroutines(t, base, "after a consumer panic")
	e.Reset()
	if got := workout(t, e); got <= 0 {
		t.Fatalf("engine unusable after a consumer panic: total %v", got)
	}
}

// TestLLCStagePipelinedZeroAlloc pins the pipelined steady state at
// Parallelism 4: starting the consumer, the accesses and batch handoffs,
// the drain and stopping the consumer again — the stage's part of one
// step — allocate nothing.
func TestLLCStagePipelinedZeroAlloc(t *testing.T) {
	const n = 1 << 14
	e := mustEngine(t, cpuAt(4))
	r, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	u := e.Units()[1]
	step := func() {
		e.llcStage().beginStep(true)
		for i := 0; i < n; i++ {
			u.ReadBytes(r.Addr+int64(i*7919%n)*tuple.Size, tuple.Size)
		}
		e.llcq.park()
	}
	step()
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Errorf("pipelined CPU step allocates %.1f times per %d-access sweep", allocs, n)
	}
}
