package simulate

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

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

// TestCPUPipelineLeavesNoGoroutines: the host-core engine's LLC-stage
// goroutine (DESIGN.md §8) lives only inside steps — after a pooled Run,
// a RunPlan, an unpooled Run and a run that panics mid-step, the
// goroutine count is back at its baseline.
func TestCPUPipelineLeavesNoGoroutines(t *testing.T) {
	p := goldenParams()
	p.Parallelism = 4
	base := runtime.NumGoroutine()

	if _, err := Run(CPU, OpJoin, p); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "pooled Run (released and reset)")

	if _, err := RunPlan(CPU, PlanJoinAgg, p); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "RunPlan")

	unpooled := p
	unpooled.NoPool = true
	if _, err := Run(CPU, OpSort, unpooled); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "unpooled Run")

	err := Protect("CPU/doomed", func() error {
		e, _, err := acquireEngine(p, CPU) // a panicking run never releases
		if err != nil {
			return err
		}
		r, err := e.Place(0, make([]tuple.Tuple, 1<<12))
		if err != nil {
			return err
		}
		e.BeginStep(engine.StepProfile{Name: "doomed"})
		for i, u := range e.Units() {
			for j := 0; j < 1<<10; j++ {
				u.ReadBytes(r.Addr+int64((i*1031+j*7919)%(1<<12))*tuple.Size, tuple.Size)
			}
		}
		panic("operator invariant broke mid-step")
	})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("panicking run returned %v, want *InternalError", err)
	}
	waitGoroutines(t, base, "run that panicked mid-step")
}

// TestCPUPipelinePanicReachesProtect: a panic on the LLC-stage goroutine
// is re-raised at the producer's next drain as *engine.PanicError, which
// Protect unwraps into an *InternalError carrying the original value and
// the stage goroutine's stack.
func TestCPUPipelinePanicReachesProtect(t *testing.T) {
	p := goldenParams()
	p.Parallelism = 4
	p.NoPool = true
	err := Protect("CPU/bad-address", func() error {
		e, _, err := acquireEngine(p, CPU)
		if err != nil {
			return err
		}
		e.BeginStep(engine.StepProfile{Name: "bad"})
		e.Units()[0].ReadBytes(e.Sys.CapacityBytes()+1<<20, tuple.Size) // no vault owns it
		e.EndStep()
		return nil
	})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *InternalError", err)
	}
	if !strings.Contains(fmt.Sprint(ie.Value), "outside") {
		t.Errorf("Value = %v, want the vault-lookup panic", ie.Value)
	}
	if !strings.Contains(string(ie.Stack), "llcStage") {
		t.Errorf("Stack is not the LLC stage's:\n%s", ie.Stack)
	}
}
