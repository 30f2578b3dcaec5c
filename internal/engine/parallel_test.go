package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/tuple"
)

func TestWorkersPolicy(t *testing.T) {
	cpu := mustEngine(t, cpuConfig())
	if w := cpu.Workers(); w != 1 {
		t.Fatalf("CPU Workers() = %d, want 1 (shared LLC/mesh are order-dependent)", w)
	}

	cfg := nmpConfig(false) // 8 vaults
	def := mustEngine(t, cfg)
	want := runtime.GOMAXPROCS(0)
	if want > 8 {
		want = 8
	}
	if w := def.Workers(); w != want {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS capped at units = %d", w, want)
	}

	cfg.Parallelism = 4
	if w := mustEngine(t, cfg).Workers(); w != 4 {
		t.Fatalf("Parallelism=4 Workers() = %d", w)
	}
	cfg.Parallelism = 99 // above unit count: capped
	if w := mustEngine(t, cfg).Workers(); w != 8 {
		t.Fatalf("Parallelism=99 Workers() = %d, want 8 (unit count)", w)
	}
	cfg.Parallelism = -3
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "negative Parallelism") {
		t.Fatalf("Parallelism=-3 New error = %v, want negative-Parallelism rejection", err)
	}
}

func TestForEachVaultCoversAllIndices(t *testing.T) {
	cfg := nmpConfig(false)
	cfg.Parallelism = 4
	e := mustEngine(t, cfg)
	ran := make([]int32, e.NumVaults())
	if err := e.ForEachVault(func(v int, u *Unit) error {
		if u != e.UnitForVault(v) {
			t.Errorf("vault %d got unit %d", v, u.ID)
		}
		atomic.AddInt32(&ran[v], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for v, n := range ran {
		if n != 1 {
			t.Fatalf("vault %d ran %d times", v, n)
		}
	}
}

func TestForEachVaultPanicsOnCPU(t *testing.T) {
	e := mustEngine(t, cpuConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("ForEachVault on CPU did not panic")
		}
	}()
	_ = e.ForEachVault(func(int, *Unit) error { return nil })
}

// Both serial and parallel execution must run every index and report the
// lowest-index error, so P1 and PN agree on error behavior too.
func TestForEachLowestIndexError(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := nmpConfig(false)
		cfg.Parallelism = par
		e := mustEngine(t, cfg)
		var ran atomic.Int32
		err := e.ForEachTask(8, func(i int) error {
			ran.Add(1)
			if i >= 2 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 2 failed" {
			t.Fatalf("parallelism %d: err = %v, want lowest-index error", par, err)
		}
		if ran.Load() != 8 {
			t.Fatalf("parallelism %d: ran %d of 8 indices", par, ran.Load())
		}
	}
}

func TestForEachPanicPropagatesLowestIndex(t *testing.T) {
	cfg := nmpConfig(false)
	cfg.Parallelism = 4
	e := mustEngine(t, cfg)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		// Worker panics propagate wrapped in a *PanicError that keeps the
		// worker goroutine's own stack — the rethrow from the caller's
		// goroutine would otherwise discard it.
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T %v, want *PanicError", r, r)
		}
		if s, ok := pe.Value.(string); !ok || s != "boom 3" {
			t.Fatalf("recovered value %v, want lowest-index panic value", pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel_test") {
			t.Fatalf("worker stack not captured:\n%s", pe.Stack)
		}
	}()
	_ = e.ForEachTask(8, func(i int) error {
		if i == 3 || i == 5 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return nil
	})
}

// exchangeOutcome captures everything a shuffle changes in the simulation.
type exchangeOutcome struct {
	totalNs   float64
	dram      string
	destData  [][]tuple.Tuple
	permuted  []uint64
	meshBusy  []float64
	meshBitMM []float64
	linkBusy  []float64
	steps     []StepTiming
}

// runExchange performs a full shuffle round (histogram → ShuffleBegin →
// Exchange → ShuffleEnd) on a fresh engine with a skewed synthetic
// dataset and returns the complete observable outcome.
func runExchange(t *testing.T, cfg Config) exchangeOutcome {
	t.Helper()
	e := mustEngine(t, cfg)
	nv := e.NumVaults()
	perVault := 512

	inputs := make([]*Region, nv)
	for v := 0; v < nv; v++ {
		ts := make([]tuple.Tuple, perVault)
		for i := range ts {
			// Deterministic skewed keys: vault 0 receives ~2× traffic.
			k := uint64(v*perVault+i) * 2654435761
			if i%4 == 0 {
				k = k / uint64(nv) * uint64(nv) // multiples of nv → vault 0
			}
			ts[i] = tuple.Tuple{Key: tuple.Key(k), Val: tuple.Value(i)}
		}
		r, err := e.Place(v, ts)
		if err != nil {
			t.Fatal(err)
		}
		inputs[v] = r
	}

	dests, err := e.MallocPermutable(2*perVault + 64)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]int64, nv)
	for v := 0; v < nv; v++ {
		perSource[v] = make([]int64, nv)
		for _, tp := range inputs[v].Tuples {
			perSource[v][int(uint64(tp.Key)%uint64(nv))]++
		}
	}
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}

	e.BeginStep(StepProfile{Name: "dist", DepIPC: 1, InstPerAccess: 4})
	x := e.NewExchange(dests, perSource)
	if err := e.ForEachVault(func(v int, u *Unit) error {
		ob := x.Outbox(v)
		for i := 0; i < inputs[v].Len(); i++ {
			tp := u.LoadTuple(inputs[v], i)
			u.Charge(6)
			if err := ob.Send(int(uint64(tp.Key)%uint64(nv)), tp); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	e.EndStep()
	e.ShuffleEnd(dests)

	out := exchangeOutcome{
		totalNs: e.TotalNs(),
		dram:    fmt.Sprintf("%+v", e.DRAMStats()),
		steps:   e.Steps(),
	}
	for _, d := range dests {
		out.destData = append(out.destData, append([]tuple.Tuple(nil), d.Tuples...))
	}
	for _, v := range e.Sys.Vaults() {
		out.permuted = append(out.permuted, v.PermutedWrites)
	}
	for _, c := range e.Sys.Cubes {
		out.meshBusy = append(out.meshBusy, c.Mesh.Stats().BusyNs)
		out.meshBitMM = append(out.meshBitMM, c.Mesh.Stats().BitMM)
	}
	for _, l := range e.Sys.Net.Links() {
		out.linkBusy = append(out.linkBusy, l.Stats().BusyNs)
	}
	return out
}

// The tentpole determinism guarantee at engine level: the full observable
// outcome of a shuffle — timing, DRAM stats, tuple layout, interconnect
// occupancy — is bitwise identical at parallelism 1 and 4, with and
// without permutability.
func TestExchangeDeterministicAcrossParallelism(t *testing.T) {
	for _, perm := range []bool{false, true} {
		cfg := nmpConfig(perm)
		cfg.Parallelism = 1
		serial := runExchange(t, cfg)
		cfg.Parallelism = 4
		parallel := runExchange(t, cfg)

		if math.Float64bits(serial.totalNs) != math.Float64bits(parallel.totalNs) {
			t.Fatalf("perm=%v: TotalNs %v != %v", perm, serial.totalNs, parallel.totalNs)
		}
		if serial.dram != parallel.dram {
			t.Fatalf("perm=%v: DRAM stats diverge:\n  P1: %s\n  P4: %s", perm, serial.dram, parallel.dram)
		}
		if !reflect.DeepEqual(serial.destData, parallel.destData) {
			t.Fatalf("perm=%v: destination tuple layout diverges", perm)
		}
		if !reflect.DeepEqual(serial.permuted, parallel.permuted) {
			t.Fatalf("perm=%v: PermutedWrites diverge", perm)
		}
		if !reflect.DeepEqual(serial.meshBusy, parallel.meshBusy) ||
			!reflect.DeepEqual(serial.meshBitMM, parallel.meshBitMM) {
			t.Fatalf("perm=%v: mesh stats diverge", perm)
		}
		if !reflect.DeepEqual(serial.linkBusy, parallel.linkBusy) {
			t.Fatalf("perm=%v: SerDes stats diverge", perm)
		}
		if !reflect.DeepEqual(serial.steps, parallel.steps) {
			t.Fatalf("perm=%v: step timings diverge", perm)
		}
		if perm {
			total := uint64(0)
			for _, p := range parallel.permuted {
				total += p
			}
			if total == 0 {
				t.Fatal("permutable run recorded no permuted writes")
			}
		}
	}
}

// orderTracer records the access stream as comparable strings.
type orderTracer struct{ events []string }

func (o *orderTracer) Access(unit int, kind AccessKind, addr int64, size int, write bool) {
	o.events = append(o.events, fmt.Sprintf("%d/%d/%d/%d/%v", unit, kind, addr, size, write))
}

// Buffered tracing must replay parallel-section events in the exact order
// a serial run emits them.
func TestTraceOrderMatchesSerial(t *testing.T) {
	run := func(par int) []string {
		cfg := nmpConfig(true)
		cfg.Parallelism = par
		e := mustEngine(t, cfg)
		regions := make([]*Region, e.NumVaults())
		for v := range regions {
			ts := make([]tuple.Tuple, 64)
			for i := range ts {
				ts[i] = tuple.Tuple{Key: tuple.Key(v*64 + i)}
			}
			r, err := e.Place(v, ts)
			if err != nil {
				t.Fatal(err)
			}
			regions[v] = r
		}
		tr := &orderTracer{}
		e.SetTracer(tr)
		e.BeginStep(StepProfile{Name: "scan", DepIPC: 1, InstPerAccess: 4})
		if err := e.ForEachVault(func(v int, u *Unit) error {
			for i := 0; i < regions[v].Len(); i++ {
				u.LoadTuple(regions[v], i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		e.EndStep()
		return tr.events
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) == 0 {
		t.Fatal("no events traced")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("trace order diverges:\n  P1: %s ...\n  P4: %s ...",
			strings.Join(serial[:4], " "), strings.Join(parallel[:4], " "))
	}
}
