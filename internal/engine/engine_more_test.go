package engine

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

func TestRegionViewAndReset(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	ts := workload.Sequential("s", 100).Tuples
	r, err := e.Place(0, ts)
	if err != nil {
		t.Fatal(err)
	}
	view := r.view(10, 20)
	v := &view
	if v.Len() != 10 || v.Cap() != 10 {
		t.Fatalf("view len=%d cap=%d", v.Len(), v.Cap())
	}
	if v.Tuples[0] != ts[10] {
		t.Fatalf("view start = %v", v.Tuples[0])
	}
	if v.Addr != r.Addr+10*tuple.Size {
		t.Fatalf("view addr = %#x", v.Addr)
	}
	// Views must not grow into the parent's storage.
	defer func() {
		if recover() == nil {
			t.Fatal("view append past capacity did not panic")
		}
	}()
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{})
	for i := 0; i < 11; i++ {
		u.AppendLocal(v, tuple.Tuple{})
	}
}

func TestRegionViewBounds(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	r, _ := e.Place(0, workload.Sequential("s", 10).Tuples)
	for _, fn := range []func(){
		func() { r.view(-1, 5) },
		func() { r.view(0, 11) },
		func() { r.view(7, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad view bounds did not panic")
				}
			}()
			fn()
		}()
	}
	scratch, _ := e.AllocOut(0, 5)
	scratch.Tuples = append(scratch.Tuples, tuple.Tuple{Key: 1})
	scratch.Reset()
	if scratch.Len() != 0 || scratch.Cap() != 5 {
		t.Fatal("Reset changed capacity or kept tuples")
	}
}

func TestRemoteAccessCostsMoreThanLocal(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	// Local read.
	local, _ := e.Place(0, workload.Sequential("l", 4).Tuples)
	sameCube, _ := e.Place(1, workload.Sequential("s", 4).Tuples)  // vault 1: cube 0
	crossCube, _ := e.Place(5, workload.Sequential("c", 4).Tuples) // vault 5: cube 1
	u := e.UnitForVault(0)

	measure := func(r *Region) float64 {
		e.BeginStep(StepProfile{Name: "m", DepIPC: 1, InstPerAccess: 1})
		u.LoadTuple(r, 0)
		st := e.EndStep()
		return st.MaxUnitNs
	}
	lLocal := measure(local)
	lSame := measure(sameCube)
	lCross := measure(crossCube)
	if !(lLocal < lSame && lSame < lCross) {
		t.Fatalf("latency ordering broken: local %.1f, same-cube %.1f, cross-cube %.1f",
			lLocal, lSame, lCross)
	}
}

func TestStepBytesAndBandwidth(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	r, _ := e.Place(0, workload.Sequential("s", 1024).Tuples)
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "scan", StreamFed: true})
	readers, _ := u.OpenStreams(r)
	for {
		if _, ok := readers[0].Next(); !ok {
			break
		}
	}
	st := e.EndStep()
	if st.StepBytes() != 1024*tuple.Size {
		t.Fatalf("step bytes = %d", st.StepBytes())
	}
	bw := st.BandwidthPerVaultGBs(st.StepBytes(), 1)
	if bw <= 0 || bw > 8.01 {
		t.Fatalf("per-vault bandwidth %.2f outside (0, 8]", bw)
	}
	if zero := (StepTiming{}).BandwidthPerVaultGBs(100, 4); zero != 0 {
		t.Fatal("zero-duration step should report 0 bandwidth")
	}
}

func TestStepsTimeline(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.BeginStep(StepProfile{Name: "a"})
	e.Units()[0].Charge(1000)
	e.EndStep()
	e.Barrier()
	e.BeginStep(StepProfile{Name: "b"})
	e.Units()[1].Charge(500)
	e.EndStep()
	steps := e.Steps()
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Name != "a" || steps[1].Name != "barrier" || steps[2].Name != "b" {
		t.Fatalf("timeline = %v %v %v", steps[0].Name, steps[1].Name, steps[2].Name)
	}
	var sum float64
	for _, s := range steps {
		sum += s.Ns
	}
	if sum != e.TotalNs() {
		t.Fatalf("step sum %v != total %v", sum, e.TotalNs())
	}
}

func TestEnergyDeterminism(t *testing.T) {
	run := func() float64 {
		e := mustEngine(t, mondrianConfig())
		r, _ := e.Place(0, workload.Uniform("u", workload.Config{Seed: 2, Tuples: 512}).Tuples)
		u := e.UnitForVault(0)
		e.BeginStep(StepProfile{Name: "s", StreamFed: true})
		readers, _ := u.OpenStreams(r)
		for {
			if _, ok := readers[0].Next(); !ok {
				break
			}
		}
		u.Charge(1000)
		e.EndStep()
		return e.Energy(energy.DefaultParams()).Total()
	}
	if run() != run() {
		t.Fatal("energy not deterministic")
	}
}

func TestChargeNegativePanics(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.BeginStep(StepProfile{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	e.Units()[0].Charge(-1)
}

func TestLoadTupleBoundsPanics(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	r, _ := e.Place(0, workload.Sequential("s", 4).Tuples)
	e.BeginStep(StepProfile{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range load did not panic")
		}
	}()
	e.UnitForVault(0).LoadTuple(r, 4)
}

func TestUnitForVaultPanicsOnCPU(t *testing.T) {
	e := mustEngine(t, cpuConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("UnitForVault on CPU did not panic")
		}
	}()
	e.UnitForVault(0)
}

func TestArchString(t *testing.T) {
	if CPU.String() != "CPU" || NMP.String() != "NMP" || Mondrian.String() != "Mondrian" {
		t.Fatal("arch names wrong")
	}
	if Arch(9).String() != "Arch(9)" {
		t.Fatal("fallback arch name wrong")
	}
}

func TestAggIPCReported(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.BeginStep(StepProfile{Name: "ipc", DepIPC: 1})
	for _, u := range e.Units() {
		u.Charge(1000)
	}
	st := e.EndStep()
	// All units equally busy at DepIPC 1 → aggregate per-unit IPC ≈ 1.
	if st.AggIPC < 0.9 || st.AggIPC > 1.1 {
		t.Fatalf("AggIPC = %v, want ~1", st.AggIPC)
	}
}
