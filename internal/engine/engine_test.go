package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

func smallGeom() dram.Geometry {
	g := dram.HMCGeometry()
	g.CapacityBytes = 1 << 20
	return g
}

func cpuConfig() Config {
	return Config{
		Arch: CPU, Core: cores.CortexA57(), CPUCores: 4,
		Cubes: 2, VaultsPer: 4, Topology: noc.Star,
		Geometry: smallGeom(), Timing: dram.HMCTiming(),
		ObjectSize: tuple.Size,
		L1:         cache.L1D32K(), LLC: cache.LLC4M(),
		BarrierNs: 1000,
	}
}

func nmpConfig(perm bool) Config {
	return Config{
		Arch: NMP, Core: cores.Krait400(), Permutable: perm,
		Cubes: 2, VaultsPer: 4, Topology: noc.FullyConnected,
		Geometry: smallGeom(), Timing: dram.HMCTiming(),
		ObjectSize: tuple.Size, L1: cache.L1D32K(),
		BarrierNs: 1000,
	}
}

func mondrianConfig() Config {
	return Config{
		Arch: Mondrian, Core: cores.CortexA35Mondrian(), Permutable: true,
		Cubes: 2, VaultsPer: 4, Topology: noc.FullyConnected,
		Geometry: smallGeom(), Timing: dram.HMCTiming(),
		ObjectSize: tuple.Size,
		BarrierNs:  1000,
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewPerArch(t *testing.T) {
	cpu := mustEngine(t, cpuConfig())
	if len(cpu.Units()) != 4 || cpu.LLC() == nil || cpu.Units()[0].Vault != nil {
		t.Fatal("CPU engine misconfigured")
	}
	nmp := mustEngine(t, nmpConfig(false))
	if len(nmp.Units()) != 8 || nmp.Units()[3].Vault == nil || nmp.Units()[3].L1 == nil {
		t.Fatal("NMP engine misconfigured")
	}
	if nmp.Units()[0].ObjBuf != nil {
		t.Fatal("non-permutable NMP unit should have no object buffer")
	}
	nmpP := mustEngine(t, nmpConfig(true))
	if nmpP.Units()[0].ObjBuf == nil {
		t.Fatal("NMP-perm unit missing object buffer")
	}
	m := mustEngine(t, mondrianConfig())
	if m.Units()[0].L1 != nil || m.Units()[0].Streams == nil || m.Units()[0].ObjBuf == nil {
		t.Fatal("Mondrian engine misconfigured")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := cpuConfig()
	bad.CPUCores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("CPU with 0 cores accepted")
	}
	bad2 := nmpConfig(false)
	bad2.ObjectSize = 1024
	if _, err := New(bad2); err == nil {
		t.Fatal("object size 1024 accepted")
	}
	bad3 := cpuConfig()
	bad3.Cubes = 0
	if _, err := New(bad3); err == nil {
		t.Fatal("0 cubes accepted")
	}
}

func TestPlaceAndLoad(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	ts := workload.Sequential("s", 100).Tuples
	r, err := e.Place(2, ts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 100 || r.Cap() != 100 {
		t.Fatalf("region len=%d cap=%d", r.Len(), r.Cap())
	}
	if r.Vault.ID != 2 {
		t.Fatalf("placed in vault %d", r.Vault.ID)
	}
	u := e.UnitForVault(2)
	e.BeginStep(StepProfile{Name: "load"})
	got := u.LoadTuple(r, 7)
	if got != ts[7] {
		t.Fatalf("LoadTuple = %v, want %v", got, ts[7])
	}
	e.EndStep()
	if e.DRAMStats().Reads == 0 {
		t.Fatal("load did not touch DRAM (no cache was warm)")
	}
}

func TestStoreAndAppend(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	r, err := e.AllocOut(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(1)
	e.BeginStep(StepProfile{Name: "store"})
	u.StoreTuple(r, 3, tuple.Tuple{Key: 9, Val: 9})
	if r.Len() != 4 || r.Tuples[3].Key != 9 {
		t.Fatalf("store: %v", r.Tuples)
	}
	u.AppendLocal(r, tuple.Tuple{Key: 10, Val: 10})
	if r.Len() != 5 || r.Tuples[4].Key != 10 {
		t.Fatalf("append: %v", r.Tuples)
	}
	e.EndStep()
	if e.DRAMStats().Writes != 2 {
		t.Fatalf("writes = %d, want 2", e.DRAMStats().Writes)
	}
}

func TestAppendPastCapacityPanics(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	r, _ := e.AllocOut(0, 1)
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{})
	u.AppendLocal(r, tuple.Tuple{})
	defer func() {
		if recover() == nil {
			t.Fatal("append past capacity did not panic")
		}
	}()
	u.AppendLocal(r, tuple.Tuple{})
}

func TestStepComputeBound(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.BeginStep(StepProfile{Name: "compute", DepIPC: 1})
	e.Units()[0].Charge(1e6) // 1M insts at IPC 1 at 1 GHz = 1 ms
	st := e.EndStep()
	if st.Ns != 1e6 {
		t.Fatalf("step ns = %v, want 1e6", st.Ns)
	}
	if st.MaxUnitNs != 1e6 || st.MemNs != 0 {
		t.Fatalf("step = %+v", st)
	}
	if e.TotalNs() != 1e6 {
		t.Fatalf("total = %v", e.TotalNs())
	}
}

func TestStepMemoryBound(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	ts := workload.Sequential("s", 4096).Tuples
	r, _ := e.Place(0, ts)
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "stream", StreamFed: true})
	readers, err := u.OpenStreams(r)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := readers[0].Next(); !ok {
			break
		}
	}
	// Tiny instruction charge: the step must be bound by DRAM busy time.
	u.Charge(10)
	st := e.EndStep()
	if st.MemNs <= st.MaxUnitNs {
		t.Fatalf("expected memory-bound step: %+v", st)
	}
	if st.Ns != st.MemNs {
		t.Fatalf("step ns should equal memory bound: %+v", st)
	}
	if st.StepBytes() != 4096*tuple.Size {
		t.Fatalf("step bytes = %d", st.StepBytes())
	}
}

func TestStepNesting(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.BeginStep(StepProfile{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nested BeginStep did not panic")
			}
		}()
		e.BeginStep(StepProfile{})
	}()
	e.EndStep()
	defer func() {
		if recover() == nil {
			t.Fatal("dangling EndStep did not panic")
		}
	}()
	e.EndStep()
}

func TestBarrierAccounting(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	e.Barrier()
	e.Barrier()
	if e.barrierCnt != 2 || e.TotalNs() != 2000 {
		t.Fatalf("barriers=%d total=%v", e.barrierCnt, e.TotalNs())
	}
}

func TestDistributePermutableArrivalOrder(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	dests, err := e.MallocPermutable(64)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]int64, len(e.Units()))
	for i := range perSource {
		perSource[i] = make([]int64, e.NumVaults())
	}
	perSource[0][5] = 3
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Distribute(dests, perSource, StepProfile{Name: "dist"}, func(v int, u *Unit, ob *Outbox) error {
		for i := 0; v == 0 && i < 3; i++ {
			if err := ob.Send(5, tuple.Tuple{Key: tuple.Key(100 + i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dests[5].Len() != 3 {
		t.Fatalf("dest len = %d", dests[5].Len())
	}
	if dests[5].Vault.PermutedWrites != 3 {
		t.Fatalf("permuted writes = %d", dests[5].Vault.PermutedWrites)
	}
	// Arrival order is the layout.
	for i, tp := range dests[5].Tuples {
		if tp.Key != tuple.Key(100+i) {
			t.Fatalf("arrival order broken: %v", dests[5].Tuples)
		}
	}
}

func TestShuffleBeginOverflowSurfaces(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	dests, err := e.MallocPermutable(4)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]int64, len(e.Units()))
	for i := range perSource {
		perSource[i] = make([]int64, e.NumVaults())
	}
	perSource[0][0] = 100 // far beyond the 4-tuple provision
	if err := e.ShuffleBegin(dests, perSource); !errors.Is(err, hmc.ErrRegionOverflow) {
		t.Fatalf("overflow error = %v", err)
	}
}

// A permutable exchange refuses to send from a unit built without an
// object buffer.
func TestOutboxSendWithoutBufferFails(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	dests, err := e.MallocPermutable(4)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]int64, len(e.Units()))
	for i := range perSource {
		perSource[i] = make([]int64, e.NumVaults())
	}
	perSource[0][1] = 1
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}
	e.UnitForVault(0).ObjBuf = nil
	if _, err := e.Distribute(dests, perSource, StepProfile{}, func(v int, u *Unit, ob *Outbox) error {
		if v != 0 {
			return nil
		}
		return ob.Send(1, tuple.Tuple{})
	}); err == nil {
		t.Fatal("send without object buffer succeeded")
	}
}

func TestOpenStreamsFallbackOnCachedUnits(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	ts := workload.Sequential("s", 64).Tuples
	r, _ := e.Place(3, ts)
	u := e.UnitForVault(3)
	e.BeginStep(StepProfile{Name: "seqread"})
	readers, err := u.OpenStreams(r)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		tp, ok := readers[0].Next()
		if !ok {
			break
		}
		if tp != ts[n] {
			t.Fatalf("tuple %d = %v", n, tp)
		}
		n++
	}
	e.EndStep()
	if n != 64 {
		t.Fatalf("read %d tuples", n)
	}
	// Cached sequential reads: far fewer DRAM reads than tuples.
	if e.DRAMStats().Reads >= 64 {
		t.Fatalf("cache did not filter: %d DRAM reads", e.DRAMStats().Reads)
	}
}

func TestOpenStreamsRejectsRemoteRegion(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	ts := workload.Sequential("s", 8).Tuples
	r, _ := e.Place(3, ts)
	if _, err := e.UnitForVault(0).OpenStreams(r); err == nil {
		t.Fatal("remote stream accepted on Mondrian unit")
	}
}

func TestStreamPeekIsFree(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	ts := workload.Sequential("s", 32).Tuples
	r, _ := e.Place(0, ts)
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{StreamFed: true})
	readers, err := u.OpenStreams(r)
	if err != nil {
		t.Fatal(err)
	}
	before := u.Streams.FillBytes
	for i := 0; i < 10; i++ {
		if _, ok := readers[0].Peek(); !ok {
			t.Fatal("peek failed")
		}
	}
	if u.Streams.FillBytes != before {
		t.Fatal("peeks triggered fills")
	}
	e.EndStep()
}

func TestEnergyBreakdownSanity(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	ts := workload.Uniform("u", workload.Config{Seed: 1, Tuples: 1024}).Tuples
	r, _ := e.Place(0, ts)
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "scan", StreamFed: true})
	readers, _ := u.OpenStreams(r)
	for {
		if _, ok := readers[0].Next(); !ok {
			break
		}
	}
	u.Charge(float64(len(ts)) * 2)
	e.EndStep()
	b := e.Energy(energy.DefaultParams())
	if b.Total() <= 0 {
		t.Fatal("zero energy")
	}
	if b.DRAMDynamic <= 0 || b.DRAMStatic <= 0 || b.Cores <= 0 || b.Network <= 0 {
		t.Fatalf("missing components: %+v", b)
	}
	if b.LLC != 0 {
		t.Fatal("Mondrian has no LLC but was charged for one")
	}
	cpu := mustEngine(t, cpuConfig())
	rr, _ := cpu.Place(0, ts)
	cu := cpu.Units()[0]
	cpu.BeginStep(StepProfile{Name: "scan", DepIPC: 2, InstPerAccess: 4})
	for i := 0; i < rr.Len(); i++ {
		cu.LoadTuple(rr, i)
	}
	cu.Charge(float64(rr.Len()) * 8)
	cpu.EndStep()
	cb := cpu.Energy(energy.DefaultParams())
	if cb.LLC <= 0 {
		t.Fatal("CPU LLC energy missing")
	}
}

// The headline mechanism: an interleaved multi-source shuffle produces far
// fewer row activations with permutability than without, on identical
// tuple traffic, and the functional results are the same multiset.
func TestShuffleActivationGapEndToEnd(t *testing.T) {
	const perVault = 512
	run := func(perm bool) (uint64, []tuple.Tuple) {
		cfg := nmpConfig(perm)
		e := mustEngine(t, cfg)
		nv := e.NumVaults()
		// Source data: every vault holds tuples destined for vault
		// (key % nv).
		srcs := make([]*Region, nv)
		for v := 0; v < nv; v++ {
			rel := workload.Uniform("src", workload.Config{Seed: int64(v + 1), Tuples: perVault})
			r, err := e.Place(v, rel.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			srcs[v] = r
		}
		dests, err := e.MallocPermutable(perVault * 4)
		if err != nil {
			t.Fatal(err)
		}
		perSource := make([][]int64, nv)
		for v := 0; v < nv; v++ {
			perSource[v] = make([]int64, nv)
			for _, tp := range srcs[v].Tuples {
				perSource[v][int(tp.Key)%nv]++
			}
		}
		if err := e.ShuffleBegin(dests, perSource); err != nil {
			t.Fatal(err)
		}
		// Every source sends one tuple per round: the arrival interleaving
		// of Fig. 2. Conventional systems write each source's tuples into
		// its prefix-sum slot range; permutable ones append.
		actsBefore := e.DRAMStats().Activations
		if _, err := e.Distribute(dests, perSource, StepProfile{Name: "distribute"}, func(v int, u *Unit, ob *Outbox) error {
			for i := 0; i < srcs[v].Len(); i++ {
				tp := u.LoadTuple(srcs[v], i)
				if err := ob.Send(int(tp.Key)%nv, tp); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var all []tuple.Tuple
		for _, d := range dests {
			all = append(all, d.Tuples...)
		}
		return e.DRAMStats().Activations - actsBefore, all
	}
	actsPerm, tuplesPerm := run(true)
	actsNoPerm, tuplesNoPerm := run(false)
	if !tuple.SameMultiset(tuplesPerm, tuplesNoPerm) {
		t.Fatal("permutability changed the shuffled multiset")
	}
	t.Logf("row activations: conventional %d, permutable %d", actsNoPerm, actsPerm)
	if actsNoPerm < actsPerm*2 {
		t.Fatalf("activation gap too small: noperm=%d perm=%d", actsNoPerm, actsPerm)
	}
}

// Property: a permutable exchange preserves tuple multisets for random
// fan-outs.
func TestDistributeMultisetProperty(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	dests, err := e.MallocPermutable(4096)
	if err != nil {
		t.Fatal(err)
	}
	type send struct {
		dst int
		t   tuple.Tuple
	}
	nu := len(e.Units())
	perSource := make([][]int64, nu)
	for i := range perSource {
		perSource[i] = make([]int64, e.NumVaults())
	}
	rng := rand.New(rand.NewSource(77))
	sends := make([][]send, nu)
	var sent []tuple.Tuple
	for i := 0; i < 500; i++ {
		src := rng.Intn(nu)
		dst := rng.Intn(e.NumVaults())
		tp := tuple.Tuple{Key: tuple.Key(rng.Uint64()), Val: tuple.Value(rng.Uint64())}
		sends[src] = append(sends[src], send{dst, tp})
		perSource[src][dst]++
		sent = append(sent, tp)
	}
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Distribute(dests, perSource, StepProfile{Name: "prop"}, func(v int, u *Unit, ob *Outbox) error {
		for _, m := range sends[v] {
			if err := ob.Send(m.dst, m.t); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []tuple.Tuple
	for _, d := range dests {
		got = append(got, d.Tuples...)
	}
	if !tuple.SameMultiset(sent, got) {
		t.Fatal("shuffle lost or duplicated tuples")
	}
}

// TestNextRunNoBulkMatchesNexts: a StreamReader's NextRun(n) returns the
// next n tuples and charges what n Next calls charge, with and without
// NoBulk (which makes the n Next calls itself), on stream-buffer
// (Mondrian) and cache-backed (NMP) units. Two readers interleave random
// run lengths; the tuples, the recorded step, the DRAM counters, the
// total time and the stream buffers' fill traffic must all agree.
func TestNextRunNoBulkMatchesNexts(t *testing.T) {
	for name, cfg := range map[string]Config{"mondrian": mondrianConfig(), "nmp": nmpConfig(false)} {
		t.Run(name, func(t *testing.T) {
			a := workload.Uniform("a", workload.Config{Seed: 5, Tuples: 3000}).Tuples
			b := workload.Uniform("b", workload.Config{Seed: 6, Tuples: 1700}).Tuples
			type outcome struct {
				read  [][]tuple.Tuple
				step  StepTiming
				dram  dram.Stats
				total float64
				fill  uint64
			}
			run := func(noBulk, perElement bool) outcome {
				c := cfg
				c.NoBulk = noBulk
				e := mustEngine(t, c)
				ra, _ := e.Place(0, a)
				rb, _ := e.Place(0, b)
				u := e.UnitForVault(0)
				e.BeginStep(StepProfile{Name: "runs", StreamFed: cfg.Arch == Mondrian})
				readers, err := u.OpenStreams(ra, rb)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				o.read = make([][]tuple.Tuple, len(readers))
				rng := rand.New(rand.NewSource(17))
				for !readers[0].Done() || !readers[1].Done() {
					i := rng.Intn(2)
					s := readers[i]
					n := min(rng.Intn(70), len(s.r.Tuples)-s.pos)
					if perElement {
						for k := 0; k < n; k++ {
							tp, _ := s.Next()
							o.read[i] = append(o.read[i], tp)
						}
					} else {
						o.read[i] = append(o.read[i], s.NextRun(n)...)
					}
				}
				o.step = e.EndStep()
				o.dram, o.total = e.DRAMStats(), e.TotalNs()
				if u.Streams != nil {
					o.fill = u.Streams.FillBytes
				}
				return o
			}
			want := run(false, true)
			if cfg.Arch == Mondrian && want.fill == 0 {
				t.Fatal("the readers did not stream through the stream buffers")
			}
			if !slices.Equal(want.read[0], a) || !slices.Equal(want.read[1], b) {
				t.Fatal("Next did not return the regions' tuples in order")
			}
			for _, noBulk := range []bool{false, true} {
				got := run(noBulk, false)
				if !slices.Equal(got.read[0], a) || !slices.Equal(got.read[1], b) {
					t.Fatalf("NoBulk=%v: NextRun did not return the regions' tuples in order", noBulk)
				}
				if got.step != want.step || got.dram != want.dram || got.total != want.total || got.fill != want.fill {
					t.Fatalf("NoBulk=%v: NextRun charged step %+v, DRAM %+v, total %v, fill %d; Next calls %+v, %+v, %v, %d",
						noBulk, got.step, got.dram, got.total, got.fill, want.step, want.dram, want.total, want.fill)
				}
			}
		})
	}
}
