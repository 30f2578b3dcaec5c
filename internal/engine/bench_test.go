package engine

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Micro-benchmarks of the engine's shuffle send paths (the simulator's
// hottest loop during partitioning).

func benchEngine(b *testing.B, cfg Config) *Engine {
	b.Helper()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkSendPermutable(b *testing.B) {
	cfg := Config{
		Arch: Mondrian, Core: mondrianConfigForBench().Core, Permutable: true,
		Cubes: 2, VaultsPer: 4, Topology: mondrianConfigForBench().Topology,
		Geometry: mondrianConfigForBench().Geometry, Timing: mondrianConfigForBench().Timing,
		ObjectSize: tuple.Size, BarrierNs: 1000,
	}
	e := benchEngine(b, cfg)
	const regionTuples = 1 << 20 // fixed destination regions, re-armed when full
	dests, err := e.MallocPermutable(regionTuples)
	if err != nil {
		b.Fatal(err)
	}
	perSource := make([][]int64, len(e.Units()))
	for i := range perSource {
		perSource[i] = make([]int64, e.NumVaults())
	}
	for j := range perSource[0] {
		perSource[0][j] = regionTuples
	}
	rearm := func() {
		for _, d := range dests {
			d.Reset()
		}
		if err := e.ShuffleBegin(dests, perSource); err != nil {
			b.Fatal(err)
		}
	}
	rearm()
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "bench"})
	b.ResetTimer()
	wrap := regionTuples * e.NumVaults() / 2
	for i := 0; i < b.N; i++ {
		if i%wrap == 0 && i > 0 {
			b.StopTimer()
			rearm()
			b.StartTimer()
		}
		if err := u.SendPermutable(dests[i%e.NumVaults()], tuple.Tuple{Key: tuple.Key(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.EndStep()
}

func BenchmarkSendAt(b *testing.B) {
	cfg := nmpConfigForBench()
	e := benchEngine(b, cfg)
	const regionTuples = 1 << 20
	dst, err := e.AllocOut(1, regionTuples)
	if err != nil {
		b.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "bench"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.SendAt(dst, i%regionTuples, tuple.Tuple{Key: tuple.Key(i)})
	}
	b.StopTimer()
	e.EndStep()
}

// Bench config helpers (mirrors the test configs, sized for b.N writes).
func mondrianConfigForBench() Config {
	c := mondrianConfig()
	c.Geometry.CapacityBytes = 256 << 20
	return c
}

func nmpConfigForBench() Config {
	c := nmpConfig(false)
	c.Geometry.CapacityBytes = 256 << 20
	return c
}
