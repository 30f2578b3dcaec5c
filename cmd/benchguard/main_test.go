package main

import (
	"io"
	"regexp"
	"testing"
)

func snapshot(cpu, goVersion string, rs ...Result) *Snapshot {
	return &Snapshot{CPU: cpu, Go: goVersion, Benchmarks: rs}
}

// TestGuardChecksAllocationOnAnyCPU checks that bytes/op and allocs/op are
// held within 1% of the baseline whether or not the CPU models match (but
// only under the baseline's Go release), while ns/op is compared only on
// the baseline's CPU.
func TestGuardChecksAllocationOnAnyCPU(t *testing.T) {
	re := regexp.MustCompile(`^BenchmarkX`)
	base := snapshot("cpu-a", "go1.x",
		Result{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
		Result{Name: "BenchmarkX", NsPerOp: 90, BytesPerOp: 1010, AllocsPerOp: 101},
	)
	x := func(ns float64, bytes, allocs int64) Result {
		return Result{Name: "BenchmarkX", NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	}
	for _, c := range []struct {
		name   string
		cur    *Snapshot
		failed int
	}{
		{"same cpu, equal", snapshot("cpu-a", "go1.x", x(90, 1000, 100)), 0},
		{"same cpu, within 1%", snapshot("cpu-a", "go1.x", x(90, 1010, 101)), 0},
		{"same cpu, slower", snapshot("cpu-a", "go1.x", x(200, 1000, 100)), 1},
		{"other cpu, slower", snapshot("cpu-b", "go1.x", x(200, 1000, 100)), 0},
		{"other cpu, more bytes", snapshot("cpu-b", "go1.x", x(90, 1011, 100)), 1},
		{"other cpu, more allocs", snapshot("cpu-b", "go1.x", x(90, 1000, 102)), 1},
		{"other go release, more allocs", snapshot("cpu-b", "go1.y", x(90, 2000, 200)), 0},
		{"repeats keep the minimum", snapshot("cpu-b", "go1.x", x(90, 5000, 500), x(95, 1000, 100)), 0},
	} {
		checked, failed := guard(io.Discard, base, c.cur, re, 0.05, false)
		if checked != 1 || failed != c.failed {
			t.Errorf("%s: checked %d, failed %d; want 1 checked, %d failed", c.name, checked, failed, c.failed)
		}
	}
	if _, failed := guard(io.Discard, base, snapshot("cpu-b", "go1.x", x(900, 9999, 999)), re, 0.05, true); failed != 0 {
		t.Errorf("report mode failed %d checks, want none", failed)
	}
}
