package simulate

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/energy"
)

// This file assembles the paper's evaluation artifacts (§7) from raw runs:
//
//	Table 5 — partition-phase speedup vs CPU
//	Fig. 6  — probe-phase speedup vs CPU per operator
//	Fig. 7  — overall speedup vs CPU per operator
//	Fig. 8  — energy breakdown per system
//	Fig. 9  — efficiency (performance/energy) improvement vs CPU

// Suite memoizes experiment runs so the figures share the underlying
// (system, operator) results instead of re-simulating them. Cache misses
// go through Run and therefore the shared engine pool (pool.go): a full
// sweep constructs each system's engine once and reuses it across the
// four operators instead of rebuilding it per cell.
type Suite struct {
	Params Params
	cache  map[System]map[Operator]*Result
}

// NewSuite creates an empty suite for the given parameters.
func NewSuite(p Params) *Suite {
	return &Suite{Params: p, cache: make(map[System]map[Operator]*Result)}
}

// Get runs (or returns the cached) experiment for one system × operator.
func (su *Suite) Get(s System, op Operator) (*Result, error) {
	if m, ok := su.cache[s]; ok {
		if r, ok := m[op]; ok {
			return r, nil
		}
	}
	r, err := Run(s, op, su.Params)
	if err != nil {
		return nil, fmt.Errorf("%v/%v: %w", s, op, err)
	}
	if !r.Verified {
		return nil, fmt.Errorf("%v/%v: output verification failed", s, op)
	}
	if su.cache[s] == nil {
		su.cache[s] = make(map[Operator]*Result)
	}
	su.cache[s][op] = r
	return r, nil
}

// Table5Row is one row of the partition-speedup table.
type Table5Row struct {
	System            System
	SpeedupVsCPU      float64
	DistBWPerVaultGBs float64
	PartitionNs       float64
}

// Table5Systems are the configurations the paper compares for the
// partitioning phase.
func Table5Systems() []System { return []System{NMP, NMPPerm, MondrianNoPerm, Mondrian} }

// Table5 measures the Join operator's partitioning phase (the paper notes
// the partitioning phase is nearly identical across operators and reports
// Join's).
func (su *Suite) Table5() ([]Table5Row, error) {
	cpu, err := su.Get(CPU, OpJoin)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, 4)
	for _, s := range Table5Systems() {
		r, err := su.Get(s, OpJoin)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			System:            s,
			SpeedupVsCPU:      cpu.PartitionNs / r.PartitionNs,
			DistBWPerVaultGBs: r.DistBWPerVaultGBs,
			PartitionNs:       r.PartitionNs,
		})
	}
	return rows, nil
}

// FigSeries is one bar group of a per-operator figure.
type FigSeries struct {
	System   System
	Speedups map[Operator]float64
}

// Fig6Systems are the probe-phase configurations.
func Fig6Systems() []System { return []System{NMPRand, NMPSeq, Mondrian} }

// vsCPU builds one FigSeries per system, whose Speedups[op] is ratio
// applied to the CPU's and the system's results for op.
func (su *Suite) vsCPU(systems []System, ratio func(cpu, r *Result) float64) ([]FigSeries, error) {
	var out []FigSeries
	for _, s := range systems {
		series := FigSeries{System: s, Speedups: make(map[Operator]float64)}
		for _, op := range Operators() {
			cpu, err := su.Get(CPU, op)
			if err != nil {
				return nil, err
			}
			r, err := su.Get(s, op)
			if err != nil {
				return nil, err
			}
			series.Speedups[op] = ratio(cpu, r)
		}
		out = append(out, series)
	}
	return out, nil
}

// Fig6 measures probe-phase speedups over the CPU.
func (su *Suite) Fig6() ([]FigSeries, error) {
	return su.vsCPU(Fig6Systems(), func(cpu, r *Result) float64 { return cpu.ProbeNs / r.ProbeNs })
}

// Fig7Systems are the end-to-end configurations: the NMP baselines pair
// their partition variant with the best-performing probe (NMP-rand).
func Fig7Systems() []System { return []System{NMP, NMPPerm, Mondrian} }

// Fig7 measures overall (partition+probe) speedups over the CPU.
func (su *Suite) Fig7() ([]FigSeries, error) {
	return su.vsCPU(Fig7Systems(), func(cpu, r *Result) float64 { return cpu.TotalNs / r.TotalNs })
}

// Fig8Entry is one system's energy breakdown for one operator.
type Fig8Entry struct {
	System    System
	Operator  Operator
	Breakdown energy.Breakdown
}

// Fig8Systems are the energy-comparison configurations.
func Fig8Systems() []System { return []System{CPU, NMP, NMPPerm, Mondrian} }

// Fig8 measures the energy breakdown of every system × operator.
func (su *Suite) Fig8() ([]Fig8Entry, error) {
	var out []Fig8Entry
	for _, op := range Operators() {
		for _, s := range Fig8Systems() {
			r, err := su.Get(s, op)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig8Entry{System: s, Operator: op, Breakdown: r.Energy})
		}
	}
	return out, nil
}

// Fig9 measures efficiency (performance per energy) improvement vs CPU.
func (su *Suite) Fig9() ([]FigSeries, error) {
	return su.vsCPU([]System{NMP, NMPPerm, Mondrian}, func(cpu, r *Result) float64 {
		return r.Efficiency() / cpu.Efficiency()
	})
}
