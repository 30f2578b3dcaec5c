// Package simulate assembles the paper's evaluated systems and runs the
// operator experiments that regenerate every table and figure of §7.
//
// Evaluated configurations (§6 "Evaluated configurations"):
//
//	CPU             — CPU-centric baseline (radix hash algorithms)
//	NMP             — NMP baseline, conventional partitioning, hash probe
//	NMP-perm        — NMP cores + permutable partitioning, hash probe
//	NMP-rand        — NMP probe with the hash (random-access) algorithms
//	NMP-seq         — NMP probe with the sort (sequential) algorithms
//	Mondrian-noperm — Mondrian SIMD units without permutability
//	Mondrian        — the full co-design
package simulate

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Params fixes the experimental setup (Table 3 scaled to the simulation
// budget: speedups are ratios and the model is scale-invariant, so the
// dataset is a configurable fraction of the paper's 32 GB). It is two
// halves: SimParams, everything that can change a simulated result, and
// HostParams, how the host executes it. Run manifests record SimParams
// verbatim and leave HostParams out.
type Params struct {
	SimParams
	HostParams
	// Obs, when non-nil, enables the observability layer: Run collects
	// every deterministic run statistic into this registry and populates
	// Result.Phases/Spans. nil (the default) costs nothing. Excluded from
	// JSON because a registry is state, not configuration.
	Obs *obs.Registry `json:"-"`
}

// SimParams is the simulated configuration: every field can change a
// simulated result, so a run manifest records all of them. Struct fields
// marshal in declaration order, keeping the JSON deterministic.
type SimParams struct {
	Cubes     int `json:"cubes"`
	VaultsPer int `json:"vaults_per"`
	CPUCores  int `json:"cpu_cores"`
	// VaultCapBytes sizes each vault's DRAM (the real HMC vault is
	// 512 MB; experiments allocate datasets plus scratch within it).
	VaultCapBytes int64 `json:"vault_cap_bytes"`
	// STuples is the large-relation cardinality (also the Scan/Sort/
	// Group-by input size); RTuples the small join relation.
	STuples int `json:"s_tuples"`
	RTuples int `json:"r_tuples"`
	// GroupSize is the Group-by average group size (4 in the paper).
	GroupSize int `json:"group_size"`
	// KeySpace bounds keys; must be a power of two for range math.
	KeySpace uint64 `json:"key_space"`
	// CPUBuckets is the CPU's radix partition count. The paper's CPU
	// code hashes the keys' 16 low-order bits (2^16 partitions)
	// regardless of dataset size; 0 selects cache-targeted auto-sizing.
	CPUBuckets int   `json:"cpu_buckets"`
	Seed       int64 `json:"seed"`
	// BarrierNs is the all-to-all notification cost (§5.4).
	BarrierNs float64 `json:"barrier_ns"`
	// Energy holds the Table 4 constants.
	Energy energy.Params `json:"energy"`
	// SkewAware selects exact provisioning: the partition phase sizes its
	// destination buffers from the exact exchanged histograms instead of
	// surfacing ErrPartitionOverflow to the §5.4 overflow-retry loop. On
	// inputs where the default path succeeds, report JSON is
	// byte-identical with the flag on or off; only the
	// phase_load_max/phase_load_mean observability gauges are added.
	SkewAware bool `json:"skew_aware"`
	// ZipfS selects skewed workloads: 0 (the default) keeps the uniform
	// generators; a finite exponent > 1 draws the Scan/Sort/Group-by
	// input keys (and the Join probe relation's foreign keys) from a
	// Zipf distribution with that exponent.
	ZipfS float64 `json:"zipf_s"`
	// Overprovision scales the partition phase's destination-buffer
	// estimate (0 = the operator default of 2×). Skewed workloads need
	// more; skew-aware runs provision exactly and ignore the shortfall.
	Overprovision float64 `json:"overprovision"`
	// NoFusion disables the query-plan compiler's re-shuffle elision:
	// every plan stage re-partitions its inputs from scratch, reproducing
	// staged one-operator-at-a-time execution. Output multisets are
	// identical either way — fusion changes simulated cost, never
	// results. Ignored by single-operator runs; plan manifests also
	// record it as a "+staged" operator suffix.
	NoFusion bool `json:"no_fusion"`
}

// HostParams is how the host executes a run. Results are byte-identical
// at every setting; only wall-clock time changes, so run manifests leave
// these out. NoBulk and NoPool select the reference paths the
// differential tests compare against.
type HostParams struct {
	// Parallelism bounds the host worker pool executing per-vault work
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// NoBulk disables the engine's run-based bulk access fast path: run
	// accessors expand to per-element accesses and the operators' per-tuple
	// reference loops run (engine.Config.NoBulk).
	NoBulk bool
	// NoPool disables engine pooling: every run constructs a fresh engine
	// with engine.New and discards it. Pooling (the default) acquires a
	// reset engine from the shared pool and releases it after the run
	// (TestResetEquivalence asserts the two agree byte for byte).
	NoPool bool
}

// DefaultParams returns the paper's system shape (4 cubes × 16 vaults,
// 16 CPU cores) with a laptop-scale dataset.
func DefaultParams() Params {
	return Params{SimParams: SimParams{
		Cubes:         4,
		VaultsPer:     16,
		CPUCores:      16,
		VaultCapBytes: 64 << 20,
		STuples:       1 << 19, // 512Ki tuples = 8 MB
		RTuples:       1 << 18,
		GroupSize:     4,
		KeySpace:      1 << 24,
		Seed:          42,
		CPUBuckets:    1 << 16,
		BarrierNs:     2000,
		Energy:        energy.DefaultParams(),
	}}
}

// TestParams returns a shrunken setup for fast tests.
func TestParams() Params {
	p := DefaultParams()
	p.Cubes = 2
	p.VaultsPer = 4
	p.CPUCores = 4
	p.VaultCapBytes = 32 << 20
	// Large enough that the per-vault hash tables exceed the L1 caches
	// (the regime every probe-phase comparison of §7 lives in), small
	// enough for sub-second runs.
	p.STuples = 1 << 16
	p.RTuples = 1 << 15
	p.KeySpace = 1 << 20
	p.CPUBuckets = 1 << 12
	return p
}

// geometry derives the per-vault DRAM geometry.
func (p Params) geometry() dram.Geometry {
	g := dram.HMCGeometry()
	g.CapacityBytes = p.VaultCapBytes
	return g
}

// EngineConfig builds the engine configuration for a system: the
// registered identity template (registry.go) plus this Params'
// experiment-owned fields. It panics on an unregistered System handle;
// Run validates first and returns a typed *ParamError instead.
func (p Params) EngineConfig(s System) engine.Config {
	sp, ok := SpecOf(s)
	if !ok {
		panic(fmt.Sprintf("simulate: unknown system %v", s))
	}
	cfg := sp.Engine
	cfg.Cubes = p.Cubes
	cfg.VaultsPer = p.VaultsPer
	cfg.Geometry = p.geometry()
	cfg.Timing = dram.HMCTiming()
	cfg.ObjectSize = tuple.Size
	cfg.BarrierNs = p.BarrierNs
	cfg.Parallelism = p.Parallelism
	cfg.NoBulk = p.NoBulk
	cfg.Obs = p.Obs
	if cfg.Arch == engine.CPU {
		cfg.CPUCores = p.CPUCores
	}
	return cfg
}

// OperatorConfig builds the operator configuration for a system from its
// registered spec: the CPU and NMP-rand run the hash algorithms, NMP-seq
// and the Mondrian variants the sort-based ones (§6), and the Mondrian
// architecture's SIMD units take the Mondrian cost table.
func (p Params) OperatorConfig(s System) operators.Config {
	cfg := operators.Config{Costs: operators.DefaultCosts(), KeySpace: p.KeySpace,
		CPUBuckets: p.CPUBuckets, SkewAware: p.SkewAware,
		Overprovision: p.Overprovision}
	if sp, ok := SpecOf(s); ok {
		if sp.Engine.Arch == engine.Mondrian {
			cfg.Costs = operators.MondrianCosts()
		}
		cfg.SortProbe = sp.SortProbe
	}
	return cfg
}
