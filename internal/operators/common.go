package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// Config selects the algorithmic variant an operator runs with.
type Config struct {
	// Costs is the instruction cost model (DefaultCosts / MondrianCosts).
	Costs CostModel
	// SortProbe selects the sequential-access, sort-based probe
	// algorithms (NMP-seq and Mondrian) instead of the random-access,
	// hash-based ones (CPU and NMP-rand).
	SortProbe bool
	// KeySpace is the exclusive upper bound of input keys (needed by the
	// range partitioner of Sort).
	KeySpace uint64
	// CPUBuckets overrides the CPU's cache-sized partition count
	// (0 = CPUPartitionCount auto-sizing).
	CPUBuckets int
	// Overprovision scales the destination-buffer estimate of the
	// partitioning phase (the CPU's "best-effort overprovisioned
	// estimation", §5.3). Zero selects the default factor of 2. Skewed
	// datasets overflow the default and surface ErrPartitionOverflow
	// for the CPU to handle (§5.4) — retry with a larger factor.
	Overprovision float64
	// SkewAware selects exact provisioning (see DESIGN.md §13): the
	// partition phase sizes destination buffers from the exact exchanged
	// histograms instead of raising ErrPartitionOverflow for the §5.4
	// overflow-retry loop, and reports the destination-load spread. All
	// simulated quantities stay byte-identical to a skew-unaware run that
	// succeeds at the same Overprovision.
	SkewAware bool
}

// overprovision returns the destination-buffer slack factor.
func (c Config) overprovision() float64 {
	if c.Overprovision > 0 {
		return c.Overprovision
	}
	return defaultOverprovision
}

// cpuProbeTuples is the partition size the CPU's probe phase works on.
// The paper's CPU probes 2^16-way radix partitions of a 32 GB dataset —
// ~32 Ki tuples (512 KB) each. At reduced dataset scale the 2^16-way
// buckets become unrealistically cache-resident, so the probe phase
// groups consecutive radix buckets into partitions of this many tuples
// (still a valid co-partition of the key space), reproducing the paper's
// probe working-set regime.
const cpuProbeTuples = 32 << 10

// isSIMD reports whether the engine's compute units have SIMD datapaths.
func isSIMD(e *engine.Engine) bool { return e.Config().Core.SIMDBits > 0 }

// streamed adapts a step profile for stream-buffer-fed execution: the
// binding prefetcher hides load latency entirely, so no stall overlap
// modeling applies. (Issue-rate effects stay in the profile's DepIPC.)
func streamed(p engine.StepProfile) engine.StepProfile {
	p.StreamFed = true
	p.MLPOverride = 0
	return p
}

// scanProfile / mergeProfile pick the scalar or SIMD loop profile and
// adapt it for streaming.
func scanProfile(e *engine.Engine, cm CostModel) engine.StepProfile {
	if isSIMD(e) {
		return probeProfile(e, cm.SIMDScanProfile)
	}
	return probeProfile(e, cm.ScanProfile)
}

func mergeProfile(e *engine.Engine, cm CostModel) engine.StepProfile {
	if isSIMD(e) {
		return probeProfile(e, cm.SIMDMergeProfile)
	}
	return probeProfile(e, cm.MergeProfile)
}

// probeProfile picks the step profile for a probe loop, adapting it when
// the units read through hardware stream buffers.
func probeProfile(e *engine.Engine, base engine.StepProfile) engine.StepProfile {
	if e.StreamFed() {
		return streamed(base)
	}
	return base
}

// bucketCount picks the number of partition buckets for the architecture:
// one per vault on NMP systems (the keys' 6 bits in the paper), cache-
// sized buckets on the CPU (the keys' 16 low-order bits).
func bucketCount(e *engine.Engine, cfg Config, totalTuples int) int {
	if e.Config().Arch != engine.CPU {
		return e.NumVaults()
	}
	if cfg.CPUBuckets > 0 {
		return cfg.CPUBuckets
	}
	return CPUPartitionCount(totalTuples, len(e.Units()))
}

// unitForBucket returns the unit that probes bucket b.
func unitForBucket(e *engine.Engine, b int) *engine.Unit {
	if e.Config().Arch == engine.CPU {
		return e.Units()[b%len(e.Units())]
	}
	return e.UnitForVault(b)
}

// probeGroups partitions the bucket list into probe units: one bucket per
// group on the vault-resident systems (a vault's bucket is its probe
// working set), and runs of consecutive radix buckets totalling
// ~cpuProbeTuples on the CPU. Consecutive hash buckets form a valid
// coarser partition of the key space, so grouping preserves
// co-partitioning and range order.
func probeGroups(e *engine.Engine, buckets []*engine.Region) [][]int {
	if e.Config().Arch != engine.CPU {
		groups := make([][]int, len(buckets))
		for i := range buckets {
			groups[i] = []int{i}
		}
		return groups
	}
	target := cpuProbeTuples
	// Never leave CPU cores idle: with small datasets, shrink groups so
	// there is at least one per core.
	total := totalLen(buckets)
	if perCore := total / len(e.Units()); perCore > 0 && perCore < target {
		target = perCore
	}
	var groups [][]int
	var cur []int
	n := 0
	for i, b := range buckets {
		cur = append(cur, i)
		n += b.Len()
		if n >= target {
			groups = append(groups, cur)
			cur, n = nil, 0
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// unitForGroup returns the unit that probes group g.
func unitForGroup(e *engine.Engine, groups [][]int, g int) *engine.Unit {
	if e.Config().Arch == engine.CPU {
		return e.Units()[g%len(e.Units())]
	}
	return e.UnitForVault(groups[g][0])
}

// totalLen sums region lengths.
func totalLen(rs []*engine.Region) int {
	n := 0
	for _, r := range rs {
		n += r.Len()
	}
	return n
}

// checkInputs validates the canonical one-region-per-vault input shape.
func checkInputs(e *engine.Engine, inputs []*engine.Region) error {
	if len(inputs) != e.NumVaults() {
		return fmt.Errorf("operators: %d input regions for %d vaults", len(inputs), e.NumVaults())
	}
	for v, r := range inputs {
		if r.Vault.ID != v {
			return fmt.Errorf("operators: input %d resides in vault %d", v, r.Vault.ID)
		}
	}
	return nil
}

// sortBuckets runs the mergesort probe machinery over all buckets in
// lockstep passes (every unit works on its bucket within each step, so the
// barrier-synchronized step timing matches the parallel execution). It
// returns the regions holding each bucket's sorted data.
func sortBuckets(e *engine.Engine, cm CostModel, buckets []*engine.Region) ([]*engine.Region, error) {
	simd := isSIMD(e)
	n := len(buckets)
	scratch := make([]*engine.Region, n)
	for i, b := range buckets {
		s, err := e.AllocOut(b.Vault.ID, max(b.Len(), 1))
		if err != nil {
			return nil, err
		}
		scratch[i] = s
	}

	runProfile := engine.StepProfile{Name: "form-runs", DepIPC: 1.5, InstPerAccess: 4}
	if simd {
		runProfile.DepIPC = 2
	}
	e.BeginStep(probeProfile(e, runProfile))
	if err := e.ForEachTask(n, func(i int) error {
		return formRuns(unitForBucket(e, i), cm, buckets[i], simd)
	}); err != nil {
		return nil, err
	}
	e.EndStep()

	src := make([]*engine.Region, n)
	dst := make([]*engine.Region, n)
	runLen := make([]int, n)
	maxPasses := 0
	for i, b := range buckets {
		src[i], dst[i] = b, scratch[i]
		runLen[i] = cm.InitialRunLen
		if p := MergePasses(b.Len(), cm.InitialRunLen, cm.MergeFanIn); p > maxPasses {
			maxPasses = p
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		e.BeginStep(mergeProfile(e, cm))
		if err := e.ForEachTask(n, func(i int) error {
			if runLen[i] >= max(src[i].Len(), 1) {
				return nil // this bucket is already sorted
			}
			dst[i].Reset()
			if err := mergePass(unitForBucket(e, i), cm, src[i], dst[i], runLen[i], cm.MergeFanIn, simd); err != nil {
				return err
			}
			src[i], dst[i] = dst[i], src[i]
			runLen[i] *= cm.MergeFanIn
			return nil
		}); err != nil {
			return nil, err
		}
		e.EndStep()
	}
	return src, nil
}
