package operators

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
)

// SortResult reports a Sort run.
type SortResult struct {
	// Sorted holds the range-partitioned, locally sorted buckets in
	// ascending bucket (hence global key) order: concatenating them
	// yields the fully sorted dataset.
	Sorted    []*engine.Region
	Partition *PartitionResult
	// PartitionNs and ProbeNs split the operator runtime by phase.
	PartitionNs float64
	ProbeNs     float64
}

// Ns returns the operator's total runtime.
func (r *SortResult) Ns() float64 { return r.PartitionNs + r.ProbeNs }

// Sort globally sorts the dataset: a range-partitioning phase on the
// keys' high-order bits (so bucket i's keys all precede bucket i+1's,
// Table 2) followed by a local sort of every bucket — quicksort on the
// CPU, mergesort on the NMP systems (§6).
func Sort(e *engine.Engine, cfg Config, inputs []*engine.Region) (*SortResult, error) {
	if err := checkInputs(e, inputs); err != nil {
		return nil, err
	}
	total := totalLen(inputs)
	ks := SortKeySpace(cfg, inputs)
	part := Partitioner{
		Buckets:  bucketCount(e, cfg, total),
		KeySpace: ks,
		HighBits: true,
	}

	pres, err := PartitionPhase(e, cfg, inputs, part)
	if err != nil {
		return nil, err
	}
	res, err := SortProbe(e, cfg, pres.Buckets)
	if err != nil {
		return nil, err
	}
	res.Partition = pres
	res.PartitionNs = pres.Ns()
	return res, nil
}

// SortKeySpace returns the effective range-partitioner bound Sort uses:
// the configured KeySpace, or, when that is zero, one past the largest key
// present (real systems learn the range from statistics; the scan is free
// here because the histogram step re-reads the data anyway). Plan
// compilation calls it to decide whether an upstream range partition
// already matches the one Sort would build.
func SortKeySpace(cfg Config, inputs []*engine.Region) uint64 {
	ks := cfg.KeySpace
	if ks != 0 {
		return ks
	}
	for _, in := range inputs {
		for _, t := range in.Tuples {
			if uint64(t.Key) >= ks {
				ks = uint64(t.Key) + 1
			}
		}
	}
	if ks == 0 {
		ks = 1
	}
	return ks
}

// SortProbe runs the local-sort probe phase over already range-partitioned
// buckets: bucket i's keys must all precede bucket i+1's, with bucket b
// resident in vault b on the vault-partitioned architectures. Sort calls
// it after its partition phase; plan execution calls it directly when an
// upstream operator's output already carries the matching range partition,
// eliding the re-shuffle.
func SortProbe(e *engine.Engine, cfg Config, buckets []*engine.Region) (*SortResult, error) {
	cm := cfg.Costs
	res := &SortResult{}
	t1 := e.TotalNs()
	e.BeginPhase("probe")
	defer e.EndPhase()

	if e.Config().Arch == engine.CPU {
		// CPU probe: quicksort per probe group (consecutive range
		// buckets form a contiguous key range, so group-local sorts
		// still compose to a global order).
		groups := probeGroups(e, buckets)
		e.BeginStep(cm.QuicksortProfile)
		for g, group := range groups {
			regions := make([]*engine.Region, len(group))
			for i, b := range group {
				regions[i] = buckets[b]
			}
			quicksortSuper(unitForGroup(e, groups, g), cm, regions)
		}
		e.EndStep()
		res.Sorted = buckets
	} else {
		sorted, err := sortBuckets(e, cm, buckets)
		if err != nil {
			return nil, err
		}
		res.Sorted = sorted
	}
	e.Barrier()
	res.ProbeNs = e.TotalNs() - t1
	return res, nil
}
