package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// LSD radix sort — an alternative sequential-access sort for the probe
// phase, provided for the algorithm-space ablation
// (BenchmarkAblationSortAlgorithm). Like mergesort it trades extra passes
// for predictable access patterns, but its scatter writes fan out over
// 256 digit runs per pass instead of merging 2–8 sequential streams:
// reads stream perfectly, writes see moderate row locality (each digit
// run is locally sequential). The comparison quantifies why the paper
// picks mergesort for the stream-buffer hardware: a merge consumes ≤8
// sequential inputs — exactly what eight stream buffers support — while a
// 256-way scatter would need 256 write streams.

// radixDigitBits is the digit width (8 → 256 buckets, on-chip counters).
const radixDigitBits = 8

// RadixPasses returns how many byte passes cover the key space.
func RadixPasses(keySpace uint64) int {
	passes := 0
	for ks := keySpace - 1; ks > 0; ks >>= radixDigitBits {
		passes++
	}
	if passes == 0 {
		passes = 1
	}
	return passes
}

// radixSortLocal sorts one bucket with LSD radix sort, ping-ponging
// between the bucket and scratch. Each pass streams the source and
// scatters to 256 digit runs in the destination. Returns the region
// holding the sorted result.
func radixSortLocal(u *engine.Unit, cm CostModel, r, scratch *engine.Region, keySpace uint64, simd bool) (*engine.Region, error) {
	n := r.Len()
	if scratch.Cap() < n {
		return nil, fmt.Errorf("operators: scratch capacity %d < %d", scratch.Cap(), n)
	}
	if n == 0 {
		return r, nil
	}
	insts := cm.RadixInsts
	if simd {
		insts /= cm.SIMDHistFactor // digit extraction vectorizes like hashing
	}
	src, dst := r, scratch
	passes := RadixPasses(keySpace)
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixDigitBits)
		// Counting pass: stream the source, 256 on-chip counters.
		var counts [1 << radixDigitBits]int
		readers, err := u.OpenStreams(src)
		if err != nil {
			return nil, err
		}
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(insts)
			counts[(uint64(t.Key)>>shift)&0xff]++
		}
		var offsets [1 << radixDigitBits]int
		run := 0
		for d := 0; d < 1<<radixDigitBits; d++ {
			offsets[d] = run
			run += counts[d]
		}
		// Scatter pass: stream the source again, write each tuple into
		// its digit run (stable).
		dst.Reset()
		ensureCap(dst, n)
		readers, err = u.OpenStreams(src)
		if err != nil {
			return nil, err
		}
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(insts)
			d := (uint64(t.Key) >> shift) & 0xff
			u.StoreTuple(dst, offsets[d], t)
			offsets[d]++
		}
		src, dst = dst, src
	}
	return src, nil
}

// ensureCap sets the region's functional length to n (new slots zeroed)
// so StoreTuple can place out of order.
func ensureCap(r *engine.Region, n int) {
	if old := r.Len(); old < n {
		r.Reserve(n - old)
		r.Tuples = r.Tuples[:n]
		clear(r.Tuples[old:])
	}
	r.Tuples = r.Tuples[:n]
}

// RadixSortBuckets sorts every bucket with LSD radix sort in lockstep
// passes (the ablation twin of the mergesort path used by sortBuckets).
func RadixSortBuckets(e *engine.Engine, cm CostModel, buckets []*engine.Region, keySpace uint64) ([]*engine.Region, error) {
	simd := isSIMD(e)
	out := make([]*engine.Region, len(buckets))
	// Scratch allocation stays serial: on the CPU several buckets can share
	// a vault, and the bump allocator is not safe (or deterministic) under
	// concurrent allocation.
	scratches := make([]*engine.Region, len(buckets))
	for i, b := range buckets {
		s, err := e.AllocOut(b.Vault.ID, maxInt(b.Len(), 1))
		if err != nil {
			return nil, err
		}
		scratches[i] = s
	}
	e.BeginStep(probeProfile(e, engine.StepProfile{Name: "radix-sort", DepIPC: 1.2, InstPerAccess: 3}))
	if err := e.ForEachTaskWeighted(len(buckets), stealWeights(e, buckets), func(i int) error {
		sorted, err := radixSortLocal(unitForBucket(e, i), cm, buckets[i], scratches[i], keySpace, simd)
		if err != nil {
			return err
		}
		out[i] = sorted
		return nil
	}); err != nil {
		return nil, err
	}
	e.EndStep()
	return out, nil
}

// SortBucketsForBench exposes the mergesort bucket path to the benchmark
// harness (the ablation twin of RadixSortBuckets).
func SortBucketsForBench(e *engine.Engine, cm CostModel, buckets []*engine.Region) ([]*engine.Region, error) {
	return sortBuckets(e, cm, buckets)
}
