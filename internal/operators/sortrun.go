package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// The sorting machinery of the probe phase. Two algorithms exist, per the
// paper's central algorithm tradeoff (§4.1.1):
//
//   - quicksort: the CPU-preferred algorithm. Buckets are sized to fit the
//     private caches, so after one streaming load the O(n log n) compare
//     work runs cache-resident.
//   - mergesort: the NMP-preferred algorithm. An initial in-register
//     bitonic pass builds sorted runs of InitialRunLen tuples (§5.2:
//     "reduces the required number of passes by four"), then log_fanIn
//     sequential merge passes ping-pong between the bucket and a scratch
//     region. On Mondrian the runs stream through the stream buffers
//     (fan-in 8, one buffer per run) and the merge network is SIMD.

// quicksortLocal sorts one bucket with the CPU algorithm. It charges one
// streaming read of the bucket (which also warms the caches), the compare
// work, and one write pass.
func quicksortLocal(u *engine.Unit, cm CostModel, r *engine.Region) {
	n := r.Len()
	if n == 0 {
		return
	}
	if u.Bulk() {
		u.LoadRun(r, 0, n)
		tuple.SortSliceByKey(r.Tuples)
		u.Charge(float64(n) * log2ceil(n) * cm.QuicksortInsts)
		u.StoreRun(r, 0, r.Tuples)
		return
	}
	for i := 0; i < n; i++ {
		u.LoadTuple(r, i)
	}
	tuple.SortSliceByKey(r.Tuples)
	u.Charge(float64(n) * log2ceil(n) * cm.QuicksortInsts)
	for i := 0; i < n; i++ {
		u.StoreTuple(r, i, r.Tuples[i])
	}
}

// quicksortSuper sorts the concatenation of several consecutive regions
// in place (the CPU's probe-group sort): one streaming load of every
// region, the O(n log n) compare work over the full group working set,
// and one streaming store back.
func quicksortSuper(u *engine.Unit, cm CostModel, regions []*engine.Region) {
	if u.Bulk() {
		total := 0
		for _, r := range regions {
			total += r.Len()
		}
		if total == 0 {
			return
		}
		all := make([]tuple.Tuple, 0, total)
		for _, r := range regions {
			all = append(all, u.LoadRun(r, 0, r.Len())...)
		}
		tuple.SortSliceByKey(all)
		u.Charge(float64(total) * log2ceil(total) * cm.QuicksortInsts)
		k := 0
		for _, r := range regions {
			u.StoreRun(r, 0, all[k:k+r.Len()])
			k += r.Len()
		}
		return
	}
	var all []tuple.Tuple
	for _, r := range regions {
		for i := 0; i < r.Len(); i++ {
			all = append(all, u.LoadTuple(r, i))
		}
	}
	n := len(all)
	if n == 0 {
		return
	}
	tuple.SortSliceByKey(all)
	u.Charge(float64(n) * log2ceil(n) * cm.QuicksortInsts)
	k := 0
	for _, r := range regions {
		for i := 0; i < r.Len(); i++ {
			u.StoreTuple(r, i, all[k])
			k++
		}
	}
}

// log2ceil returns ceil(log2(n)) as a float, with log2ceil(≤1) = 1.
func log2ceil(n int) float64 {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits < 1 {
		bits = 1
	}
	return float64(bits)
}

// MergePasses returns how many merge passes sorting n tuples takes with
// the given initial run length and fan-in (exposed for the ablation
// benches and EXPERIMENTS.md math).
func MergePasses(n, initialRun, fanIn int) int {
	if n <= initialRun {
		return 0
	}
	passes := 0
	run := initialRun
	for run < n {
		run *= fanIn
		passes++
	}
	return passes
}

// formRuns performs the initial run-formation pass: a streaming read of
// the bucket, in-register sorting of InitialRunLen-tuple groups, and a
// streaming write. SIMD units run the bitonic network of [8]; scalar
// cores insertion-sort the group.
func formRuns(u *engine.Unit, cm CostModel, r *engine.Region, simd bool) error {
	n := r.Len()
	if n == 0 {
		return nil
	}
	g := u.StreamGroup()
	g.AddView(r, 0, n)
	readers, err := g.Open()
	if err != nil {
		return err
	}
	in := readers[0]
	var out []tuple.Tuple
	if u.Bulk() {
		// The read pass fully precedes the write pass and NextRun hands
		// back the region's own storage, so the whole bucket streams in as
		// one run and the groups sort in place (identical contents and
		// comparator → identical permutations).
		run := in.NextRun(n)
		for g := 0; g < n; g += cm.InitialRunLen {
			end := g + cm.InitialRunLen
			if end > n {
				end = n
			}
			tuple.SortSliceByKey(run[g:end])
		}
	} else {
		out = make([]tuple.Tuple, 0, n)
		for !in.Done() {
			group := make([]tuple.Tuple, 0, cm.InitialRunLen)
			for len(group) < cm.InitialRunLen {
				t, ok := in.Next()
				if !ok {
					break
				}
				group = append(group, t)
			}
			tuple.SortSliceByKey(group)
			out = append(out, group...)
		}
	}
	if simd {
		// Bitonic sort of 16-tuple groups: log2(16)·(log2(16)+1)/2 = 10
		// compare-exchange stages over 2 SIMD vectors ≈ BitonicInsts/tuple.
		u.Charge(float64(n) * cm.BitonicInsts)
	} else {
		// Insertion sort of each group: ~log2(runLen)·Quicksort-like work.
		u.Charge(float64(n) * log2ceil(cm.InitialRunLen) * cm.QuicksortInsts)
	}
	if u.Bulk() {
		u.WriteRunBytes(r.Addr, tuple.Size, n)
		return nil
	}
	for i := range out {
		r.Tuples[i] = out[i]
		u.WriteBytes(r.Addr+int64(i)*tuple.Size, tuple.Size)
	}
	return nil
}

// mergePass merges sorted runs of runLen from src into dst, fanIn at a
// time, charging per-tuple merge work. dst must be empty with capacity
// ≥ src.Len(); its host storage is reserved once, and the unit's stream
// group carries the per-group views and readers, so a warm pass does not
// allocate.
func mergePass(u *engine.Unit, cm CostModel, src, dst *engine.Region, runLen, fanIn int, simd bool) error {
	if dst.Len() != 0 {
		return fmt.Errorf("operators: merge destination not empty")
	}
	n := src.Len()
	dst.Reserve(n)
	insts := cm.MergeInsts
	if simd {
		insts = cm.SIMDMergeInsts
	}
	// The merge interleave is data-dependent, so pops stay per-tuple. On
	// stream-buffer units, though, pops themselves are free — only the
	// granule refills touch DRAM — so the strictly sequential output
	// appends between two refills can retire as one run: charging the
	// pending appends right before each refill-triggering pop preserves
	// the exact DRAM access order of the per-tuple loop. (Cache-backed
	// units issue a demand read per pop, so their appends cannot batch.)
	charged := 0 // dst's tuples below this index are charged
	// Cached stream heads, scanned instead of re-Peeking; fan-ins up to 16
	// keep them on the stack.
	var keyBuf [16]tuple.Key
	var liveBuf [16]bool
	keys, live := keyBuf[:0], liveBuf[:0]
	flush := func() {
		if k := dst.Len() - charged; k > 0 {
			u.ChargeRun(insts, k)
			u.ChargeAppendsLocal(dst, charged)
			charged = dst.Len()
		}
	}
	for groupStart := 0; groupStart < n; groupStart += runLen * fanIn {
		g := u.StreamGroup()
		for r := 0; r < fanIn; r++ {
			s := groupStart + r*runLen
			if s >= n {
				break
			}
			g.AddView(src, s, min(s+runLen, n))
		}
		readers, err := g.Open()
		if err != nil {
			return err
		}
		batched := u.Bulk() && len(readers) > 0 && readers[0].Streamed()
		keys, live = keys[:0], live[:0]
		for _, rd := range readers {
			t, ok := rd.Peek()
			keys = append(keys, t.Key)
			live = append(live, ok)
		}
		for {
			best := -1
			var bestKey tuple.Key
			for i := range keys {
				if live[i] && (best == -1 || keys[i] < bestKey) {
					best, bestKey = i, keys[i]
				}
			}
			if best == -1 {
				break
			}
			if batched {
				if readers[best].NextFills() {
					flush()
				}
				t, _ := readers[best].Next()
				dst.Tuples = append(dst.Tuples, t)
			} else {
				t, _ := readers[best].Next()
				u.Charge(insts)
				u.AppendLocal(dst, t)
				charged++
			}
			t, ok := readers[best].Peek()
			keys[best], live[best] = t.Key, ok
		}
		flush()
	}
	return nil
}

// mergesortLocal sorts one bucket with the NMP algorithm, ping-ponging
// between the bucket and a same-vault scratch region. It returns the
// region holding the sorted result (either r or scratch).
func mergesortLocal(u *engine.Unit, cm CostModel, r, scratch *engine.Region, simd bool) (*engine.Region, error) {
	n := r.Len()
	if scratch.Cap() < n {
		return nil, fmt.Errorf("operators: scratch capacity %d < %d", scratch.Cap(), n)
	}
	if err := formRuns(u, cm, r, simd); err != nil {
		return nil, err
	}
	src, dst := r, scratch
	for runLen := cm.InitialRunLen; runLen < n; runLen *= cm.MergeFanIn {
		dst.Reset()
		if err := mergePass(u, cm, src, dst, runLen, cm.MergeFanIn, simd); err != nil {
			return nil, err
		}
		src, dst = dst, src
	}
	return src, nil
}
