package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Partitioner maps keys to destination buckets. Join and Group-by hash on
// low-order key bits; Sort range-partitions on high-order bits so bucket i
// holds keys strictly smaller than bucket i+1's (Table 2, §6).
type Partitioner struct {
	Buckets  int
	KeySpace uint64 // exclusive upper bound of keys; needed for HighBits
	HighBits bool
}

// Bucket returns the destination bucket of a key.
func (p Partitioner) Bucket(k tuple.Key) int {
	if p.HighBits {
		b := int(uint64(k) * uint64(p.Buckets) / p.KeySpace)
		if b >= p.Buckets {
			b = p.Buckets - 1
		}
		return b
	}
	return int(uint64(k) % uint64(p.Buckets))
}

// PartitionResult carries the partitioning phase's outputs and timing.
type PartitionResult struct {
	// Buckets holds one region per destination bucket. On the NMP
	// architectures there is exactly one bucket per vault; on the CPU
	// there are Partitioner.Buckets cache-sized buckets spread over the
	// memory space.
	Buckets []*engine.Region
	// HistogramNs and DistributeNs split the phase's runtime.
	HistogramNs  float64
	DistributeNs float64
	// Steps are the engine step timings of the phase.
	Steps []engine.StepTiming
	// Skew carries the heavy-hitter detector's observations on skew-aware
	// runs; nil otherwise. Host-side only — never feeds simulated state.
	Skew *SkewReport
}

// Ns returns the phase's total runtime.
func (p *PartitionResult) Ns() float64 { return p.HistogramNs + p.DistributeNs }

// defaultOverprovision and bucketSlack size destination buffers — the
// CPU's "best-effort overprovisioned estimation" (§5.3). The constant
// slack absorbs the Poisson tail of small buckets.
const (
	defaultOverprovision = 2
	bucketSlack          = 64
)

// ErrPartitionOverflow wraps the vault controller's overflow exception.
var ErrPartitionOverflow = hmc.ErrRegionOverflow

// PartitionPhase redistributes the input tuples into buckets. Inputs are
// one region per vault (the initial random distribution of the dataset);
// the phase performs the histogram build, the histogram exchange
// (ShuffleBegin), the interleaved data distribution of Fig. 2, and the
// completion barrier (ShuffleEnd).
func PartitionPhase(e *engine.Engine, cfg Config, inputs []*engine.Region, part Partitioner) (*PartitionResult, error) {
	if len(inputs) != e.NumVaults() {
		return nil, fmt.Errorf("operators: %d input regions for %d vaults", len(inputs), e.NumVaults())
	}
	e.BeginPhase("partition")
	defer e.EndPhase()
	if e.Config().Arch == engine.CPU {
		return cpuPartition(e, cfg, inputs, part)
	}
	return nmpPartition(e, cfg, inputs, part)
}

// histTraffic charges histogram-counter memory traffic when the histogram
// cannot live on chip (8 B read-modify-write per tuple).
func histTraffic(u *engine.Unit, cm CostModel, histAddr int64, buckets, bucket int) {
	if buckets*8 <= cm.OnChipHistogramBytes {
		return
	}
	a := histAddr + int64(bucket)*8
	u.ReadBytes(a, 8)
	u.WriteBytes(a, 8)
}

// distInsts selects the per-tuple distribution instruction cost for the
// engine's architecture and feature set.
func distInsts(e *engine.Engine, cm CostModel) (insts float64, profile engine.StepProfile) {
	cfg := e.Config()
	simd := cfg.Core.SIMDBits > 0
	switch {
	case cfg.Permutable && simd: // Mondrian: SIMD across the whole loop
		p := cm.DistPermProfile
		p.Name = "distribute-permutable-simd"
		p.DepIPC = 2
		return cm.DistPermInsts / cm.SIMDDistFactor, p
	case cfg.Permutable: // NMP-perm
		return cm.DistPermInsts, cm.DistPermProfile
	case simd: // Mondrian-noperm: SIMD hash, scalar scatter + cursors
		p := cm.DistConvProfile
		p.Name = "distribute-conventional-simd"
		p.DepIPC = 0.65
		return cm.DistConvInsts / cm.SIMDDistScatterFactor, p
	default: // CPU, NMP
		return cm.DistConvInsts, cm.DistConvProfile
	}
}

// nmpPartition runs the phase on the vault-resident architectures.
func nmpPartition(e *engine.Engine, cfg Config, inputs []*engine.Region, part Partitioner) (*PartitionResult, error) {
	cm := cfg.Costs
	nv := e.NumVaults()
	if part.Buckets != nv {
		return nil, fmt.Errorf("operators: NMP partitioning needs one bucket per vault (%d != %d)", part.Buckets, nv)
	}
	total := 0
	for _, in := range inputs {
		total += in.Len()
	}
	capPer := int(float64(total/nv)*cfg.overprovision()) + bucketSlack
	res := &PartitionResult{}
	t0 := e.TotalNs()

	histInsts := cm.HistogramInsts
	if isSIMD(e) {
		histInsts /= cm.SIMDHistFactor
	}

	// Step 1: histogram build, every unit streaming its local partition.
	// Per-vault histograms are 64 counters (512 B) and live on chip.
	// Skew-aware runs additionally feed a sampled SpaceSaving sketch per
	// source — host-side bookkeeping with no charges, each sketch owned
	// exclusively by its source unit.
	perSource := make([][]int64, nv)
	var sketches []*SpaceSaving
	stride := cfg.skewSampleStride()
	if cfg.SkewAware {
		sketches = make([]*SpaceSaving, nv)
		for v := range sketches {
			sketches[v] = NewSpaceSaving(cfg.skewSketchSize())
		}
	}
	e.BeginStep(probeProfile(e, cm.HistogramProfile))
	if err := e.ForEachVaultWeighted(stealWeights(e, inputs), func(v int, u *engine.Unit) error {
		perSource[v] = make([]int64, nv)
		readers, err := u.OpenStreams(inputs[v])
		if err != nil {
			return err
		}
		if u.Bulk() {
			// Pure sequential read: the whole partition streams in as one
			// run; counting is functional and the charges are the same
			// constant, so batching preserves every accumulator exactly.
			ts := readers[0].NextRun(inputs[v].Len())
			for i := range ts {
				perSource[v][part.Bucket(ts[i].Key)]++
			}
			if sketches != nil {
				for i := 0; i < len(ts); i += stride {
					sketches[v].Offer(uint64(ts[i].Key))
				}
			}
			u.ChargeRun(histInsts, len(ts))
			return nil
		}
		i := 0
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			perSource[v][part.Bucket(t.Key)]++
			if sketches != nil && i%stride == 0 {
				sketches[v].Offer(uint64(t.Key))
			}
			i++
			u.Charge(histInsts)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, e.EndStep())

	// The exchanged histograms give every destination's exact inbound
	// tuple count. Skew-aware runs provision from those exact counts when
	// the uniform estimate would overflow — replacing the §5.4 CPU
	// overflow-retry loop with a single correctly-sized allocation. When
	// the uniform estimate suffices (every run a skew-unaware execution
	// would survive), capPer is untouched and the allocation is
	// byte-identical to the skew-unaware one. MallocPermutable performs no
	// accounting, so running it after the histogram step leaves all
	// simulated quantities unchanged.
	if cfg.SkewAware {
		inbound := make([]int64, nv)
		for _, row := range perSource {
			for dst, n := range row {
				inbound[dst] += n
			}
		}
		maxIn := 0
		for _, n := range inbound {
			if int(n) > maxIn {
				maxIn = int(n)
			}
		}
		resized := false
		if maxIn > capPer {
			capPer = maxIn + bucketSlack
			resized = true
		}
		sketch := sketches[0]
		for _, sk := range sketches[1:] {
			sketch.Merge(sk)
		}
		res.Skew = buildSkewReport(cfg, inbound, sketch, stride)
		res.Skew.Provisioned = capPer
		res.Skew.Resized = resized
		e.RecordSkew(float64(res.Skew.MaxLoad), res.Skew.MeanLoad, len(res.Skew.HotKeys))
	}
	dests, err := e.MallocPermutable(capPer)
	if err != nil {
		return nil, err
	}
	res.Buckets = dests

	// Histogram exchange + permutable-region arming.
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		return nil, err
	}
	res.HistogramNs = e.TotalNs() - t0
	t1 := e.TotalNs()

	// Step 2: data distribution. Each source streams its partition and
	// stages tuples into the Exchange; destinations apply the staged
	// messages in the serial engine's round-robin arrival interleave
	// (Fig. 2) — see engine.Exchange. Conventional write offsets (prefix
	// sums over the exchanged histograms) are computed by the Exchange.
	insts, profile := distInsts(e, cm)

	e.BeginStep(probeProfile(e, profile))
	x := e.NewExchange(dests, perSource)
	if err := e.ForEachVaultWeighted(stealWeights(e, inputs), func(v int, u *engine.Unit) error {
		rs, err := u.OpenStreams(inputs[v])
		if err != nil {
			return err
		}
		ob := x.Outbox(v)
		if u.Bulk() {
			// The source side is a pure sequential read; staging a tuple
			// into the Exchange is host-side work (the destination vault's
			// DRAM traffic happens at Flush). One run read, then the
			// per-tuple charges and sends in the same order as the
			// reference loop.
			ts := rs[0].NextRun(inputs[v].Len())
			for i := range ts {
				u.Charge(insts)
				if err := ob.Send(part.Bucket(ts[i].Key), ts[i]); err != nil {
					return err
				}
			}
			return nil
		}
		for {
			t, ok := rs[0].Next()
			if !ok {
				return nil
			}
			u.Charge(insts)
			if err := ob.Send(part.Bucket(t.Key), t); err != nil {
				return err
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := x.Flush(); err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, e.EndStep())
	e.ShuffleEnd(dests)
	res.DistributeNs = e.TotalNs() - t1
	return res, nil
}

// cpuPartition runs the phase on the CPU-centric system: cores stream
// their share of the input and scatter tuples into cache-sized buckets
// using exact histogram-derived offsets.
func cpuPartition(e *engine.Engine, cfg Config, inputs []*engine.Region, part Partitioner) (*PartitionResult, error) {
	cm := cfg.Costs
	units := e.Units()
	nCores := len(units)
	nv := e.NumVaults()
	total := 0
	for _, in := range inputs {
		total += in.Len()
	}

	// Destination buckets spread round-robin over vaults.
	capPer := int(float64(total/part.Buckets)*cfg.overprovision()) + bucketSlack
	buckets := make([]*engine.Region, part.Buckets)
	for b := range buckets {
		r, err := e.AllocOut(b%nv, capPer)
		if err != nil {
			return nil, err
		}
		buckets[b] = r
	}
	res := &PartitionResult{Buckets: buckets}

	// Per-core in-memory histograms (2^16 buckets = 512 KB each: far
	// beyond on-chip capacity, unlike the NMP systems' 64 counters).
	histAddrs := make([]int64, nCores)
	for c := range histAddrs {
		r, err := e.AllocOut(c%nv, part.Buckets/2+1)
		if err != nil {
			return nil, err
		}
		histAddrs[c] = r.Addr
	}

	// Cores split each vault's region evenly: core c owns inputs[i]
	// for i ≡ c (mod nCores).
	coreInputs := make([][]*engine.Region, nCores)
	for i, in := range inputs {
		c := i % nCores
		coreInputs[c] = append(coreInputs[c], in)
	}

	t0 := e.TotalNs()
	hist := make([][]int64, nCores)
	histBacking := make([]int64, nCores*part.Buckets)
	var sketches []*SpaceSaving
	stride := cfg.skewSampleStride()
	if cfg.SkewAware {
		sketches = make([]*SpaceSaving, nCores)
		for c := range sketches {
			sketches[c] = NewSpaceSaving(cfg.skewSketchSize())
		}
	}
	histProf := cm.HistogramProfile
	histProf.MLPOverride = cm.CPUPartitionMLP
	e.BeginStep(histProf)
	for c, u := range units {
		hist[c] = histBacking[c*part.Buckets : (c+1)*part.Buckets]
		n := 0
		for _, in := range coreInputs[c] {
			for i := 0; i < in.Len(); i++ {
				t := u.LoadTuple(in, i)
				b := part.Bucket(t.Key)
				hist[c][b]++
				if sketches != nil && n%stride == 0 {
					sketches[c].Offer(uint64(t.Key))
				}
				n++
				u.Charge(cm.HistogramInsts)
				histTraffic(u, cm, histAddrs[c], part.Buckets, b)
			}
		}
		// Prefix-sum pass over the histogram.
		u.Charge(float64(part.Buckets) * 2)
	}
	res.Steps = append(res.Steps, e.EndStep())
	e.Barrier() // cores exchange prefix sums before writing
	res.HistogramNs = e.TotalNs() - t0
	t1 := e.TotalNs()

	// Per-(core,bucket) write offsets, computed in place over the
	// histogram (offset[c][b] is the prefix sum of hist[c'][b] over c' <
	// c), and each bucket's exact final size.
	offset := hist
	counts := make([]int64, part.Buckets)
	for b := range counts {
		for c := 0; c < nCores; c++ {
			n := hist[c][b]
			offset[c][b] = counts[b]
			counts[b] += n
		}
	}

	// The counts size each bucket's host-side tuple storage, carved from
	// one slab so the distribute loop's ensureLen never reallocates (host
	// memory only — simulated region capacity is untouched). Skew-aware
	// runs size the sketch-side report from the same exact counts and
	// reallocate just the overflowing buckets at their exact size instead
	// of surfacing the §5.4 retry error; non-overflowing runs perform no
	// extra allocation, keeping the allocation sequence byte-identical to
	// skew-unaware.
	if cfg.SkewAware {
		sketch := sketches[0]
		for _, sk := range sketches[1:] {
			sketch.Merge(sk)
		}
		res.Skew = buildSkewReport(cfg, counts, sketch, stride)
		res.Skew.Provisioned = capPer
		e.RecordSkew(float64(res.Skew.MaxLoad), res.Skew.MeanLoad, len(res.Skew.HotKeys))
	}
	slab := make([]tuple.Tuple, total)
	off := 0
	for b, r := range buckets {
		cnt := int(counts[b])
		if cnt > capPer {
			if !cfg.SkewAware {
				// The histogram exchange reveals overflowing buckets before
				// any tuple moves: skewed datasets surface the retryable
				// overflow error here instead of tripping the scatter's
				// capacity invariant (§5.4).
				return nil, fmt.Errorf("%w: bucket %d needs %d tuples, provisioned %d",
					ErrPartitionOverflow, b, cnt, capPer)
			}
			grown, err := e.AllocOut(b%nv, cnt+bucketSlack)
			if err != nil {
				return nil, err
			}
			buckets[b], r = grown, grown
			if cnt+bucketSlack > res.Skew.Provisioned {
				res.Skew.Provisioned = cnt + bucketSlack
			}
			res.Skew.Resized = true
		}
		r.Tuples = slab[off : off : off+cnt]
		off += cnt
	}

	insts, profile := distInsts(e, cm)
	profile.MLPOverride = cm.CPUPartitionMLP
	e.BeginStep(profile)
	for c, u := range units {
		for _, in := range coreInputs[c] {
			for i := 0; i < in.Len(); i++ {
				t := u.LoadTuple(in, i)
				b := part.Bucket(t.Key)
				u.Charge(insts)
				u.SendAt(buckets[b], int(offset[c][b]), t)
				offset[c][b]++
			}
		}
	}
	res.Steps = append(res.Steps, e.EndStep())
	e.Barrier()
	res.DistributeNs = e.TotalNs() - t1
	return res, nil
}

// CPUPartitionCount picks the CPU's bucket count: the paper's code uses
// the keys' 16 low-order bits, "optimizing for our modeled system's
// private cache size". We target ~2K tuples (32 KB) per bucket, capped at
// 2^16 buckets, with a floor of one bucket per core.
func CPUPartitionCount(totalTuples, cpuCores int) int {
	target := totalTuples / 2048
	p := 1
	for p < target {
		p <<= 1
	}
	if p > 1<<16 {
		p = 1 << 16
	}
	for p < cpuCores {
		p <<= 1
	}
	return p
}
