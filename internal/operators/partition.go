package operators

import (
	"fmt"
	"slices"

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
	// Skew carries the exact-provisioning report on skew-aware runs; nil
	// otherwise. Host-side only — never feeds simulated state.
	Skew *SkewReport
}

// SkewReport summarizes a skew-aware partition phase's destination loads
// and the buffer capacity provisioned for them. Every field comes from the
// exact exchanged histograms, so the report is identical at every host
// parallelism.
type SkewReport struct {
	// MaxLoad and MeanLoad are the exact per-destination tuple loads from
	// the histogram exchange (max and arithmetic mean).
	MaxLoad  int
	MeanLoad float64
	// Provisioned is the final per-destination buffer capacity in tuples;
	// Resized reports whether skew-aware provisioning raised it above the
	// uniform overprovisioned estimate (i.e. the run would have overflowed
	// and retried without skew awareness).
	Provisioned int
	Resized     bool
}

// buildSkewReport fills a SkewReport's load fields from exact destination
// loads.
func buildSkewReport(loads []int64) *SkewReport {
	rep := &SkewReport{}
	var total int64
	for _, l := range loads {
		if int(l) > rep.MaxLoad {
			rep.MaxLoad = int(l)
		}
		total += l
	}
	if len(loads) > 0 {
		rep.MeanLoad = float64(total) / float64(len(loads))
	}
	return rep
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
// (ShuffleBegin), and the interleaved data distribution of Fig. 2 with
// its completion barrier (Distribute).
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
	perSource := make([][]int64, nv)
	e.BeginStep(probeProfile(e, cm.HistogramProfile))
	if err := e.ForEachVault(func(v int, u *engine.Unit) error {
		perSource[v] = make([]int64, nv)
		readers, err := u.OpenStreams(inputs[v])
		if err != nil {
			return err
		}
		// Counting is functional and every charge is the same constant, so
		// the whole partition streams in as one run.
		ts := readers[0].NextRun(inputs[v].Len())
		for i := range ts {
			perSource[v][part.Bucket(ts[i].Key)]++
		}
		u.ChargeRun(histInsts, len(ts))
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
		res.Skew = buildSkewReport(inbound)
		if res.Skew.MaxLoad > capPer {
			capPer = res.Skew.MaxLoad + bucketSlack
			res.Skew.Resized = true
		}
		res.Skew.Provisioned = capPer
		e.RecordSkew(float64(res.Skew.MaxLoad), res.Skew.MeanLoad)
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
	// stages tuples into its Outbox; destinations apply the staged
	// messages in the sources' round-robin arrival interleave (Fig. 2),
	// and Distribute ends the shuffle (see engine.Distribute).
	insts, profile := distInsts(e, cm)
	st, err := e.Distribute(dests, perSource, probeProfile(e, profile), func(v int, u *engine.Unit, ob *engine.Outbox) error {
		rs, err := u.OpenStreams(inputs[v])
		if err != nil {
			return err
		}
		// Staging a tuple into the Outbox is host-side work (the
		// destination vault's DRAM traffic happens when the exchange is
		// applied), so the source side is one sequential run read.
		ts := rs[0].NextRun(inputs[v].Len())
		for i := range ts {
			u.Charge(insts)
			if err := ob.Send(part.Bucket(ts[i].Key), ts[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, st)
	res.DistributeNs = e.TotalNs() - t1
	return res, nil
}

// KeyShuffle sends every tuple of the per-vault staging regions to vault
// key mod vaults and returns the destination regions: MapReduce's shuffle
// and BSP's message exchange, the same permutable shuffle as the
// partitioning phase (§4.1.2). The histograms are counted on the host;
// every destination is provisioned for the largest inbound load, and the
// distribution runs as one step named step.
func KeyShuffle(e *engine.Engine, step string, staging []*engine.Region) ([]*engine.Region, error) {
	nv := e.NumVaults()
	if len(staging) != nv {
		return nil, fmt.Errorf("operators: %d staging regions for %d vaults", len(staging), nv)
	}
	part := Partitioner{Buckets: nv}
	perSource := make([][]int64, nv)
	inbound := make([]int64, nv)
	for v, r := range staging {
		perSource[v] = make([]int64, nv)
		for _, t := range r.Tuples {
			perSource[v][part.Bucket(t.Key)]++
		}
		for d, n := range perSource[v] {
			inbound[d] += n
		}
	}
	dests, err := e.MallocPermutable(int(slices.Max(inbound)) + bucketSlack)
	if err != nil {
		return nil, err
	}
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		return nil, err
	}
	prof := engine.StepProfile{Name: step, DepIPC: 1, InstPerAccess: 4, StreamFed: e.StreamFed()}
	if _, err := e.Distribute(dests, perSource, prof, func(v int, u *engine.Unit, ob *engine.Outbox) error {
		for i := 0; i < staging[v].Len(); i++ {
			t := u.LoadTuple(staging[v], i)
			u.Charge(6) // per-tuple shuffle cost
			if err := ob.Send(part.Bucket(t.Key), t); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return dests, nil
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
	buckets, err := e.AllocOutRoundRobin(part.Buckets, capPer)
	if err != nil {
		return nil, err
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
	histProf := cm.HistogramProfile
	histProf.MLPOverride = cm.CPUPartitionMLP
	e.BeginStep(histProf)
	for c, u := range units {
		hist[c] = histBacking[c*part.Buckets : (c+1)*part.Buckets]
		for _, in := range coreInputs[c] {
			for i := 0; i < in.Len(); i++ {
				t := u.LoadTuple(in, i)
				b := part.Bucket(t.Key)
				hist[c][b]++
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
	// c), and each bucket's exact final size. The pass runs core by core,
	// along each histogram row.
	offset := hist
	counts := make([]int64, part.Buckets)
	for _, row := range hist {
		for b, n := range row {
			row[b] = counts[b]
			counts[b] += n
		}
	}

	// The counts size each bucket's host-side tuple storage, carved from
	// one slab so the distribute loop's ensureLen never reallocates (host
	// memory only — simulated region capacity is untouched). Skew-aware
	// runs report the load spread from the same exact counts and
	// reallocate just the overflowing buckets at their exact size instead
	// of surfacing the §5.4 retry error; non-overflowing runs perform no
	// extra allocation, keeping the allocation sequence byte-identical to
	// skew-unaware.
	if cfg.SkewAware {
		res.Skew = buildSkewReport(counts)
		res.Skew.Provisioned = capPer
		e.RecordSkew(float64(res.Skew.MaxLoad), res.Skew.MeanLoad)
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
				u.StoreTuple(buckets[b], int(offset[c][b]), t)
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
