package operators

import (
	"sort"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// AggKind indexes the six Group-by aggregation functions of §6.
type AggKind int

// The aggregation functions, in output order.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggSumSq
	numAggs
)

// GroupByResult reports a Group-by run.
type GroupByResult struct {
	// Out holds the emitted aggregate tuples: for each group, six tuples
	// (group key, aggregate value) in AggKind order.
	Out         []*engine.Region
	Groups      int
	Partition   *PartitionResult
	PartitionNs float64
	ProbeNs     float64
}

// Ns returns the operator's total runtime.
func (r *GroupByResult) Ns() float64 { return r.PartitionNs + r.ProbeNs }

// emitGroup appends one group's six aggregate tuples to out.
func emitGroup(u *engine.Unit, out *engine.Region, key tuple.Key, a *Aggregates) {
	vals := [numAggs]uint64{a.Count, a.Sum, a.Min, a.Max, a.Avg(), a.SumSq}
	for _, v := range vals {
		u.AppendLocal(out, tuple.Tuple{Key: key, Val: tuple.Value(v)})
	}
}

// emitGroupRun is emitGroup retired as one run-based append.
func emitGroupRun(u *engine.Unit, out *engine.Region, key tuple.Key, a *Aggregates) {
	vals := [numAggs]uint64{a.Count, a.Sum, a.Min, a.Max, a.Avg(), a.SumSq}
	var ts [numAggs]tuple.Tuple
	for i, v := range vals {
		ts[i] = tuple.Tuple{Key: key, Val: tuple.Value(v)}
	}
	u.AppendRunLocal(out, ts[:])
}

// GroupBy groups the dataset by key and applies the six aggregation
// functions (avg, count, min, max, sum, sum squared) to each group. The
// partitioning phase hashes low-order key bits; the probe is hash
// aggregation (CPU, NMP-rand) or sort-then-aggregate (NMP-seq, Mondrian).
func GroupBy(e *engine.Engine, cfg Config, inputs []*engine.Region) (*GroupByResult, error) {
	if err := checkInputs(e, inputs); err != nil {
		return nil, err
	}
	total := totalLen(inputs)
	part := Partitioner{Buckets: bucketCount(e, cfg, total)}

	pres, err := PartitionPhase(e, cfg, inputs, part)
	if err != nil {
		return nil, err
	}
	res, err := GroupByProbe(e, cfg, pres.Buckets)
	if err != nil {
		return nil, err
	}
	res.Partition = pres
	res.PartitionNs = pres.Ns()
	return res, nil
}

// GroupByProbe runs the Group-by probe phase over already partitioned
// buckets: every occurrence of a key must live in a single bucket, with
// bucket b resident in vault b on the vault-partitioned architectures
// (either a hash or a range partition satisfies this). GroupBy calls it
// after its partition phase; plan execution calls it directly when an
// upstream operator's output is already partitioned on the group key,
// eliding the re-shuffle.
func GroupByProbe(e *engine.Engine, cfg Config, buckets []*engine.Region) (*GroupByResult, error) {
	cm := cfg.Costs
	res := &GroupByResult{}
	t1 := e.TotalNs()
	e.BeginPhase("probe")
	defer e.EndPhase()

	if cfg.SortProbe {
		if err := groupBySortProbe(e, cm, buckets, res); err != nil {
			return nil, err
		}
	} else {
		if err := groupByHashProbe(e, cfg, buckets, res); err != nil {
			return nil, err
		}
	}
	e.Barrier()
	res.ProbeNs = e.TotalNs() - t1
	return res, nil
}

// groupByHashProbe aggregates each probe group through a hash table of
// running aggregates — random-access hash aggregation (CPU and NMP-rand).
func groupByHashProbe(e *engine.Engine, cfg Config, buckets []*engine.Region, res *GroupByResult) error {
	cm := cfg.Costs
	groups := probeGroups(e, cfg, buckets)
	tables := make([]*aggTable, len(groups))
	outs := make([]*engine.Region, len(groups))
	for g, group := range groups {
		total := 0
		for _, b := range group {
			total += buckets[b].Len()
		}
		t, err := newAggTable(e, buckets[group[0]].Vault.ID, maxInt(total, 1))
		if err != nil {
			return err
		}
		tables[g] = t
		out, err := e.AllocOut(buckets[group[0]].Vault.ID, maxInt(total, 1)*int(numAggs))
		if err != nil {
			return err
		}
		outs[g] = out
	}
	res.Out = outs

	nGroups := make([]int, len(groups))
	e.BeginStep(cm.HashProfile)
	if err := e.ForEachTaskWeighted(len(groups), stealGroupWeights(e, groups, buckets), func(g int) error {
		u := unitForGroup(e, groups, g)
		for _, b := range groups[g] {
			bucket := buckets[b]
			for i := 0; i < bucket.Len(); i++ {
				t := u.LoadTuple(bucket, i)
				u.Charge(cm.HashAggInsts)
				tables[g].update(u, t)
			}
		}
		// Emission sweep over the table, in sorted key order. The writes
		// are sequential appends either way, so the simulated address
		// stream — and with it timing and energy — is order-independent;
		// but the emitted tuple order must be deterministic because plan
		// execution feeds these regions into downstream operators, whose
		// access patterns follow the content.
		keys := make([]tuple.Key, 0, len(tables[g].groups))
		for key := range tables[g].groups {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		outs[g].Reserve(len(keys) * int(numAggs))
		for _, key := range keys {
			u.Charge(float64(numAggs) * 2)
			emitGroup(u, outs[g], key, tables[g].groups[key])
			nGroups[g]++
		}
		return nil
	}); err != nil {
		return err
	}
	e.EndStep()
	for _, n := range nGroups {
		res.Groups += n
	}
	return nil
}

// groupBySortProbe sorts each bucket, then aggregates in one sequential
// pass — the NMP-preferred algorithm (more passes, all sequential).
func groupBySortProbe(e *engine.Engine, cm CostModel, buckets []*engine.Region, res *GroupByResult) error {
	outs := make([]*engine.Region, len(buckets))
	for b, bucket := range buckets {
		r, err := e.AllocOut(bucket.Vault.ID, maxInt(bucket.Len(), 1)*int(numAggs))
		if err != nil {
			return err
		}
		outs[b] = r
	}
	res.Out = outs
	sorted, err := sortBuckets(e, cm, buckets)
	if err != nil {
		return err
	}
	insts := cm.SortAggInsts
	prof := engine.StepProfile{Name: "agg-pass", DepIPC: 1.0, InstPerAccess: 5}
	if isSIMD(e) {
		insts /= cm.SIMDJoinFactor
		prof.DepIPC = 2
	}
	nGroups := make([]int, len(sorted))
	splits := make([]int, len(sorted))
	skewAware := e.Config().SkewAware
	e.BeginStep(probeProfile(e, prof))
	if err := e.ForEachTaskWeighted(len(sorted), stealWeights(e, sorted), func(b int) error {
		u := unitForBucket(e, b)
		readers, err := u.OpenStreams(sorted[b])
		if err != nil {
			return err
		}
		if u.Bulk() {
			// Bulk path: key boundaries are found by peeking ahead in the
			// functional data. The reference loop emits group g right after
			// reading (and charging) the first tuple of group g+1, so each
			// group's read run extends one tuple past its boundary — except
			// the last, which ends at the stream's end.
			ts := sorted[b].Tuples
			n := len(ts)
			groups := 0
			for i := range ts {
				if i == 0 || ts[i].Key != ts[i-1].Key {
					groups++
				}
			}
			outs[b].Reserve(groups * int(numAggs))
			c := 0 // tuples consumed from the reader so far
			for gs := 0; gs < n; {
				ge := gs + 1
				for ge < n && ts[ge].Key == ts[gs].Key {
					ge++
				}
				want := ge + 1
				if want > n {
					want = n
				}
				if k := want - c; k > 0 {
					readers[0].NextRun(k)
					u.ChargeRun(insts, k)
					c = want
				}
				var agg Aggregates
				if skewAware && ge-gs >= splitGroupMinTuples {
					// Hot group: shard the aggregation across host workers
					// and combine the exact partials. The simulated reads
					// and charges already happened above, untouched.
					agg = shardedAggregate(ts[gs:ge])
					splits[b]++
				} else {
					agg = Aggregates{Min: ^uint64(0)}
					for i := gs; i < ge; i++ {
						v := uint64(ts[i].Val)
						agg.Count++
						agg.Sum += v
						agg.SumSq += v * v
						if v < agg.Min {
							agg.Min = v
						}
						if v > agg.Max {
							agg.Max = v
						}
					}
				}
				emitGroupRun(u, outs[b], ts[gs].Key, &agg)
				nGroups[b]++
				gs = ge
			}
			return nil
		}
		// Reference per-tuple path.
		var cur tuple.Key
		var agg *Aggregates
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(insts)
			if agg == nil || t.Key != cur {
				if agg != nil {
					emitGroup(u, outs[b], cur, agg)
					nGroups[b]++
				}
				cur = t.Key
				agg = &Aggregates{Min: ^uint64(0)}
			}
			v := uint64(t.Val)
			agg.Count++
			agg.Sum += v
			agg.SumSq += v * v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
		}
		if agg != nil {
			emitGroup(u, outs[b], cur, agg)
			nGroups[b]++
		}
		return nil
	}); err != nil {
		return err
	}
	e.EndStep()
	for _, n := range nGroups {
		res.Groups += n
	}
	if skewAware {
		total := 0
		for _, s := range splits {
			total += s
		}
		e.RecordSplitKeys(total)
	}
	return nil
}
