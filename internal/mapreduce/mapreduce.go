// Package mapreduce implements a MapReduce execution layer on top of the
// Mondrian engine, demonstrating the paper's claim that data
// permutability "also applies to the data partitioning and shuffling
// phase of MapReduce and any BSP-based graph processing algorithm"
// (§4.1.2): the shuffle between map and reduce treats each destination
// partition as an unordered bucket, so the vault controllers may place
// arriving intermediate tuples in any order.
//
// Jobs run functionally: mappers and reducers are real Go functions over
// tuples, and results are verified against an in-memory reference
// executor. Timing and energy come from the same engine models as the
// basic operators; the shuffle reuses the engine's permutable-store path
// when the system supports it.
package mapreduce

import (
	"fmt"
	"sort"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Mapper transforms one input tuple into zero or more intermediate
// key/value tuples via emit.
type Mapper func(t tuple.Tuple, emit func(tuple.Tuple))

// Reducer folds one key's values into zero or more output tuples.
type Reducer func(key tuple.Key, values []tuple.Value, emit func(tuple.Tuple))

// Job describes a MapReduce computation and its instruction costs.
type Job struct {
	Name   string
	Map    Mapper
	Reduce Reducer

	// MapInsts / ReduceInsts are charged per input tuple and per reduced
	// value respectively (defaults 8 and 6 — a small transform and a
	// fold step). SIMD units divide these by SIMDFactor (default 4).
	MapInsts    float64
	ReduceInsts float64
	SIMDFactor  float64

	// Amplification estimates intermediate tuples per input tuple (for
	// buffer provisioning; default 1). Underestimates surface the §5.4
	// overflow exception.
	Amplification float64
}

func (j Job) mapInsts() float64 {
	if j.MapInsts > 0 {
		return j.MapInsts
	}
	return 8
}

func (j Job) reduceInsts() float64 {
	if j.ReduceInsts > 0 {
		return j.ReduceInsts
	}
	return 6
}

func (j Job) simdFactor() float64 {
	if j.SIMDFactor > 0 {
		return j.SIMDFactor
	}
	return 4
}

func (j Job) amplification() float64 {
	if j.Amplification > 0 {
		return j.Amplification
	}
	return 1
}

// Result reports a completed job.
type Result struct {
	// Out holds the reducer outputs, one region per vault.
	Out []*engine.Region
	// Keys is the number of distinct keys reduced.
	Keys int
	// Phase runtimes.
	MapNs, ShuffleNs, ReduceNs float64
}

// Ns returns the job's total runtime.
func (r *Result) Ns() float64 { return r.MapNs + r.ShuffleNs + r.ReduceNs }

// Run executes the job over the inputs (one region per vault).
func Run(e *engine.Engine, job Job, inputs []*engine.Region) (*Result, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mapreduce: job %q needs Map and Reduce", job.Name)
	}
	if len(inputs) != e.NumVaults() {
		return nil, fmt.Errorf("mapreduce: %d input regions for %d vaults", len(inputs), e.NumVaults())
	}
	nv := e.NumVaults()
	simd := e.Config().Core.SIMDBits > 0
	res := &Result{}

	// --- map phase: stream local input, emit into local staging -------
	total := 0
	for _, in := range inputs {
		total += in.Len()
	}
	stageCap := int(float64(total)/float64(nv)*job.amplification())*2 + 64
	staging := make([]*engine.Region, nv)
	for v := 0; v < nv; v++ {
		r, err := e.AllocOut(v, stageCap)
		if err != nil {
			return nil, err
		}
		staging[v] = r
	}
	mapInsts := job.mapInsts()
	if simd {
		mapInsts /= job.simdFactor()
	}
	t0 := e.TotalNs()
	e.BeginStep(engine.StepProfile{Name: "map", DepIPC: 1.5, InstPerAccess: 4,
		StreamFed: e.Config().UseStreams})
	if err := e.ForEachVault(func(v int, u *engine.Unit) error {
		readers, err := u.OpenStreams(inputs[v])
		if err != nil {
			return err
		}
		for {
			t, ok := readers[0].Next()
			if !ok {
				return nil
			}
			u.Charge(mapInsts)
			var emitErr error
			job.Map(t, func(out tuple.Tuple) {
				if emitErr != nil {
					return
				}
				if staging[v].Len() >= staging[v].Cap() {
					emitErr = fmt.Errorf("mapreduce: staging overflow in vault %d (raise Job.Amplification)", v)
					return
				}
				u.AppendLocal(staging[v], out)
			})
			if emitErr != nil {
				return emitErr
			}
		}
	}); err != nil {
		return nil, err
	}
	e.EndStep()
	e.Barrier()
	res.MapNs = e.TotalNs() - t0

	// --- shuffle phase: permutable redistribution by key hash ---------
	t1 := e.TotalNs()
	buckets, err := shuffle(e, staging)
	if err != nil {
		return nil, err
	}
	res.ShuffleNs = e.TotalNs() - t1

	// --- reduce phase: group each bucket by key, fold ------------------
	t2 := e.TotalNs()
	outs := make([]*engine.Region, nv)
	for v := 0; v < nv; v++ {
		r, err := e.AllocOut(v, maxInt(buckets[v].Len(), 1))
		if err != nil {
			return nil, err
		}
		outs[v] = r
	}
	res.Out = outs
	redInsts := job.reduceInsts()
	if simd {
		redInsts /= job.simdFactor()
	}
	keyCnt := make([]int, nv)
	e.BeginStep(engine.StepProfile{Name: "reduce", DepIPC: 1.5, InstPerAccess: 4,
		StreamFed: e.Config().UseStreams})
	if err := e.ForEachVault(func(v int, u *engine.Unit) error {
		b := buckets[v]
		// Read the bucket (streamed where supported) and group by key.
		readers, err := u.OpenStreams(b)
		if err != nil {
			return err
		}
		groups := make(map[tuple.Key][]tuple.Value)
		for {
			t, ok := readers[0].Next()
			if !ok {
				break
			}
			u.Charge(redInsts)
			groups[t.Key] = append(groups[t.Key], t.Val)
		}
		// Deterministic reduce order.
		keys := make([]tuple.Key, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var emitErr error
		for _, k := range keys {
			u.Charge(redInsts * float64(len(groups[k])))
			job.Reduce(k, groups[k], func(out tuple.Tuple) {
				if emitErr != nil {
					return
				}
				if outs[v].Len() >= outs[v].Cap() {
					emitErr = fmt.Errorf("mapreduce: reduce output overflow in vault %d", v)
					return
				}
				u.AppendLocal(outs[v], out)
			})
			if emitErr != nil {
				return emitErr
			}
			keyCnt[v]++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	e.EndStep()
	e.Barrier()
	for _, k := range keyCnt {
		res.Keys += k
	}
	res.ReduceNs = e.TotalNs() - t2
	return res, nil
}

// shuffle redistributes staged intermediate tuples to their key-hash
// vault, through the permutable path when the system supports it. It is
// the MapReduce twin of the operators' partitioning distribution step.
func shuffle(e *engine.Engine, staging []*engine.Region) ([]*engine.Region, error) {
	nv := e.NumVaults()
	dest := func(k tuple.Key) int { return int(uint64(k) % uint64(nv)) }

	// Histogram exchange (sizes the destination buffers).
	perSource := make([][]int64, nv)
	maxIn := 0
	inbound := make([]int64, nv)
	for v := 0; v < nv; v++ {
		perSource[v] = make([]int64, nv)
		for _, t := range staging[v].Tuples {
			perSource[v][dest(t.Key)]++
		}
		for d, n := range perSource[v] {
			inbound[d] += n
		}
	}
	for _, n := range inbound {
		if int(n) > maxIn {
			maxIn = int(n)
		}
	}
	dests, err := e.MallocPermutable(maxIn + 64)
	if err != nil {
		return nil, err
	}
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		return nil, err
	}

	e.BeginStep(engine.StepProfile{Name: "mr-shuffle", DepIPC: 1.0, InstPerAccess: 4,
		StreamFed: e.Config().UseStreams})
	x := e.NewExchange(dests, perSource)
	if err := e.ForEachVault(func(v int, u *engine.Unit) error {
		ob := x.Outbox(v)
		for i := 0; i < staging[v].Len(); i++ {
			t := u.LoadTuple(staging[v], i)
			u.Charge(6)
			if err := ob.Send(dest(t.Key), t); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := x.Flush(); err != nil {
		return nil, err
	}
	e.EndStep()
	e.ShuffleEnd(dests)
	return dests, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RefRun executes the job in plain Go for verification.
func RefRun(job Job, inputs []tuple.Tuple) []tuple.Tuple {
	groups := make(map[tuple.Key][]tuple.Value)
	for _, t := range inputs {
		job.Map(t, func(out tuple.Tuple) {
			groups[out.Key] = append(groups[out.Key], out.Val)
		})
	}
	keys := make([]tuple.Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []tuple.Tuple
	for _, k := range keys {
		job.Reduce(k, groups[k], func(t tuple.Tuple) { out = append(out, t) })
	}
	return out
}
