package simulate

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// Operator identifies one of the four basic data operators.
type Operator int

// The four basic operators of Table 2.
const (
	OpScan Operator = iota
	OpSort
	OpGroupBy
	OpJoin
	numOperators
)

// Operators lists all four.
func Operators() []Operator {
	return []Operator{OpScan, OpSort, OpGroupBy, OpJoin}
}

// String implements fmt.Stringer.
func (o Operator) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpSort:
		return "Sort"
	case OpGroupBy:
		return "Group by"
	case OpJoin:
		return "Join"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// Result is the outcome of one (system, operator) experiment.
type Result struct {
	System   System
	Operator Operator

	PartitionNs float64
	ProbeNs     float64
	TotalNs     float64

	Energy energy.Breakdown
	DRAM   dram.Stats

	// Verified confirms the operator output matched the reference.
	Verified bool

	// DistBWPerVaultGBs is the distribution step's per-vault DRAM
	// bandwidth (the §7.1 partition-phase utilization metric);
	// ProbeBWPerVaultGBs the probe phase's.
	DistBWPerVaultGBs  float64
	ProbeBWPerVaultGBs float64

	// Steps preserves the engine's step timeline.
	Steps []engine.StepTiming

	// Phases and Spans are populated only when Params.Obs is set: the
	// operator's phase timeline and the simulated-time span tree
	// (run → phase → step → per-unit task / exchange). Both are built
	// from deterministic engine state, so they are byte-identical at
	// every Parallelism.
	Phases []engine.PhaseTiming `json:",omitempty"`
	Spans  *obs.Span            `json:",omitempty"`
}

// Efficiency returns performance per watt for the fixed operator work:
// perf/watt = (1/t)/(E/t) = 1/E, so efficiency ratios (the paper's Fig. 9)
// are inverse energy ratios. This is why the paper's efficiency gains
// (28×) are smaller than its performance gains (49×): Mondrian draws more
// power while running, "reflecting Mondrian's high utilization of system
// resources" (§7.2).
func (r *Result) Efficiency() float64 {
	if r.Energy.Total() == 0 {
		return 0
	}
	return 1 / r.Energy.Total()
}

// streamInput generates the Scan/Sort input relation: uniform keys by
// default, Zipf-distributed when Params.ZipfS is set.
func streamInput(name string, p Params) (*tuple.Relation, error) {
	c := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	if p.ZipfS > 0 {
		return workload.Zipf(name, c, p.ZipfS)
	}
	return workload.Uniform(name, c), nil
}

// groupInput generates the aggregation input relation. Under ZipfS the
// group sizes themselves are Zipf-distributed — the hot-group regime the
// splitting path targets. The uniform default keeps the paper's
// average-group-size-4 workload.
func groupInput(p Params) (*tuple.Relation, error) {
	c := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	if p.ZipfS > 0 {
		return workload.Zipf("agg-in", c, p.ZipfS)
	}
	return workload.GroupBy(c, p.GroupSize)
}

// joinInput generates the join relations: uniform foreign keys by default.
// Under ZipfS the probe relation's foreign keys are skewed: a few R tuples
// match most of S (the hot-run regime of the sort-merge probe's batching).
func joinInput(p Params) (rRel, sRel *tuple.Relation, err error) {
	c := workload.Config{Seed: p.Seed, Tuples: p.STuples}
	if p.ZipfS > 0 {
		return workload.FKPairZipf(c, p.RTuples, p.ZipfS)
	}
	return workload.FKPair(c, p.RTuples)
}

// place spreads a relation evenly across the vaults.
func place(e *engine.Engine, rel *tuple.Relation) ([]*engine.Region, error) {
	parts := rel.SplitEven(e.NumVaults())
	regions := make([]*engine.Region, len(parts))
	for v, p := range parts {
		r, err := e.Place(v, p.Tuples)
		if err != nil {
			return nil, err
		}
		regions[v] = r
	}
	return regions, nil
}

// Run executes one operator on one system and verifies its output,
// through the experiment harness (execute) that RunPlan shares.
func Run(s System, op Operator, p Params) (*Result, error) {
	res, err := execute(s, op, p)
	if err != nil {
		return nil, err
	}
	return res.(*Result), nil
}

// selector implements experiment.
func (op Operator) selector() (string, int, int) { return "Operator", int(op), int(numOperators) }

// body implements experiment: it places the operator's inputs, runs the
// operator and returns the check of its output against the reference.
func (op Operator) body(e *engine.Engine, s System, p Params) (report, *outputCheck, error) {
	opCfg := p.OperatorConfig(s)
	res := &Result{System: s, Operator: op}
	var chk *outputCheck

	switch op {
	case OpScan:
		rel, err := streamInput("scan-in", p)
		if err != nil {
			return nil, nil, err
		}
		needle, want := workload.ScanTarget(rel, p.Seed+1)
		inputs, err := place(e, rel)
		if err != nil {
			return nil, nil, err
		}
		r, err := operators.Scan(e, opCfg, inputs, needle)
		if err != nil {
			return nil, nil, err
		}
		res.ProbeNs = r.ProbeNs
		chk = &outputCheck{out: r.Out, want: tuple.DigestOf(operators.RefScan(rel.Tuples, needle)), miscount: r.Matches != want}

	case OpSort:
		rel, err := streamInput("sort-in", p)
		if err != nil {
			return nil, nil, err
		}
		inputs, err := place(e, rel)
		if err != nil {
			return nil, nil, err
		}
		r, err := operators.Sort(e, opCfg, inputs)
		if err != nil {
			return nil, nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		chk = &outputCheck{out: r.Sorted, want: tuple.DigestOf(rel.Tuples), sorted: r.Sorted, ordered: true}
		res.DistBWPerVaultGBs = distBW(r.Partition, e.NumVaults())

	case OpGroupBy:
		rel, err := groupInput(p)
		if err != nil {
			return nil, nil, err
		}
		inputs, err := place(e, rel)
		if err != nil {
			return nil, nil, err
		}
		r, err := operators.GroupBy(e, opCfg, inputs)
		if err != nil {
			return nil, nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		chk = &outputCheck{out: r.Out, want: refGroupByDigest(tuple.SeqOf(rel.Tuples))}
		res.DistBWPerVaultGBs = distBW(r.Partition, e.NumVaults())

	case OpJoin:
		rRel, sRel, err := joinInput(p)
		if err != nil {
			return nil, nil, err
		}
		rIn, err := place(e, rRel)
		if err != nil {
			return nil, nil, err
		}
		sIn, err := place(e, sRel)
		if err != nil {
			return nil, nil, err
		}
		r, err := operators.Join(e, opCfg, rIn, sIn)
		if err != nil {
			return nil, nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		chk = &outputCheck{out: r.Out, want: tuple.DigestOfSeq(operators.RefJoinSeq(rRel.Tuples, tuple.SeqOf(sRel.Tuples)))}
		res.DistBWPerVaultGBs = distBW(r.SPartition, e.NumVaults())

	default:
		return nil, nil, fmt.Errorf("simulate: unknown operator %v", op)
	}

	// The probe phase is every step after the partition phase; for Scan,
	// which has no partition phase, that is the whole run.
	if res.ProbeNs > 0 {
		res.ProbeBWPerVaultGBs = probePhaseBW(e.Steps(), res.PartitionNs, e.NumVaults())
	}
	return res, chk, nil
}

// record implements report.
func (r *Result) record(m measurement) {
	r.Verified = m.Verified
	r.TotalNs, r.Energy, r.DRAM = m.TotalNs, m.Energy, m.DRAM
	r.Steps, r.Phases, r.Spans = m.Steps, m.Phases, m.Spans
}

// distBW extracts the distribution step's per-vault bandwidth.
func distBW(pr *operators.PartitionResult, vaults int) float64 {
	for _, st := range pr.Steps {
		if len(st.Name) >= 10 && st.Name[:10] == "distribute" {
			return st.BandwidthPerVaultGBs(st.StepBytes(), vaults)
		}
	}
	return 0
}

// probePhaseBW aggregates bandwidth over the probe-phase steps (every
// step after the partition phase's accumulated time).
func probePhaseBW(steps []engine.StepTiming, partitionNs float64, vaults int) float64 {
	var elapsed, ns float64
	var bytes uint64
	for _, st := range steps {
		if elapsed >= partitionNs-1e-6 {
			ns += st.Ns
			bytes += st.StepBytes()
		}
		elapsed += st.Ns
	}
	if ns == 0 {
		return 0
	}
	return float64(bytes) / ns / float64(vaults)
}

// RunAll executes the full system × operator matrix.
func RunAll(p Params) (map[System]map[Operator]*Result, error) {
	out := make(map[System]map[Operator]*Result)
	for _, s := range Systems() {
		out[s] = make(map[Operator]*Result)
		for _, op := range Operators() {
			r, err := Run(s, op, p)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", s, op, err)
			}
			if !r.Verified {
				return nil, fmt.Errorf("%v/%v: output verification failed", s, op)
			}
			out[s][op] = r
		}
	}
	return out, nil
}
