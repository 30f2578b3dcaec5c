package simulate

import (
	"fmt"
	"strings"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/plan"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// Plan identifies one of the registered multi-operator query shapes — the
// way the paper's Table 1 workloads actually use the basic operators. Each
// shape is compiled by the query-plan compiler (internal/plan) and run as
// one experiment, so fused whole-query execution is measurable across the
// same system matrix as the single operators.
type Plan int

// The registered query shapes.
const (
	// PlanFilterSort: Sort(Filter(S)) — select then order.
	PlanFilterSort Plan = iota
	// PlanSortAgg: GroupBy(Sort(S)) — the aggregation consumes the sort's
	// range partition without re-shuffling.
	PlanSortAgg
	// PlanJoinAgg: GroupBy(Join(R, S)) — the aggregation consumes the
	// join's hash partition without re-shuffling.
	PlanJoinAgg
	// PlanJoinAggSort: Sort(GroupBy(Join(R, S))) — the full
	// select-join-aggregate-order chain.
	PlanJoinAggSort
	// PlanStarJoinAgg: GroupBy(S ⋈ R1 ⋈ R2) — a star shape whose greedy
	// join order keeps the running intermediate hash-partitioned, so every
	// join after the first elides its probe-side re-shuffle.
	PlanStarJoinAgg
	numPlans
)

// Plans lists every registered query shape.
func Plans() []Plan {
	out := make([]Plan, numPlans)
	for i := range out {
		out[i] = Plan(i)
	}
	return out
}

// String implements fmt.Stringer with the CLI spelling.
func (pl Plan) String() string {
	switch pl {
	case PlanFilterSort:
		return "filter-sort"
	case PlanSortAgg:
		return "sort-agg"
	case PlanJoinAgg:
		return "join-agg"
	case PlanJoinAggSort:
		return "join-agg-sort"
	case PlanStarJoinAgg:
		return "star-join-agg"
	default:
		return fmt.Sprintf("Plan(%d)", int(pl))
	}
}

// ParsePlan resolves a plan name (case-insensitive).
func ParsePlan(name string) (Plan, error) {
	for _, pl := range Plans() {
		if strings.EqualFold(name, pl.String()) {
			return pl, nil
		}
	}
	return 0, fmt.Errorf("simulate: unknown plan %q (want one of %s)",
		name, strings.Join(PlanNames(), ", "))
}

// PlanNames returns the CLI spellings of the registered plans.
func PlanNames() []string {
	out := make([]string, 0, numPlans)
	for _, pl := range Plans() {
		out = append(out, pl.String())
	}
	return out
}

// PlanResult is the outcome of one (system, plan) experiment.
type PlanResult struct {
	System System
	Plan   Plan

	TotalNs float64

	Energy energy.Breakdown
	DRAM   dram.Stats

	// Verified confirms the plan output matched the composed operator
	// references (full multiset, plus global order when the plan's final
	// stage is a Sort).
	Verified bool

	// Elisions counts the re-shuffles the compiler skipped; Stages is the
	// per-stage breakdown in execution order.
	Elisions int
	Stages   []plan.StageStats

	// Steps preserves the engine's step timeline.
	Steps []engine.StepTiming

	// Phases and Spans are populated only when Params.Obs is set (see
	// Result).
	Phases []engine.PhaseTiming `json:",omitempty"`
	Spans  *obs.Span            `json:",omitempty"`
}

// RunPlan compiles and executes one query plan on one system and verifies
// its output against the composed operator references, through the
// experiment harness (execute) that Run shares.
func RunPlan(s System, pl Plan, p Params) (*PlanResult, error) {
	res, err := execute(s, pl, p)
	if err != nil {
		return nil, err
	}
	return res.(*PlanResult), nil
}

// dimRelation builds the second star-schema dimension: keys [0, n) with a
// deterministic payload, so the expected join output is computable without
// another generator seed.
func dimRelation(n int) *tuple.Relation {
	rel := tuple.NewRelation("dim2", n)
	for i := 0; i < n; i++ {
		rel.Append1(tuple.Tuple{Key: tuple.Key(i), Val: tuple.Value(uint64(i)*2654435761 + 7)})
	}
	return rel
}

// selector implements experiment.
func (pl Plan) selector() (string, int, int) { return "Plan", int(pl), int(numPlans) }

// body implements experiment: it places the plan's base tables, compiles
// and runs the plan, and returns the check of its output against the
// composed operator references.
func (pl Plan) body(e *engine.Engine, s System, p Params) (report, *outputCheck, error) {
	opCfg := p.OperatorConfig(s)
	res := &PlanResult{System: s, Plan: pl}

	// Build the logical tree and the composed reference for each shape.
	var root plan.Node
	var want tuple.Digest // digest of the expected output
	ordered := false      // final stage is a Sort → check global order too

	table := func(label string, rel *tuple.Relation) (*plan.Table, error) {
		regions, err := place(e, rel)
		if err != nil {
			return nil, err
		}
		return &plan.Table{Label: label, Regions: regions}, nil
	}

	switch pl {
	case PlanFilterSort:
		rel, err := streamInput("filter-in", p)
		if err != nil {
			return nil, nil, err
		}
		needle, _ := workload.ScanTarget(rel, p.Seed+1)
		t, err := table("s", rel)
		if err != nil {
			return nil, nil, err
		}
		root = &plan.Sort{In: &plan.Filter{In: t, Needle: needle}}
		want = tuple.DigestOf(operators.RefScan(rel.Tuples, needle))
		ordered = true

	case PlanSortAgg:
		rel, err := groupInput(p)
		if err != nil {
			return nil, nil, err
		}
		t, err := table("s", rel)
		if err != nil {
			return nil, nil, err
		}
		// The uniform generator draws keys from [0, STuples/GroupSize) —
		// far below the configured key space — so the sort stage must
		// range-split over the actual bound or every tuple funnels into
		// range bucket 0. The Zipf generator uses the full key space.
		var ks uint64
		if p.ZipfS == 0 {
			groups := p.STuples / p.GroupSize
			if groups < 1 {
				groups = 1
			}
			ks = uint64(groups)
		}
		root = &plan.GroupBy{In: &plan.Sort{In: t, KeySpace: ks}}
		want = refGroupByDigest(tuple.SeqOf(rel.Tuples))

	case PlanJoinAgg:
		rRel, sRel, err := joinInput(p)
		if err != nil {
			return nil, nil, err
		}
		rT, err := table("r", rRel)
		if err != nil {
			return nil, nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, nil, err
		}
		root = &plan.GroupBy{In: &plan.Join{R: rT, S: sT}}
		want = refGroupByDigest(operators.RefJoinSeq(rRel.Tuples, tuple.SeqOf(sRel.Tuples)))

	case PlanJoinAggSort:
		rRel, sRel, err := joinInput(p)
		if err != nil {
			return nil, nil, err
		}
		rT, err := table("r", rRel)
		if err != nil {
			return nil, nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, nil, err
		}
		// Join keys live in [0, RTuples); the sort stage must range-split
		// over that bound, not the full configured key space, or every
		// aggregate funnels into range bucket 0.
		root = &plan.Sort{
			KeySpace: uint64(p.RTuples),
			In:       &plan.GroupBy{In: &plan.Join{R: rT, S: sT}},
		}
		want = refGroupByDigest(operators.RefJoinSeq(rRel.Tuples, tuple.SeqOf(sRel.Tuples)))
		ordered = true

	case PlanStarJoinAgg:
		rRel, sRel, err := joinInput(p)
		if err != nil {
			return nil, nil, err
		}
		dRel := dimRelation(p.RTuples / 2)
		rT, err := table("r1", rRel)
		if err != nil {
			return nil, nil, err
		}
		dT, err := table("r2", dRel)
		if err != nil {
			return nil, nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, nil, err
		}
		root = &plan.GroupBy{In: &plan.MultiJoin{Fact: sT, Dims: []plan.Node{rT, dT}}}
		want = refGroupByDigest(operators.RefJoinSeq(rRel.Tuples,
			operators.RefJoinSeq(dRel.Tuples, tuple.SeqOf(sRel.Tuples))))

	default:
		return nil, nil, fmt.Errorf("simulate: unknown plan %v", pl)
	}

	r, err := plan.RunWith(e, opCfg, root, plan.Options{NoFusion: p.NoFusion})
	if err != nil {
		return nil, nil, err
	}
	res.Elisions = r.Elisions
	res.Stages = r.Stages
	return res, &outputCheck{out: r.Out, want: want, sorted: r.Ordered, ordered: ordered}, nil
}

// record implements report.
func (r *PlanResult) record(m measurement) {
	r.Verified = m.Verified
	r.TotalNs, r.Energy, r.DRAM = m.TotalNs, m.Energy, m.DRAM
	r.Steps, r.Phases, r.Spans = m.Steps, m.Phases, m.Spans
}

// planOperator is the manifest's Operator string for a plan run: the plan
// name under a "plan:" prefix, with a "+staged" suffix when fusion was
// disabled — staged-ness changes simulated cost, so the two variants must
// not collide in a manifest archive.
func planOperator(pl Plan, noFusion bool) string {
	op := "plan:" + pl.String()
	if noFusion {
		op += "+staged"
	}
	return op
}

// BuildPlanManifest assembles the machine-readable run manifest for one
// PlanResult produced with p.Obs set. Identical to BuildManifest except the
// Operator field carries the plan spelling (see planOperator).
func BuildPlanManifest(res *PlanResult, p Params, includeSpans bool) *obs.Manifest {
	return buildManifest(res.System, planOperator(res.Plan, p.NoFusion), res.Verified, res.TotalNs, res.Phases, res.Spans, p, includeSpans)
}
