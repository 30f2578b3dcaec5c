// Package plan compiles multi-operator queries — the way the paper's
// Table 1 workloads actually use the basic operators (a Spark query is a
// chain of transformations, each lowering onto Scan, Group by, Join or
// Sort) — into fused engine phases. A plan is a tree of logical nodes;
// execution lowers each node onto the operators while tracking the
// partitioning property of every intermediate result. When an operator's
// input already carries the partitioning its shuffle would establish —
// e.g. a group-by consuming a join output that is hash-partitioned on the
// same key — the re-shuffle is elided and the probe phase runs directly
// on the vault-resident buckets. Intermediates stay in the vaults in the
// canonical one-region-per-vault layout, compacted through the bulk run
// path only when an operator's output fragments actually need it.
package plan

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Node is one stage of a query plan.
type Node interface {
	// Name labels the stage in reports.
	Name() string
	exec(x *executor) (*inter, error)
}

// StageStats records one executed stage.
type StageStats struct {
	Name   string
	Ns     float64
	Tuples int
	// Fused marks a stage that consumed an input's existing partitioning
	// and skipped at least one re-shuffle.
	Fused bool
}

// Result is an executed plan's output.
type Result struct {
	// Out holds the plan output in the canonical one-region-per-vault
	// layout.
	Out []*engine.Region
	// Ordered is set when the plan's final stage is a Sort: the sorted
	// range buckets in ascending bucket order, whose concatenation is the
	// globally ordered output. (On the CPU the per-vault compaction of Out
	// interleaves buckets and keeps only the multiset; on the
	// vault-partitioned systems Ordered and Out coincide.)
	Ordered []*engine.Region
	Stages  []StageStats
	// Elisions counts the re-shuffles the compiler skipped because an
	// input's partitioning already matched the operator's.
	Elisions int
}

// Tuples flattens the plan output.
func (r *Result) Tuples() []tuple.Tuple { return operators.Gather(r.Out) }

// OrderedTuples flattens the sorted buckets (nil when the plan's final
// stage is not a Sort).
func (r *Result) OrderedTuples() []tuple.Tuple {
	if r.Ordered == nil {
		return nil
	}
	return operators.Gather(r.Ordered)
}

// Ns returns the plan's total runtime.
func (r *Result) Ns() float64 {
	var sum float64
	for _, s := range r.Stages {
		sum += s.Ns
	}
	return sum
}

// Options tunes plan execution.
type Options struct {
	// NoFusion disables re-shuffle elision: every operator re-partitions
	// its inputs from scratch, reproducing the staged one-operator-at-a-
	// time execution. The staged mode is the baseline the fused mode's
	// exchange-byte and runtime savings are measured against.
	NoFusion bool
}

type executor struct {
	e        *engine.Engine
	cfg      operators.Config
	opts     Options
	stages   []StageStats
	elisions int
	seen     map[string]int
	ordered  []*engine.Region
}

// inter is one intermediate result: its regions plus the partitioning
// property physical lowering tracks to decide re-shuffle elision.
type inter struct {
	regions []*engine.Region
	part    Partitioning
}

// Run executes a plan on the engine with fusion enabled.
func Run(e *engine.Engine, cfg operators.Config, root Node) (*Result, error) {
	return RunWith(e, cfg, root, Options{})
}

// RunWith executes a plan on the engine under explicit options.
func RunWith(e *engine.Engine, cfg operators.Config, root Node, opts Options) (*Result, error) {
	x := &executor{e: e, cfg: cfg, opts: opts}
	out, err := root.exec(x)
	if err != nil {
		return nil, err
	}
	return &Result{Out: out.regions, Ordered: x.ordered, Stages: x.stages, Elisions: x.elisions}, nil
}

// label assigns the stage its report/phase label, numbering repeats
// ("join", "join#2", ...) so every stage is addressable in manifests.
func (x *executor) label(name string) string {
	if x.seen == nil {
		x.seen = make(map[string]int)
	}
	x.seen[name]++
	if n := x.seen[name]; n > 1 {
		// Not fmt: its printer cache, emptied by every garbage
		// collection, would make a run's allocations timing-dependent.
		return name + "#" + strconv.Itoa(n)
	}
	return name
}

// finish compacts an operator's output into the canonical layout (a no-op
// when the output already is one region per vault), records the stage, and
// returns the intermediate with its partitioning property.
func (x *executor) finish(label string, t0 float64, out []*engine.Region, part Partitioning, fused bool) (*inter, error) {
	out, err := x.canonicalize(out)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, r := range out {
		n += r.Len()
	}
	x.stages = append(x.stages, StageStats{Name: label, Ns: x.e.TotalNs() - t0, Tuples: n, Fused: fused})
	return &inter{regions: out, part: part}, nil
}

// canonical reports whether regions already form the canonical
// one-region-per-vault layout the operators accept as input.
func (x *executor) canonical(rs []*engine.Region) bool {
	if len(rs) != x.e.NumVaults() {
		return false
	}
	for v, r := range rs {
		if r == nil || r.Vault.ID != v {
			return false
		}
	}
	return true
}

// canonicalize compacts regions into the canonical layout when needed.
func (x *executor) canonicalize(rs []*engine.Region) ([]*engine.Region, error) {
	if x.canonical(rs) {
		return rs, nil
	}
	return Materialize(x.e, rs)
}

// --- leaf -------------------------------------------------------------------

// Table is a leaf node: data already resident in the vaults, one region
// per vault.
type Table struct {
	Label   string
	Regions []*engine.Region
}

// Name implements Node.
func (t *Table) Name() string { return "table:" + t.Label }

func (t *Table) exec(x *executor) (*inter, error) {
	if len(t.Regions) != x.e.NumVaults() {
		return nil, fmt.Errorf("plan: table %q has %d regions for %d vaults",
			t.Label, len(t.Regions), x.e.NumVaults())
	}
	return &inter{regions: t.Regions}, nil
}

// --- operators --------------------------------------------------------------

// Filter keeps tuples whose key equals Needle (LookupKey/Filter → Scan).
type Filter struct {
	In     Node
	Needle tuple.Key
}

// Name implements Node.
func (f *Filter) Name() string { return "filter" }

func (f *Filter) exec(x *executor) (*inter, error) {
	in, err := f.In.exec(x)
	if err != nil {
		return nil, err
	}
	x.ordered = nil
	label := x.label("filter")
	t0 := x.e.TotalNs()
	x.e.SetPhasePrefix(label)
	defer x.e.SetPhasePrefix("")
	res, err := operators.Scan(x.e, x.cfg, in.regions, f.Needle)
	if err != nil {
		return nil, err
	}
	// Scan never moves tuples between vaults, so the input's partitioning
	// property survives filtering.
	return x.finish(label, t0, res.Out, in.part, false)
}

// Join equi-joins two inputs on key (FK relationship expected from R to S).
type Join struct {
	R, S Node
}

// Name implements Node.
func (j *Join) Name() string { return "join" }

func (j *Join) exec(x *executor) (*inter, error) {
	r, err := j.R.exec(x)
	if err != nil {
		return nil, err
	}
	s, err := j.S.exec(x)
	if err != nil {
		return nil, err
	}
	x.ordered = nil
	label := x.label("join")
	t0 := x.e.TotalNs()
	x.e.SetPhasePrefix(label)
	defer x.e.SetPhasePrefix("")

	if !x.vaultFusion() {
		res, err := operators.Join(x.e, x.cfg, r.regions, s.regions)
		if err != nil {
			return nil, err
		}
		return x.finish(label, t0, res.Out, x.outPart(PartHash, 0), false)
	}
	// Per-side lowering: a side whose partitioning already matches the
	// join's hash partitioner keeps its vault-resident buckets; the other
	// side re-shuffles.
	part := operators.Partitioner{Buckets: x.e.NumVaults()}
	rBuckets, rFused, err := x.bucketize(r, part)
	if err != nil {
		return nil, fmt.Errorf("partitioning R: %w", err)
	}
	sBuckets, sFused, err := x.bucketize(s, part)
	if err != nil {
		return nil, fmt.Errorf("partitioning S: %w", err)
	}
	res, err := operators.JoinProbe(x.e, x.cfg, rBuckets, sBuckets)
	if err != nil {
		return nil, err
	}
	return x.finish(label, t0, res.Out, x.outPart(PartHash, 0), rFused || sFused)
}

// bucketize returns hash-partitioned buckets for one join input: the
// input's own regions when its partitioning already matches the join
// partitioner (re-shuffle elided), otherwise a fresh partition phase.
func (x *executor) bucketize(in *inter, part operators.Partitioner) ([]*engine.Region, bool, error) {
	if hashCompatible(in.part, part.Buckets) {
		x.elisions++
		return in.regions, true, nil
	}
	pres, err := operators.PartitionPhase(x.e, x.cfg, in.regions, part)
	if err != nil {
		return nil, false, err
	}
	return pres.Buckets, false, nil
}

// GroupBy aggregates the input by key (six aggregate tuples per group).
type GroupBy struct {
	In Node
}

// Name implements Node.
func (g *GroupBy) Name() string { return "groupby" }

func (g *GroupBy) exec(x *executor) (*inter, error) {
	in, err := g.In.exec(x)
	if err != nil {
		return nil, err
	}
	x.ordered = nil
	label := x.label("groupby")
	t0 := x.e.TotalNs()
	x.e.SetPhasePrefix(label)
	defer x.e.SetPhasePrefix("")

	if x.vaultFusion() && groupCompatible(in.part, x.e.NumVaults()) {
		res, err := operators.GroupByProbe(x.e, x.cfg, in.regions)
		if err != nil {
			return nil, err
		}
		x.elisions++
		// Aggregation emits each group in its key's bucket, so the input's
		// partitioning (hash or range) carries through to the aggregates.
		return x.finish(label, t0, res.Out, in.part, true)
	}
	res, err := operators.GroupBy(x.e, x.cfg, in.regions)
	if err != nil {
		return nil, err
	}
	return x.finish(label, t0, res.Out, x.outPart(PartHash, 0), false)
}

// Sort orders the input globally by key.
type Sort struct {
	In Node
	// KeySpace optionally overrides the range partitioner's bound for
	// this stage; zero keeps the executor's configured key space (which
	// may itself be zero, meaning "derive from the data").
	KeySpace uint64
}

// Name implements Node.
func (s *Sort) Name() string { return "sort" }

func (s *Sort) exec(x *executor) (*inter, error) {
	in, err := s.In.exec(x)
	if err != nil {
		return nil, err
	}
	x.ordered = nil
	label := x.label("sort")
	t0 := x.e.TotalNs()
	x.e.SetPhasePrefix(label)
	defer x.e.SetPhasePrefix("")

	cfg := x.cfg
	if s.KeySpace != 0 {
		// Override only when the node sets a bound: unconditionally
		// copying the (possibly zero) field would clobber the configured
		// key space and silently fall back to deriving it from the data.
		cfg.KeySpace = s.KeySpace
	}
	ks := operators.SortKeySpace(cfg, in.regions)
	var res *operators.SortResult
	fused := false
	if x.vaultFusion() && rangeCompatible(in.part, x.e.NumVaults(), ks) {
		res, err = operators.SortProbe(x.e, cfg, in.regions)
		if err == nil {
			x.elisions++
			fused = true
		}
	} else {
		res, err = operators.Sort(x.e, cfg, in.regions)
	}
	if err != nil {
		return nil, err
	}
	out, err := x.finish(label, t0, res.Sorted, x.outPart(PartRange, ks), fused)
	if err != nil {
		return nil, err
	}
	x.ordered = res.Sorted
	return out, nil
}

// --- multi-way join ---------------------------------------------------------

// MultiJoin joins a fact input against several dimension inputs on the
// shared key (a TPC-H-style star shape). Compilation orders the joins
// greedily without statistics — smallest estimated dimension first — into
// a left-deep chain whose running intermediate stays hash-partitioned, so
// on the vault-partitioned systems every join after the first elides its
// probe-side re-shuffle.
type MultiJoin struct {
	Fact Node
	Dims []Node
}

// Name implements Node.
func (m *MultiJoin) Name() string { return "multijoin" }

// Chain returns the left-deep Join chain the greedy ordering produces.
func (m *MultiJoin) Chain() (Node, error) {
	if len(m.Dims) == 0 {
		return nil, fmt.Errorf("plan: multijoin needs at least one dimension")
	}
	dims := make([]Node, len(m.Dims))
	copy(dims, m.Dims)
	sort.SliceStable(dims, func(i, j int) bool {
		return estimateRows(dims[i]) < estimateRows(dims[j])
	})
	probe := m.Fact
	for _, d := range dims {
		probe = &Join{R: d, S: probe}
	}
	return probe, nil
}

func (m *MultiJoin) exec(x *executor) (*inter, error) {
	chain, err := m.Chain()
	if err != nil {
		return nil, err
	}
	return chain.exec(x)
}

// estimateRows is the planner's statistics-free cardinality estimate:
// leaf sizes are known exactly; operator outputs are bounded by their
// probe-side input (foreign-key joins emit at most one tuple per probe
// tuple; filters and aggregates only reshape downward, and the estimate
// only has to rank dimensions, not predict sizes).
func estimateRows(n Node) int {
	switch t := n.(type) {
	case *Table:
		total := 0
		for _, r := range t.Regions {
			if r != nil {
				total += r.Len()
			}
		}
		return total
	case *Filter:
		return estimateRows(t.In)
	case *Join:
		return estimateRows(t.S)
	case *MultiJoin:
		return estimateRows(t.Fact)
	case *GroupBy:
		return estimateRows(t.In)
	case *Sort:
		return estimateRows(t.In)
	default:
		return 0
	}
}
