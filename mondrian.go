// Package mondrian is a software reproduction of the Mondrian Data Engine
// (Drumond et al., ISCA 2017): an algorithm–hardware co-design for
// near-memory processing of in-memory analytics operators.
//
// The package exposes three layers:
//
//   - the execution engine (NewEngine, Engine, Unit): simulated HMC cubes
//     with per-vault compute units, permutable-write vault controllers,
//     object buffers and stream buffers, plus a cache-backed multicore
//     CPU baseline — all with cycle-approximate timing and Table-4 energy
//     accounting;
//   - the data operators (Scan, Sort, GroupBy, Join) in their
//     CPU-preferred (hash/quicksort) and NMP-preferred (sort/merge)
//     variants;
//   - the experiment harness (NewSuite, Run) that regenerates the paper's
//     Table 5 and Figures 6–9.
//
// Quickstart:
//
//	params := mondrian.DefaultParams()
//	res, err := mondrian.RunExperiment(mondrian.SystemMondrian, mondrian.OperatorJoin, params)
//	// res.TotalNs, res.Energy, res.Verified ...
//
// See examples/ for full programs and DESIGN.md for the model inventory.
package mondrian

import (
	"io"

	"github.com/ecocloud-go/mondrian/internal/bsp"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/mapreduce"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/plan"
	"github.com/ecocloud-go/mondrian/internal/report"
	"github.com/ecocloud-go/mondrian/internal/simulate"
	"github.com/ecocloud-go/mondrian/internal/trace"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// --- data model ------------------------------------------------------------

// Key is an 8-byte tuple key.
type Key = tuple.Key

// Value is an 8-byte tuple payload.
type Value = tuple.Value

// Tuple is the 16-byte key/value record all operators process.
type Tuple = tuple.Tuple

// Relation is a named sequence of tuples.
type Relation = tuple.Relation

// SameMultiset reports whether two tuple slices hold the same tuples in
// any order (the correctness notion under data permutability).
func SameMultiset(a, b []Tuple) bool { return tuple.SameMultiset(a, b) }

// --- workload generation -----------------------------------------------------

// WorkloadConfig seeds deterministic dataset generation.
type WorkloadConfig = workload.Config

// UniformRelation generates a relation with uniformly distributed keys.
func UniformRelation(name string, c WorkloadConfig) *Relation { return workload.Uniform(name, c) }

// FKRelations generates a primary-key relation R and a foreign-key
// relation S for Join experiments. Non-positive sizes return an error.
func FKRelations(c WorkloadConfig, rTuples int) (r, s *Relation, err error) {
	return workload.FKPair(c, rTuples)
}

// GroupByRelation generates a relation with the given average group size.
// Non-positive sizes return an error.
func GroupByRelation(c WorkloadConfig, avgGroupSize int) (*Relation, error) {
	return workload.GroupBy(c, avgGroupSize)
}

// ZipfRelation generates a skewed relation, for the skew study. Exponents
// outside (1, +Inf) return an error.
func ZipfRelation(name string, c WorkloadConfig, s float64) (*Relation, error) {
	return workload.Zipf(name, c, s)
}

// FKZipfRelations generates a primary-key relation R and a foreign-key
// relation S whose references to R are Zipf-skewed with the given
// exponent, for skewed Join experiments.
func FKZipfRelations(c WorkloadConfig, rTuples int, s float64) (r, sRel *Relation, err error) {
	return workload.FKPairZipf(c, rTuples, s)
}

// ScanNeedle picks a key guaranteed to occur in r and its frequency.
func ScanNeedle(r *Relation, seed int64) (Key, int) { return workload.ScanTarget(r, seed) }

// --- engine ------------------------------------------------------------------

// Arch identifies the compute architecture of an engine.
type Arch = engine.Arch

// The three architectures of the paper.
const (
	ArchCPU      = engine.CPU
	ArchNMP      = engine.NMP
	ArchMondrian = engine.Mondrian
)

// EngineConfig assembles one simulated system.
type EngineConfig = engine.Config

// Engine is a configured system instance.
type Engine = engine.Engine

// Unit is one compute unit (CPU core or per-vault logic-layer core).
type Unit = engine.Unit

// Region is a tuple array resident in one simulated vault.
type Region = engine.Region

// StepProfile characterizes one execution step's inner loop.
type StepProfile = engine.StepProfile

// StepTiming is a completed step's timing.
type StepTiming = engine.StepTiming

// NewEngine builds an engine from a configuration.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// --- operators -----------------------------------------------------------------

// OperatorConfig selects algorithm variants and the cost model.
type OperatorConfig = operators.Config

// CostModel holds per-tuple instruction costs and loop profiles.
type CostModel = operators.CostModel

// DefaultCosts returns the calibrated scalar cost model.
func DefaultCosts() CostModel { return operators.DefaultCosts() }

// MondrianCosts returns the cost model for the SIMD/stream-buffer unit.
func MondrianCosts() CostModel { return operators.MondrianCosts() }

// Aggregates holds the six Group-by aggregation results for one group.
type Aggregates = operators.Aggregates

// Operator results.
type (
	// ScanResult reports a Scan run.
	ScanResult = operators.ScanResult
	// SortResult reports a Sort run.
	SortResult = operators.SortResult
	// GroupByResult reports a Group-by run.
	GroupByResult = operators.GroupByResult
	// JoinResult reports a Join run.
	JoinResult = operators.JoinResult
	// SkewReport records a skew-aware partition phase's exact
	// destination loads and the buffer capacity provisioned for them
	// (PartitionResult.Skew).
	SkewReport = operators.SkewReport
)

// Scan searches every partition for tuples with the needle key.
func Scan(e *Engine, cfg OperatorConfig, inputs []*Region, needle Key) (*ScanResult, error) {
	return operators.Scan(e, cfg, inputs, needle)
}

// Sort globally sorts the dataset (range partition + local sorts).
func Sort(e *Engine, cfg OperatorConfig, inputs []*Region) (*SortResult, error) {
	return operators.Sort(e, cfg, inputs)
}

// GroupBy groups by key and applies the six aggregation functions.
func GroupBy(e *Engine, cfg OperatorConfig, inputs []*Region) (*GroupByResult, error) {
	return operators.GroupBy(e, cfg, inputs)
}

// Join executes the foreign-key equi-join R ⋈ S.
func Join(e *Engine, cfg OperatorConfig, rIn, sIn []*Region) (*JoinResult, error) {
	return operators.Join(e, cfg, rIn, sIn)
}

// ErrPartitionOverflow is returned when the announced shuffle data would
// overflow a vault's provisioned destination buffer — the exception the
// hardware raises for the CPU to handle on skewed datasets (§5.4).
// Callers retry with a larger OperatorConfig.Overprovision.
var ErrPartitionOverflow = operators.ErrPartitionOverflow

// Reference oracles for output verification.
var (
	RefScan          = operators.RefScan
	RefSort          = operators.RefSort
	RefGroupBy       = operators.RefGroupBy
	RefGroupByTuples = operators.RefGroupByTuples
	RefJoin          = operators.RefJoin
	Gather           = operators.Gather
)

// --- query plans ---------------------------------------------------------------

// Plan nodes compose operators into multi-stage queries (see
// internal/plan): PlanTable is a leaf of resident data; PlanFilter,
// PlanJoin, PlanGroupBy and PlanSort wrap the basic operators;
// PlanMultiJoin is a star-shaped join the compiler orders greedily.
// Execution tracks each intermediate's partitioning property and elides
// re-shuffles whose partition the input already carries; PlanOptions
// turns the elision off to reproduce the staged baseline.
type (
	PlanNode       = plan.Node
	PlanTable      = plan.Table
	PlanFilter     = plan.Filter
	PlanJoin       = plan.Join
	PlanMultiJoin  = plan.MultiJoin
	PlanGroupBy    = plan.GroupBy
	PlanSort       = plan.Sort
	PlanOptions    = plan.Options
	PlanStage      = plan.StageStats
	PipelineResult = plan.Result
)

// RunPipeline executes a query plan on the engine with re-shuffle elision
// enabled.
func RunPipeline(e *Engine, cfg OperatorConfig, root PlanNode) (*PipelineResult, error) {
	return plan.Run(e, cfg, root)
}

// RunPipelineWith executes a query plan under explicit options.
func RunPipelineWith(e *Engine, cfg OperatorConfig, root PlanNode, opts PlanOptions) (*PipelineResult, error) {
	return plan.RunWith(e, cfg, root, opts)
}

// Materialize compacts operator outputs into the canonical
// one-region-per-vault layout.
func Materialize(e *Engine, outs []*Region) ([]*Region, error) {
	return plan.Materialize(e, outs)
}

// --- MapReduce layer ---------------------------------------------------------

// MapReduceJob describes a MapReduce computation over tuples. Reducers
// must be commutative over their value lists — the same correctness
// requirement data permutability imposes on partition contents (§4.1.2).
type MapReduceJob = mapreduce.Job

// MapReduceResult reports a completed job.
type MapReduceResult = mapreduce.Result

// Mapper and Reducer are the job's user functions.
type (
	Mapper  = mapreduce.Mapper
	Reducer = mapreduce.Reducer
)

// RunMapReduce executes a job on the engine (map → permutable shuffle →
// reduce).
func RunMapReduce(e *Engine, job MapReduceJob, inputs []*Region) (*MapReduceResult, error) {
	return mapreduce.Run(e, job, inputs)
}

// RefMapReduce executes a job in plain Go for verification.
func RefMapReduce(job MapReduceJob, inputs []Tuple) []Tuple {
	return mapreduce.RefRun(job, inputs)
}

// --- BSP graph processing ------------------------------------------------------

// Graph is a directed graph for the BSP layer; BSPProgram a vertex
// program; BSPResult a completed run.
type (
	Graph      = bsp.Graph
	BSPProgram = bsp.Program
	BSPResult  = bsp.Result
)

// RunBSP executes up to maxSupersteps of a vertex program (scatter →
// permutable message exchange → apply).
func RunBSP(e *Engine, p BSPProgram, g *Graph, maxSupersteps int) (*BSPResult, error) {
	return bsp.Run(e, p, g, maxSupersteps)
}

// Canned BSP programs and graph utilities.
var (
	PageRankProgram   = bsp.PageRank
	ComponentsProgram = bsp.Components
	RefPageRank       = bsp.RefPageRank
	RefComponents     = bsp.RefComponents
	RandomGraph       = bsp.RandomGraph
	RingGraph         = bsp.Ring
	Symmetrize        = bsp.Symmetrize
)

// --- trace capture -----------------------------------------------------------

// TraceEvent is one recorded memory access; TraceRecorder captures them
// (install with Engine.SetTracer); TraceStats summarizes a stream.
type (
	TraceEvent    = trace.Event
	TraceRecorder = trace.Recorder
	TraceStats    = trace.Stats
)

// Traced access kinds.
const (
	TraceDemand   = engine.TraceDemand
	TraceShuffle  = engine.TraceShuffle
	TracePermuted = engine.TracePermuted
)

// AnalyzeTrace summarizes an access stream's locality structure.
func AnalyzeTrace(events []TraceEvent, rowBytes int) TraceStats {
	return trace.Analyze(events, rowBytes)
}

// --- experiments -----------------------------------------------------------------

// System identifies one of the paper's evaluated configurations.
type System = simulate.System

// The evaluated systems of §6.
const (
	SystemCPU            = simulate.CPU
	SystemNMP            = simulate.NMP
	SystemNMPPerm        = simulate.NMPPerm
	SystemNMPRand        = simulate.NMPRand
	SystemNMPSeq         = simulate.NMPSeq
	SystemMondrianNoPerm = simulate.MondrianNoPerm
	SystemMondrian       = simulate.Mondrian
)

// Systems lists every registered system in registration order.
func Systems() []System { return simulate.Systems() }

// Operator identifies one of the four basic data operators.
type Operator = simulate.Operator

// The four basic operators of Table 2.
const (
	OperatorScan    = simulate.OpScan
	OperatorSort    = simulate.OpSort
	OperatorGroupBy = simulate.OpGroupBy
	OperatorJoin    = simulate.OpJoin
)

// QueryPlan identifies one of the registered multi-operator query shapes
// the query-plan compiler lowers onto the operators.
type QueryPlan = simulate.Plan

// The registered query shapes.
const (
	QueryPlanFilterSort  = simulate.PlanFilterSort
	QueryPlanSortAgg     = simulate.PlanSortAgg
	QueryPlanJoinAgg     = simulate.PlanJoinAgg
	QueryPlanJoinAggSort = simulate.PlanJoinAggSort
	QueryPlanStarJoinAgg = simulate.PlanStarJoinAgg
)

// QueryPlans lists every registered query shape.
func QueryPlans() []QueryPlan { return simulate.Plans() }

// QueryPlanResult reports one (system, plan) experiment.
type QueryPlanResult = simulate.PlanResult

// RunQueryPlan compiles and executes one registered query shape on one
// system, verifying its output against the composed operator references.
// Params.NoFusion selects the staged baseline.
func RunQueryPlan(s System, pl QueryPlan, p Params) (*QueryPlanResult, error) {
	return simulate.RunPlan(s, pl, p)
}

// Params fixes an experimental setup.
type Params = simulate.Params

// ParamError is the typed rejection every invalid caller input surfaces
// as; its Field names the offending Params field.
type ParamError = simulate.ParamError

// InternalError is a panic recovered at the RunExperiment boundary — an
// engine invariant violation carrying the original value and stack.
type InternalError = simulate.InternalError

// Result is one experiment's outcome.
type Result = simulate.Result

// Suite memoizes experiment runs and assembles tables and figures.
type Suite = simulate.Suite

// EnergyBreakdown is a Fig. 8-style energy account.
type EnergyBreakdown = energy.Breakdown

// DefaultParams returns the paper's system shape with a laptop-scale
// dataset; TestParams a reduced shape for fast checks.
func DefaultParams() Params { return simulate.DefaultParams() }

// TestParams returns a shrunken, fast configuration.
func TestParams() Params { return simulate.TestParams() }

// RunExperiment executes one operator on one system and verifies output.
func RunExperiment(s System, op Operator, p Params) (*Result, error) {
	return simulate.Run(s, op, p)
}

// NewSuite creates a memoizing experiment suite.
func NewSuite(p Params) *Suite { return simulate.NewSuite(p) }

// --- reporting -------------------------------------------------------------------

// WriteTable5 renders the partition-speedup table.
func WriteTable5(w io.Writer, rows []simulate.Table5Row) { report.WriteTable5(w, rows) }

// WriteFig renders a per-operator grouped bar figure.
func WriteFig(w io.Writer, title string, series []simulate.FigSeries) {
	report.WriteFig(w, title, series)
}

// WriteFig8 renders the energy-breakdown figure.
func WriteFig8(w io.Writer, entries []simulate.Fig8Entry) { report.WriteFig8(w, entries) }

// WriteParams prints the Table 3/4 simulation parameters.
func WriteParams(w io.Writer, p Params) { report.WriteParams(w, p) }
