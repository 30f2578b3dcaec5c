package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// cell is one operation a workload asks of the simulator: an operator or
// a compiled query plan on one simulated system.
type cell struct {
	system simulate.System
	op     simulate.Operator
	plan   simulate.Plan
	isPlan bool
}

// kind is the operator's or plan's CLI spelling.
func (c cell) kind() string {
	if c.isPlan {
		return c.plan.String()
	}
	return simulate.OperatorNames()[c.op]
}

func (c cell) name() string { return c.system.String() + "/" + c.kind() }

// result is what one executed cell returned.
type result struct {
	op   *simulate.Result
	plan *simulate.PlanResult
}

func (r result) verified() bool {
	return (r.op != nil && r.op.Verified) || (r.plan != nil && r.plan.Verified)
}

// exec runs one cell through the simulator's public entry points.
func exec(c cell, p simulate.Params) (result, error) {
	if c.isPlan {
		r, err := simulate.RunPlan(c.system, c.plan, p)
		return result{plan: r}, err
	}
	r, err := simulate.Run(c.system, c.op, p)
	return result{op: r}, err
}

// fingerprint hashes every simulated statistic of a result: its report
// JSON without the phase timeline and span tree, which exist only when an
// obs registry is attached and carry host wall times. Two runs of one cell
// have equal fingerprints exactly when the simulator computed the same
// numbers.
func (r result) fingerprint() (string, error) {
	var v any
	switch {
	case r.op != nil:
		c := *r.op
		c.Phases, c.Spans = nil, nil
		v = c
	case r.plan != nil:
		c := *r.plan
		c.Phases, c.Spans = nil, nil
		v = c
	default:
		return "", fmt.Errorf("fingerprint: empty result")
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// matrix returns every system crossed with the given operators and plans,
// system-major.
func matrix(ops []simulate.Operator, plans []simulate.Plan) []cell {
	var out []cell
	for _, s := range simulate.Systems() {
		for _, op := range ops {
			out = append(out, cell{system: s, op: op})
		}
		for _, pl := range plans {
			out = append(out, cell{system: s, plan: pl, isPlan: true})
		}
	}
	return out
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// params builds the simulator setup from the workload seed.
	params func(seed int64) simulate.Params
	// cells are the distinct operations. A batch workload runs each once
	// per pass; the serving workload draws its requests from them.
	cells []cell
	serve bool
}

// Every workload runs at the paper's system shape, 4 cubes × 16 vaults
// with 16 CPU cores, so they share the engines built at set-up.
var workloads = []workload{
	{
		// The §7 sweep a researcher runs to regenerate the paper's
		// tables: read-only Scan streams next to partition-heavy Sort,
		// Group by and Join, which write through the exchange.
		name: "paper-matrix",
		params: func(seed int64) simulate.Params {
			p := simulate.DefaultParams()
			p.Seed = seed
			return p
		},
		cells: matrix(simulate.Operators(), nil),
	},
	{
		// The same operators composed into fused plans over
		// vault-resident intermediates, with re-shuffles elided and plan
		// materialization in the loop.
		name: "query-plans",
		params: func(seed int64) simulate.Params {
			p := simulate.DefaultParams()
			p.STuples = 1 << 17
			p.RTuples = 1 << 16
			p.Seed = seed
			return p
		},
		cells: matrix(nil, simulate.Plans()),
	},
	{
		// Many tiny queries from independent tenants: per-request engine
		// reset, input generation, verification and Go allocation
		// dominate, and the heavy-tailed service times (scans against
		// joins and plans) make queueing and fair scheduling show.
		name: "serve-mix",
		params: func(seed int64) simulate.Params {
			p := simulate.DefaultParams()
			p.STuples = 1 << 10
			p.RTuples = 1 << 9
			p.KeySpace = 1 << 16
			p.CPUBuckets = 1 << 8
			p.Seed = seed
			// Host parallelism comes from the scheduler's workers.
			p.Parallelism = 1
			return p
		},
		cells: matrix([]simulate.Operator{simulate.OpScan, simulate.OpJoin}, []simulate.Plan{simulate.PlanJoinAgg}),
		serve: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Serving mix: per system, eight scans, one join and one join-agg plan
// make a round; a request list is whole rounds in a seeded order, so
// every seed offers exactly the same work and only the order and the
// data differ.
const (
	serveTenants = 8
	serveRounds  = 20
	scansPerJoin = 8
)

// serveRequests returns the cell index of each request of one pass.
func serveRequests(cells []cell, seed int64) []int {
	var round []int
	for i, c := range cells {
		n := 1
		if !c.isPlan && c.op == simulate.OpScan {
			n = scansPerJoin
		}
		for k := 0; k < n; k++ {
			round = append(round, i)
		}
	}
	reqs := make([]int, 0, len(round)*serveRounds)
	for r := 0; r < serveRounds; r++ {
		reqs = append(reqs, round...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})
	return reqs
}

// simCounters sums the deterministic simulated statistics of a set of
// runs, one obs registry per run.
type simCounters map[string]float64

func (s simCounters) add(reg *obs.Registry) {
	snap := reg.Snapshot()
	for k, v := range snap.Counters {
		s[k] += float64(v)
	}
	for k, v := range snap.Gauges {
		s[k] += v
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics derives the per-layer simulated counters the benchmark reports.
func (s simCounters) metrics() map[string]float64 {
	return map[string]float64{
		"cache.l1_accesses":     s["l1_accesses"],
		"cache.l1_miss_ratio":   ratio(s["l1_misses"], s["l1_accesses"]),
		"cache.llc_miss_ratio":  ratio(s["llc_misses"], s["llc_accesses"]),
		"cache.tlb_miss_ratio":  ratio(s["tlb_l1_misses"], s["tlb_l1_accesses"]),
		"dram.row_hit_ratio":    ratio(s["dram_row_hits"], s["dram_row_hits"]+s["dram_row_cold_misses"]+s["dram_row_conflicts"]),
		"dram.activations":      s["dram_activations"],
		"dram.bytes":            s["dram_read_bytes"] + s["dram_write_bytes"],
		"noc.mesh_bytes":        s["mesh_bytes"],
		"noc.serdes_bytes":      s["serdes_bytes"],
		"hmc.stream_fill_bytes": s["stream_fill_bytes"],
		"hmc.objbuf_pushes":     s["objbuf_pushes"],
		"hmc.permuted_writes":   s["permuted_writes"],
		"engine.accesses":       s["accesses_total"],
		"engine.steps":          s["steps_total"],
		"engine.exchange_bytes": s["exchange_bytes"],
		"cores.instructions":    s["instructions_total"],
	}
}
