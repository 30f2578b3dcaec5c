package simulate

import (
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
)

// ManifestParams is the workload description embedded in a run manifest.
// It deliberately EXCLUDES Parallelism and NoBulk-style host knobs that
// do not affect simulated results — those live in the manifest's Host
// section — so two runs of the same workload at different -parallelism
// settings produce byte-identical Deterministic() manifests. Struct
// fields marshal in declaration order, keeping the JSON deterministic.
type ManifestParams struct {
	Cubes         int     `json:"cubes"`
	VaultsPer     int     `json:"vaults_per"`
	CPUCores      int     `json:"cpu_cores"`
	VaultCapBytes int64   `json:"vault_cap_bytes"`
	STuples       int     `json:"s_tuples"`
	RTuples       int     `json:"r_tuples"`
	GroupSize     int     `json:"group_size"`
	KeySpace      uint64  `json:"key_space"`
	CPUBuckets    int     `json:"cpu_buckets"`
	Seed          int64   `json:"seed"`
	BarrierNs     float64 `json:"barrier_ns"`
}

// manifestParams projects the deterministic workload description out of
// a full Params.
func manifestParams(p Params) ManifestParams {
	return ManifestParams{
		Cubes:         p.Cubes,
		VaultsPer:     p.VaultsPer,
		CPUCores:      p.CPUCores,
		VaultCapBytes: p.VaultCapBytes,
		STuples:       p.STuples,
		RTuples:       p.RTuples,
		GroupSize:     p.GroupSize,
		KeySpace:      p.KeySpace,
		CPUBuckets:    p.CPUBuckets,
		Seed:          p.Seed,
		BarrierNs:     p.BarrierNs,
	}
}

// collectEnergy records the run's energy breakdown as gauges. Energy is a
// pure function of simulated activity, so these are deterministic.
func collectEnergy(reg *obs.Registry, b energy.Breakdown) {
	reg.Gauge("energy_dram_dynamic_j").Set(b.DRAMDynamic)
	reg.Gauge("energy_dram_static_j").Set(b.DRAMStatic)
	reg.Gauge("energy_cores_j").Set(b.Cores)
	reg.Gauge("energy_llc_j").Set(b.LLC)
	reg.Gauge("energy_network_j").Set(b.Network)
	reg.Gauge("energy_total_j").Set(b.Total())
}

// BuildManifest assembles the machine-readable run manifest for one
// Result produced with p.Obs set: workload params, per-phase timings,
// every collected metric, and (when includeSpans) the span tree. The
// caller owns the host-side stamps the simulation cannot know —
// Host.WallNs and Host.Timestamp. Everything outside Host and per-phase
// WallNs is byte-identical across -parallelism settings; see
// Manifest.Deterministic.
func BuildManifest(res *Result, p Params, includeSpans bool) *obs.Manifest {
	return buildManifest(res.System, res.Operator.String(), res.Verified, res.TotalNs, res.Phases, res.Spans, p, includeSpans)
}

// buildManifest is BuildManifest and BuildPlanManifest's one
// implementation; the two differ only in the Operator string.
func buildManifest(s System, operator string, verified bool, totalNs float64,
	phases []engine.PhaseTiming, spans *obs.Span, p Params, includeSpans bool) *obs.Manifest {
	m := &obs.Manifest{
		Schema:           obs.ManifestSchema,
		System:           s.String(),
		Operator:         operator,
		Params:           manifestParams(p),
		Verified:         verified,
		SimulatedTotalNs: totalNs,
		Metrics:          p.Obs.Snapshot(),
		Host:             obs.NewHostInfo(p.Parallelism),
	}
	m.Windows = obs.SummarizeHistograms(m.Metrics)
	for _, ph := range phases {
		m.Phases = append(m.Phases, obs.PhaseSummary{
			Name:        ph.Name,
			SimulatedNs: ph.SimulatedNs(),
			WallNs:      ph.WallNs,
		})
	}
	if includeSpans {
		m.Spans = spans
	}
	return m
}
