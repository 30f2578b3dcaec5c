package simulate

import (
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
)

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
// Result produced with p.Obs set: p.SimParams verbatim (the host half
// stays out), per-phase timings, every collected metric, and (when
// includeSpans) the span tree. The caller owns the host-side stamps the simulation cannot know —
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
		Params:           p.SimParams,
		Verified:         verified,
		SimulatedTotalNs: totalNs,
		Metrics:          p.Obs.Snapshot(),
		Host:             obs.NewHostInfo(p.Parallelism, p.NoBulk, p.NoPool),
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
