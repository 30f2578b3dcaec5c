package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
)

// ManifestSchema identifies the manifest JSON layout; bump on breaking
// changes so downstream tooling can dispatch on it.
const ManifestSchema = "mondrian-run-manifest/v2"

// PhaseSummary is one operator phase (partition, probe, ...) in the
// manifest: its simulated interval plus the host wall time the engine
// spent inside it. WallNs lives here (not in Host) but is stripped by
// Deterministic() along with the rest of the host-dependent data.
type PhaseSummary struct {
	Name        string  `json:"name"`
	SimulatedNs float64 `json:"simulated_ns"`
	WallNs      int64   `json:"wall_ns,omitempty"`
}

// HostInfo is the non-deterministic section of a manifest: everything
// that legitimately varies across machines, processes and parallelism
// levels. Deterministic() zeroes it before golden comparison.
type HostInfo struct {
	GoVersion   string `json:"go_version,omitempty"`
	GOOS        string `json:"goos,omitempty"`
	GOARCH      string `json:"goarch,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`
	// Parallelism is the resolved host worker setting (GOMAXPROCS when
	// the run asked for 0); NoBulk and NoPool record whether the run used
	// the per-element reference path and bypassed the engine pool.
	Parallelism int    `json:"parallelism"`
	NoBulk      bool   `json:"no_bulk"`
	NoPool      bool   `json:"no_pool"`
	WallNs      int64  `json:"wall_ns,omitempty"`
	Timestamp   string `json:"timestamp,omitempty"`
}

// Manifest is the machine-readable record of one simulation run: the
// configuration that produced it, per-phase simulated/wall breakdown,
// every metric in the registry, and (optionally) the span tree.
// Everything outside Host and per-phase WallNs is deterministic.
type Manifest struct {
	Schema   string `json:"schema"`
	System   string `json:"system"`
	Operator string `json:"operator"`

	// Params is supplied by the caller (simulate.SimParams, the whole
	// simulated configuration): any JSON-marshalable struct. Struct
	// fields marshal in declaration order, so the JSON form is
	// deterministic.
	Params any `json:"params,omitempty"`

	Verified         bool            `json:"verified"`
	SimulatedTotalNs float64         `json:"simulated_total_ns"`
	Phases           []PhaseSummary  `json:"phases,omitempty"`
	Metrics          Snapshot        `json:"metrics"`
	Windows          []WindowSummary `json:"windows,omitempty"`
	Spans            *Span           `json:"spans,omitempty"`
	Host             HostInfo        `json:"host"`
}

// WindowSummary is the percentile digest of one histogram family in the
// manifest — the same p50/p95/p99 view the live /tenants endpoint serves,
// computed here from the run's cumulative buckets so offline manifests
// and live snapshots read the same way. Deterministic: derived purely
// from bucket counts.
type WindowSummary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// SummarizeHistograms digests every histogram in s into a WindowSummary,
// sorted by name (deterministic). Returns nil when s has no histograms.
func SummarizeHistograms(s Snapshot) []WindowSummary {
	if len(s.Histograms) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]WindowSummary, 0, len(names))
	for _, name := range names {
		h := s.Histograms[name]
		out = append(out, WindowSummary{
			Name:  name,
			Count: h.Count,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	return out
}

// Deterministic returns a copy of m with every host-dependent field
// zeroed: the Host section and each phase's WallNs. Two runs of the same
// workload at different -parallelism levels (or on different machines)
// must produce byte-identical JSON for the result — this is the object
// the golden determinism suite compares.
func (m Manifest) Deterministic() Manifest {
	m.Host = HostInfo{}
	if len(m.Phases) > 0 {
		phases := make([]PhaseSummary, len(m.Phases))
		copy(phases, m.Phases)
		for i := range phases {
			phases[i].WallNs = 0
		}
		m.Phases = phases
	}
	return m
}

// WriteJSON marshals the manifest with indentation and a trailing
// newline.
func (m Manifest) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// NewHostInfo captures the current process's build/runtime identity and
// the run's host execution settings; a parallelism of 0 resolves to
// GOMAXPROCS. Timestamp and WallNs are left for the caller (they need a
// clock).
func NewHostInfo(parallelism int, noBulk, noPool bool) HostInfo {
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return HostInfo{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GitRevision: GitRevision(),
		Parallelism: parallelism,
		NoBulk:      noBulk,
		NoPool:      noPool,
	}
}

// GitRevision returns the VCS revision stamped into the binary by the Go
// toolchain, suffixed with "+dirty" for modified trees. Empty when no VCS
// info is available (e.g. `go test` binaries).
func GitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}
