// Package obs is the simulator's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms), a
// simulated-time span tree, rolling live windows with percentile
// estimation, and exporters — a machine-readable JSON run manifest,
// Prometheus text format, and Chrome trace_event JSON.
//
// Design constraints, in order:
//
//   - Determinism. Every metric recorded from simulation state must be
//     byte-identical across host parallelism levels. The engine therefore
//     harvests metrics from the simulation's own deterministic statistics
//     (cache/DRAM/NoC counters, per-unit accumulators) at serial points —
//     step and phase boundaries — rather than instrumenting concurrent
//     hot paths.
//   - Near-zero cost when disabled. A nil *Registry is a valid "off"
//     handle: every method on a nil Registry, Counter, Gauge or Histogram
//     is a no-op returning nil, so instrumented code needs no branches
//     beyond the ones the nil receivers already provide, and the hot
//     loops allocate nothing (pinned by engine's AllocsPerRun tests and
//     the BenchmarkObsOverhead delta budget).
//   - Zero dependencies. Only the standard library.
//
// Metrics are identified by name; a Prometheus-style label set may be
// embedded in the name with Label (`dram_row_hits{vault="3"}`). Metrics
// are not internally synchronized: a registry must be owned by one
// goroutine at a time, or by whoever holds its owner's lock (the serving
// scheduler keeps its registry under its own mutex and exports from a
// Snapshot taken there).
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil Counter ignores all updates.
type Counter struct {
	v uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a float64 metric representing a current value. A nil Gauge
// ignores all updates.
type Gauge struct {
	v float64
}

// Set assigns the gauge's value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adjusts the gauge by d. No-op on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value returns the gauge's current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive upper
// bound of bucket i, and one implicit overflow bucket catches everything
// above the last bound. A nil Histogram ignores all observations.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow (+Inf) bucket
	count  uint64
	sum    float64
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations of v — equivalent to n
// Observe(v) calls (the bulk form the engine's post-run harvesting uses).
// No-op on a nil receiver or n == 0.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i] += n
	h.count += n
	h.sum += v * float64(n)
}

// Snapshot returns the histogram's current state (zero value when nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// Registry holds named metrics. A nil *Registry is the disabled fast
// path: Counter/Gauge/Histogram return nil handles whose methods no-op.
type Registry struct {
	metrics map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Counter returns (registering on first use) the named counter.
// Returns nil — a valid no-op handle — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.metrics[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return c
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns (registering on first use) the named gauge.
// Returns nil — a valid no-op handle — on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.metrics[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return g
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket upper bounds, which must be sorted ascending. A
// re-registration must use identical bounds. Returns nil — a valid no-op
// handle — on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	if m, ok := r.metrics[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		if !equalBounds(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.metrics[name] = h
	return h
}

// HistogramSnapshot is the exported state of one histogram. Counts has
// len(Bounds)+1 entries; the last is the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation within the selected bucket — the same
// estimator Prometheus's histogram_quantile uses. Observations in the
// overflow bucket clamp to the last finite bound. Returns 0 when the
// histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantileFromBuckets(s.Bounds, s.Counts, s.Count, q)
}

// quantileFromBuckets is the shared bucket-interpolation estimator used
// by HistogramSnapshot.Quantile and the rolling Window.
func quantileFromBuckets(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, bound := range bounds {
		prev := cum
		cum += counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if counts[i] == 0 {
				return bound
			}
			frac := (rank - float64(prev)) / float64(counts[i])
			if frac < 0 {
				frac = 0
			}
			return lower + (bound-lower)*frac
		}
	}
	// Overflow bucket: clamp to the last finite bound.
	return bounds[len(bounds)-1]
}

// Snapshot is the exported state of a whole registry. The maps marshal
// with sorted keys (encoding/json), so the JSON form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every metric's current value (zero value when nil).
// The snapshot shares no state with the registry, so it may be read or
// exported after the registry's owner has moved on.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = m.v
		case *Gauge:
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[name] = m.v
		case *Histogram:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistogramSnapshot)
			}
			s.Histograms[name] = m.Snapshot()
		}
	}
	return s
}

// Label appends one label to a metric name in Prometheus syntax:
// Label("dram_row_hits", "vault", "3") == `dram_row_hits{vault="3"}`,
// and labeling an already-labeled name extends its label set. The value
// is escaped per the text exposition format (backslash, quote, newline).
func Label(name, key, value string) string {
	value = escapeLabelValue(value)
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// escapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double-quote and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitName separates a possibly-labeled metric name into its family name
// and label body: `a{b="c"}` → ("a", `b="c"`).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
