package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// Flight recorder and live-snapshot API (DESIGN.md §17): the scheduler
// retains the last Config.FlightRecords request records in a ring and
// exposes consistent point-in-time views of its live state — all under
// the same mutex that serializes dispatch, so a snapshot never observes
// a half-accounted run.

// Flight-record outcomes.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeRejected = "rejected"
)

// FlightPhase is one engine phase inside a flight record.
type FlightPhase struct {
	Name  string  `json:"name"`
	SimNs float64 `json:"sim_ns"`
}

// FlightRecord is one request's post-mortem record: identity, admission
// outcome, queue wait, per-phase simulated breakdown, and (with
// Config.Obs) the span tree behind /trace/{ticket}.
type FlightRecord struct {
	Ticket       uint64        `json:"ticket"`
	Tenant       string        `json:"tenant"`
	System       string        `json:"system"`
	Operator     string        `json:"operator"`
	ParamsDigest string        `json:"params_digest"`
	Priority     int           `json:"priority,omitempty"`
	Outcome      string        `json:"outcome"`
	Error        string        `json:"error,omitempty"`
	QueueNs      int64         `json:"queue_ns"`
	SimNs        float64       `json:"sim_ns,omitempty"`
	WallNs       int64         `json:"wall_ns,omitempty"`
	Phases       []FlightPhase `json:"phases,omitempty"`

	spans *obs.Span // retained only with Config.Obs
}

// capture folds a run's phase timings and span tree into the record
// before execute strips them off the response.
func (r *FlightRecord) capture(phases []engine.PhaseTiming, spans *obs.Span) {
	for _, ph := range phases {
		r.Phases = append(r.Phases, FlightPhase{Name: ph.Name, SimNs: ph.SimulatedNs()})
	}
	r.spans = spans
}

// requestOperator spells a request's work item: the operator name, or
// the plan name for plan requests.
func requestOperator(req Request) string {
	if req.IsPlan {
		return req.Plan.String()
	}
	return req.Operator.String()
}

// paramsDigest fingerprints a request's simulated configuration (FNV-64a
// over the JSON form of p.SimParams; the host half and Obs stay out).
// Two requests with equal digests ran the same simulated configuration.
func paramsDigest(p simulate.Params) string {
	b, err := json.Marshal(p.SimParams)
	if err != nil {
		return "unmarshalable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordFlightLocked appends one record to the ring (oldest evicted).
func (s *Scheduler) recordFlightLocked(rec FlightRecord) {
	if len(s.flight) == 0 {
		return
	}
	s.flight[s.flightNext] = rec
	s.flightNext = (s.flightNext + 1) % len(s.flight)
	if s.flightLen < len(s.flight) {
		s.flightLen++
	}
}

// flightRecordsLocked returns the live records oldest-first (spans
// included by reference; callers must not mutate them).
func (s *Scheduler) flightRecordsLocked() []FlightRecord {
	if s.flightLen == 0 {
		return nil
	}
	out := make([]FlightRecord, 0, s.flightLen)
	start := s.flightNext - s.flightLen
	if start < 0 {
		start += len(s.flight)
	}
	for i := 0; i < s.flightLen; i++ {
		out = append(out, s.flight[(start+i)%len(s.flight)])
	}
	return out
}

// FlightRecords returns a copy of the flight ring, oldest record first.
func (s *Scheduler) FlightRecords() []FlightRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flightRecordsLocked()
}

// takeFlightDumpLocked arms the one-shot dump: it returns the ring
// contents the first time a dump trigger fires (first admission reject
// or internal error) and nil afterwards — or always nil when no
// FlightDump writer is configured.
func (s *Scheduler) takeFlightDumpLocked() []FlightRecord {
	if s.cfg.FlightDump == nil || s.flightDumped || s.flightLen == 0 {
		return nil
	}
	s.flightDumped = true
	return s.flightRecordsLocked()
}

// writeFlightDump renders a dump outside the scheduler mutex (the
// writer may be a file or a network sink; never block dispatch on it).
func writeFlightDump(w io.Writer, records []FlightRecord) {
	if w == nil || len(records) == 0 {
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		FlightRecords []FlightRecord `json:"flight_records"`
	}{records})
}

// TraceSpans returns the retained span tree for a ticket ID, or nil when
// the record fell out of the ring, never retained spans, or never
// existed. The tree is deterministic engine output; callers must treat
// it as read-only.
func (s *Scheduler) TraceSpans(ticket uint64) *obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.flightLen; i++ {
		idx := s.flightNext - 1 - i
		for idx < 0 {
			idx += len(s.flight)
		}
		if s.flight[idx].Ticket == ticket {
			return s.flight[idx].spans
		}
	}
	return nil
}

// TenantLive is one tenant's live view: cumulative totals plus
// rolling-window percentiles and SLO state over the last
// WindowDur × WindowSlots of traffic.
type TenantLive struct {
	Tenant   string `json:"tenant"`
	QueueLen int    `json:"queue_len"`

	Runs    uint64 `json:"runs"`
	Errors  uint64 `json:"errors,omitempty"`
	Rejects uint64 `json:"rejects,omitempty"`

	// Window percentiles: queue wait in host ns, latency in simulated ns.
	WindowRuns     uint64  `json:"window_runs"`
	QueueWaitP50Ns float64 `json:"queue_wait_p50_ns"`
	QueueWaitP95Ns float64 `json:"queue_wait_p95_ns"`
	QueueWaitP99Ns float64 `json:"queue_wait_p99_ns"`
	LatencyP50Ns   float64 `json:"latency_p50_ns"`
	LatencyP95Ns   float64 `json:"latency_p95_ns"`
	LatencyP99Ns   float64 `json:"latency_p99_ns"`

	// ExchangeBytesWindow sums exchange traffic over the window
	// (populated only with Config.Obs).
	ExchangeBytesWindow float64 `json:"exchange_bytes_window,omitempty"`

	SLOTargetNs     float64 `json:"slo_target_ns"`
	SLOObjective    float64 `json:"slo_objective"`
	SLOGoodFraction float64 `json:"slo_good_fraction"`
	SLOBurnRate     float64 `json:"slo_burn_rate"`
}

// TenantsSnapshot returns every known tenant's live view, sorted by
// tenant name, as one consistent point-in-time snapshot.
func (s *Scheduler) TenantsSnapshot() []TenantLive {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantsLocked()
}

func (s *Scheduler) tenantsLocked() []TenantLive {
	s.advanceLocked()
	out := make([]TenantLive, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantLive{
			Tenant:              t.name,
			QueueLen:            len(t.queue),
			Runs:                t.runs,
			Errors:              t.errors,
			Rejects:             t.rejects,
			WindowRuns:          t.qwWin.Count(),
			QueueWaitP50Ns:      t.qwWin.Quantile(0.50),
			QueueWaitP95Ns:      t.qwWin.Quantile(0.95),
			QueueWaitP99Ns:      t.qwWin.Quantile(0.99),
			LatencyP50Ns:        t.latWin.Quantile(0.50),
			LatencyP95Ns:        t.latWin.Quantile(0.95),
			LatencyP99Ns:        t.latWin.Quantile(0.99),
			ExchangeBytesWindow: t.exWin.Sum(),
			SLOTargetNs:         t.slo.SLO().TargetNs,
			SLOObjective:        t.slo.SLO().Objective,
			SLOGoodFraction:     t.slo.GoodFraction(),
			SLOBurnRate:         t.slo.BurnRate(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// WritePrometheus renders the configured registry in Prometheus text
// format, with the rolling-window gauges refreshed first —
// tenant_queue_wait_p{50,95,99}_ns, tenant_latency_p*_ns,
// tenant_slo_burn_rate, tenant_queue_len, all tenant-labeled — so a
// scrape carries the same live view /tenants serves. The refresh and the
// snapshot happen under the scheduler mutex; rendering happens after
// unlocking, so a slow client never blocks dispatch. Writes nothing
// without a registry.
func (s *Scheduler) WritePrometheus(w io.Writer) error {
	reg := s.cfg.Obs
	if reg == nil {
		return nil
	}
	s.mu.Lock()
	for _, t := range s.tenantsLocked() {
		label := func(name string) string { return obs.Label(name, "tenant", t.Tenant) }
		reg.Gauge(label("tenant_queue_wait_p50_ns")).Set(t.QueueWaitP50Ns)
		reg.Gauge(label("tenant_queue_wait_p95_ns")).Set(t.QueueWaitP95Ns)
		reg.Gauge(label("tenant_queue_wait_p99_ns")).Set(t.QueueWaitP99Ns)
		reg.Gauge(label("tenant_latency_p50_ns")).Set(t.LatencyP50Ns)
		reg.Gauge(label("tenant_latency_p95_ns")).Set(t.LatencyP95Ns)
		reg.Gauge(label("tenant_latency_p99_ns")).Set(t.LatencyP99Ns)
		reg.Gauge(label("tenant_slo_burn_rate")).Set(t.SLOBurnRate)
		reg.Gauge(label("tenant_queue_len")).Set(float64(t.QueueLen))
	}
	snap := reg.Snapshot()
	s.mu.Unlock()
	return obs.WritePrometheus(w, snap)
}
