// Package serve runs the simulator as a shared service: many tenants
// submit (system, operator) or plan experiments, and a scheduler
// multiplexes them over a bounded worker set that draws reset engines
// from the simulate layer's pool instead of constructing one per query.
//
// Three policies shape the service (DESIGN.md §16):
//
//   - Admission control is reject-not-queue: a request whose simulated
//     memory system would push the aggregate vault-capacity footprint of
//     queued-plus-running work past the configured budget is refused
//     immediately with a typed *ErrAdmission, never parked in an
//     unbounded overflow queue. Per-tenant queue depth is bounded the
//     same way.
//   - Dispatch is fair queueing by stride scheduling: each tenant
//     advances a virtual-time pass by one per dispatched run, and the
//     scheduler always serves the backlogged tenant with the smallest
//     pass (ties break on tenant name, so the order is deterministic).
//     Within one tenant, higher Priority first, then submission order.
//   - Observability is per-tenant: runs, simulated nanoseconds, exchange
//     bytes, queue-wait histograms and admission rejects land on the
//     configured registry under a tenant label. The scheduler owns that
//     registry: every write happens under its mutex, and
//     Scheduler.WritePrometheus snapshots it there and renders after
//     unlocking (DESIGN.md §17).
//
// On top of the cumulative registry the scheduler keeps live state for
// runtime introspection (DESIGN.md §17): per-tenant rolling windows
// (p50/p95/p99 queue wait, simulated latency, exchange bytes over the
// last WindowDur×WindowSlots), per-tenant SLO burn rates, and a bounded
// flight recorder retaining the last FlightRecords requests — see
// flight.go for the snapshot/export API.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// DefaultQueueDepth bounds each tenant's queue when Config.QueueDepth
// is unset.
const DefaultQueueDepth = 64

// Rolling-window and flight-recorder defaults (Config overrides).
const (
	DefaultWindowDur     = 5 * time.Second // per-slot rotation period
	DefaultWindowSlots   = 12              // 12 × 5s = one-minute window
	DefaultFlightRecords = 256             // flight-recorder ring capacity
	DefaultSLOTargetNs   = 5e7             // 50ms simulated latency
	DefaultSLOObjective  = 0.99            // 99% of runs within target
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrAdmission reports a request refused at the door. It is a typed
// error (match with errors.As) so callers can tell a capacity refusal —
// retry later, against a different deployment, or with a smaller
// configuration — from a malformed request.
type ErrAdmission struct {
	// Tenant is the submitting tenant.
	Tenant string
	// Reason says which limit refused the request.
	Reason string
	// FootprintBytes is the request's own vault-capacity footprint;
	// BudgetBytes the scheduler's aggregate budget (0 = unlimited).
	FootprintBytes int64
	BudgetBytes    int64
}

// Error implements error.
func (e *ErrAdmission) Error() string {
	return fmt.Sprintf("serve: tenant %q refused: %s (request footprint %d B, budget %d B)",
		e.Tenant, e.Reason, e.FootprintBytes, e.BudgetBytes)
}

// Request is one experiment submission. IsPlan selects the compiled-plan
// path (Plan) over the single-operator path (Operator).
type Request struct {
	System   simulate.System
	Operator simulate.Operator
	Plan     simulate.Plan
	IsPlan   bool
	Params   simulate.Params
	// Priority orders runs within one tenant: higher first, ties in
	// submission order. It never preempts fairness across tenants.
	Priority int
}

// Response is one completed submission. Exactly one of Result/PlanResult
// is set on success; Err carries validation or simulation failures.
type Response struct {
	Result     *simulate.Result
	PlanResult *simulate.PlanResult
	Err        error
	// QueueNs is host time spent queued before dispatch.
	QueueNs int64
}

// Ticket is the caller's handle on a submitted request.
type Ticket struct {
	id   uint64
	done chan struct{}
	resp Response
}

// ID returns the ticket's scheduler-unique identifier — the key for
// flight-recorder lookups and the /trace/{ticket} endpoint.
func (t *Ticket) ID() uint64 { return t.id }

// Done is closed when the response is ready.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the response is ready and returns it.
func (t *Ticket) Wait() Response {
	<-t.done
	return t.resp
}

// Config shapes a Scheduler.
type Config struct {
	// Workers is the number of goroutines executing runs. 0 means no
	// background workers: requests queue until someone drives
	// dispatchNext, the deterministic mode the policy tests use.
	Workers int
	// QueueDepth bounds each tenant's queue (0 = DefaultQueueDepth).
	QueueDepth int
	// FootprintBudgetBytes bounds the aggregate simulated vault
	// capacity (Cubes × VaultsPer × VaultCapBytes summed over queued
	// and running requests) the scheduler will hold at once. 0 means
	// unlimited.
	FootprintBudgetBytes int64
	// Obs, when non-nil, receives the per-tenant service metrics; the
	// scheduler owns it from New on (read it through WritePrometheus, or
	// after Close). It also turns on engine-level harvesting: every run
	// that brings no registry of its own gets a private one, which
	// populates tenant_exchange_bytes and keeps the run's span tree in
	// its flight record for /trace/{ticket}. That collection costs real
	// host time per run, so a throughput-focused deployment leaves Obs
	// nil.
	Obs *obs.Registry

	// WindowDur is the rotation period of the rolling live windows
	// (0 = DefaultWindowDur); WindowSlots is the ring length
	// (0 = DefaultWindowSlots). The live percentiles cover the last
	// WindowDur × WindowSlots of traffic.
	WindowDur   time.Duration
	WindowSlots int

	// SLOTargetNs / SLOObjective define every tenant's latency SLO:
	// "SLOObjective of runs finish within SLOTargetNs simulated ns"
	// (0 = DefaultSLOTargetNs / DefaultSLOObjective). Errors and
	// admission rejects always count against the budget.
	SLOTargetNs  float64
	SLOObjective float64

	// FlightRecords bounds the flight-recorder ring: the last N request
	// records kept for /flightrecorder and /trace/{ticket}
	// (0 = DefaultFlightRecords, negative disables recording).
	FlightRecords int
	// FlightDump, when non-nil, receives one JSON dump of the flight
	// ring on the first admission reject or internal error — the
	// "what just went wrong" artifact, written at most once.
	FlightDump io.Writer

	// now substitutes the wall clock in tests (nil = time.Now).
	now func() time.Time
}

// windowDur/windowSlots/flightRecords resolve defaults.
func (c Config) windowDur() time.Duration {
	if c.WindowDur <= 0 {
		return DefaultWindowDur
	}
	return c.WindowDur
}

func (c Config) windowSlots() int {
	if c.WindowSlots <= 0 {
		return DefaultWindowSlots
	}
	return c.WindowSlots
}

func (c Config) flightRecords() int {
	if c.FlightRecords == 0 {
		return DefaultFlightRecords
	}
	if c.FlightRecords < 0 {
		return 0
	}
	return c.FlightRecords
}

func (c Config) slo() obs.SLO {
	slo := obs.SLO{TargetNs: c.SLOTargetNs, Objective: c.SLOObjective}
	if slo.TargetNs <= 0 {
		slo.TargetNs = DefaultSLOTargetNs
	}
	if !(slo.Objective > 0 && slo.Objective < 1) {
		slo.Objective = DefaultSLOObjective
	}
	return slo
}

// item is one queued request.
type item struct {
	tenant    string
	req       Request
	ticket    *Ticket
	footprint int64
	seq       uint64
	enqueued  time.Time
}

// tenantState is one tenant's queue, stride-scheduling state, and live
// rolling-window aggregation. The windows and the SLO tracker are
// unsynchronized obs types; the scheduler mutex owns them.
type tenantState struct {
	name  string
	pass  uint64
	queue []*item

	runs, errors, rejects uint64

	qwWin  *obs.Window // queue wait, host ns
	latWin *obs.Window // simulated latency, ns
	exWin  *obs.Window // exchange bytes per run (with Config.Obs only)
	slo    *obs.SLOTracker
}

// Scheduler is the multi-tenant run scheduler. Create with New, submit
// with Submit, shut down with Close.
type Scheduler struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenantState
	queued    int
	footprint int64 // reserved bytes: queued + running requests
	seq       uint64
	basePass  uint64 // virtual time: pass of the last dispatched tenant
	closed    bool
	wg        sync.WaitGroup

	lastAdvance time.Time // last rolling-window rotation

	flight       []FlightRecord // ring buffer, flightRecords() capacity
	flightNext   int            // next write slot
	flightLen    int            // live records (≤ cap)
	flightDumped bool           // FlightDump fired already
}

// New builds a scheduler and starts cfg.Workers workers.
func New(cfg Config) *Scheduler {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Scheduler{cfg: cfg, tenants: make(map[string]*tenantState)}
	if n := cfg.flightRecords(); n > 0 {
		s.flight = make([]FlightRecord, n)
	}
	s.lastAdvance = cfg.now()
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// footprintBytes is the admission-control unit: the simulated DRAM
// capacity a request's memory system spans. It is a property of the
// system shape, not the dataset — the engine owns every vault it is
// built with for the whole run.
func footprintBytes(p simulate.Params) int64 {
	if p.Cubes <= 0 || p.VaultsPer <= 0 || p.VaultCapBytes <= 0 {
		return 0
	}
	return int64(p.Cubes) * int64(p.VaultsPer) * p.VaultCapBytes
}

// Submit enqueues one request for tenant. It returns a Ticket to wait
// on, or an *ErrAdmission if a capacity bound refuses the request, or
// ErrClosed after Close. Submit never blocks on queue pressure.
func (s *Scheduler) Submit(tenant string, req Request) (*Ticket, error) {
	fp := footprintBytes(req.Params)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.advanceLocked()
	t := s.tenantLocked(tenant)
	s.seq++ // every submission gets an ID, rejected ones included
	depth := s.cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	var adm *ErrAdmission
	if len(t.queue) >= depth {
		adm = &ErrAdmission{
			Tenant: tenant, Reason: fmt.Sprintf("tenant queue depth %d reached", depth),
			FootprintBytes: fp, BudgetBytes: s.cfg.FootprintBudgetBytes,
		}
	} else if b := s.cfg.FootprintBudgetBytes; b > 0 && s.footprint+fp > b {
		adm = &ErrAdmission{
			Tenant: tenant, Reason: "aggregate vault-capacity footprint budget exceeded",
			FootprintBytes: fp, BudgetBytes: b,
		}
	}
	if adm != nil {
		s.rejectLocked(t)
		s.recordFlightLocked(FlightRecord{
			Ticket: s.seq, Tenant: tenant, Outcome: OutcomeRejected,
			Error: adm.Error(), System: req.System.String(),
			Operator: requestOperator(req), Priority: req.Priority,
			ParamsDigest: paramsDigest(req.Params),
		})
		dump := s.takeFlightDumpLocked()
		s.mu.Unlock()
		writeFlightDump(s.cfg.FlightDump, dump)
		return nil, adm
	}
	s.footprint += fp
	if len(t.queue) == 0 && t.pass < s.basePass {
		// Activation catch-up: a tenant returning from idle joins at the
		// current virtual time instead of replaying its idle period.
		t.pass = s.basePass
	}
	it := &item{
		tenant: tenant, req: req, footprint: fp, seq: s.seq,
		enqueued: time.Now(), ticket: &Ticket{id: s.seq, done: make(chan struct{})},
	}
	t.queue = append(t.queue, it)
	s.queued++
	s.cond.Signal()
	s.mu.Unlock()
	return it.ticket, nil
}

// Close stops admission, fails every still-queued request with
// ErrClosed, and waits for in-flight runs to finish. Callers who want
// their submitted work completed wait on their tickets before closing.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var cancelled []*item
	for _, t := range s.tenants {
		cancelled = append(cancelled, t.queue...)
		t.queue = nil
	}
	for _, it := range cancelled {
		s.footprint -= it.footprint
	}
	s.queued = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, it := range cancelled {
		it.ticket.resp = Response{Err: ErrClosed}
		close(it.ticket.done)
	}
	s.wg.Wait()
}

// Rolling-window bucket bounds. Queue wait is host time (1 µs – 10 s);
// latency is simulated nanoseconds (1 µs – 100 s); exchange bytes are
// per-run volumes (100 B – 1 GB).
var (
	latencyBounds       = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	exchangeBytesBounds = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// tenantLocked returns (creating if needed) a tenant's state.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		slots := s.cfg.windowSlots()
		t = &tenantState{
			name:   name,
			qwWin:  obs.NewWindow(slots, queueWaitBounds),
			latWin: obs.NewWindow(slots, latencyBounds),
			exWin:  obs.NewWindow(slots, exchangeBytesBounds),
			slo:    obs.NewSLOTracker(slots, s.cfg.slo()),
		}
		s.tenants[name] = t
	}
	return t
}

// advanceLocked rotates every tenant's rolling windows once per elapsed
// WindowDur period. Called on the paths that touch live state (account,
// snapshot), so windows stay current without a background timer; an idle
// gap longer than the whole window clears it in at most windowSlots
// rotations.
func (s *Scheduler) advanceLocked() {
	dur := s.cfg.windowDur()
	now := s.cfg.now()
	slots := s.cfg.windowSlots()
	for steps := 0; now.Sub(s.lastAdvance) >= dur; steps++ {
		if steps >= slots {
			// Every slot already cleared; jump to now.
			s.lastAdvance = now
			break
		}
		s.lastAdvance = s.lastAdvance.Add(dur)
		for _, t := range s.tenants {
			t.qwWin.Advance()
			t.latWin.Advance()
			t.exWin.Advance()
			t.slo.Advance()
		}
	}
}

// rejectLocked counts one admission refusal against the tenant's
// cumulative counter, live counters and SLO budget.
func (s *Scheduler) rejectLocked(t *tenantState) {
	t.rejects++
	t.slo.RecordBad()
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter(obs.Label("tenant_admission_rejects", "tenant", t.name)).Inc()
	}
}

// popLocked removes and returns the next item under the fairness policy:
// the backlogged tenant with the smallest pass (ties on name), then that
// tenant's highest-priority oldest request. Caller holds the mutex and
// has checked queued > 0.
func (s *Scheduler) popLocked() *item {
	var best *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
			best = t
		}
	}
	bi := 0
	for i, it := range best.queue[1:] {
		cur := best.queue[bi]
		if it.req.Priority > cur.req.Priority ||
			(it.req.Priority == cur.req.Priority && it.seq < cur.seq) {
			bi = i + 1
		}
	}
	it := best.queue[bi]
	best.queue = append(best.queue[:bi], best.queue[bi+1:]...)
	s.queued--
	s.basePass = best.pass
	best.pass++
	return it
}

// worker is one background executor: pop under the fairness policy, run,
// account, repeat until closed.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queued == 0 {
			s.cond.Wait()
		}
		if s.queued == 0 {
			// closed, and Close already cancelled the queues
			s.mu.Unlock()
			return
		}
		it := s.popLocked()
		s.mu.Unlock()
		s.execute(it)
	}
}

// dispatchNext pops and executes one request on the calling goroutine.
// It returns false when every queue is empty. With Config.Workers == 0
// this is the only executor, which makes dispatch order — and therefore
// the fairness policy — directly observable in tests.
func (s *Scheduler) dispatchNext() bool {
	s.mu.Lock()
	if s.queued == 0 {
		s.mu.Unlock()
		return false
	}
	it := s.popLocked()
	s.mu.Unlock()
	s.execute(it)
	return true
}

// execute runs one dequeued item to completion: simulate, release the
// footprint reservation, account per-tenant metrics, land the flight
// record, resolve the ticket.
func (s *Scheduler) execute(it *item) {
	resp := Response{QueueNs: time.Since(it.enqueued).Nanoseconds()}
	p := it.req.Params
	// Harvest engine-level statistics (exchange bytes, spans) through a
	// private registry when the caller did not bring one — then strip the
	// obs-derived report fields again so a served Result stays
	// byte-identical to a direct simulate.Run of the same request. The
	// phase/span trees move into the flight record instead of vanishing.
	var priv *obs.Registry
	if s.cfg.Obs != nil && p.Obs == nil {
		priv = obs.NewRegistry()
		p.Obs = priv
	}
	rec := FlightRecord{
		Ticket: it.ticket.id, Tenant: it.tenant, Outcome: OutcomeOK,
		System: it.req.System.String(), Operator: requestOperator(it.req),
		Priority: it.req.Priority, ParamsDigest: paramsDigest(it.req.Params),
		QueueNs: resp.QueueNs,
	}
	wallStart := time.Now()
	if it.req.IsPlan {
		r, err := simulate.RunPlan(it.req.System, it.req.Plan, p)
		if r != nil {
			rec.SimNs = r.TotalNs
			if priv != nil {
				rec.capture(r.Phases, r.Spans)
				r.Phases, r.Spans = nil, nil
			}
		}
		resp.PlanResult, resp.Err = r, err
	} else {
		r, err := simulate.Run(it.req.System, it.req.Operator, p)
		if r != nil {
			rec.SimNs = r.TotalNs
			if priv != nil {
				rec.capture(r.Phases, r.Spans)
				r.Phases, r.Spans = nil, nil
			}
		}
		resp.Result, resp.Err = r, err
	}
	rec.WallNs = time.Since(wallStart).Nanoseconds()
	if resp.Err != nil {
		rec.Outcome = OutcomeError
		rec.Error = resp.Err.Error()
	}

	s.mu.Lock()
	s.footprint -= it.footprint
	s.accountLocked(it, &resp, priv)
	s.recordFlightLocked(rec)
	var dump []FlightRecord
	var ierr *simulate.InternalError
	if errors.As(resp.Err, &ierr) {
		dump = s.takeFlightDumpLocked()
	}
	s.mu.Unlock()
	writeFlightDump(s.cfg.FlightDump, dump)

	it.ticket.resp = resp
	close(it.ticket.done)
}

// queueWaitBounds buckets host queue-wait times from 1 µs to 10 s.
var queueWaitBounds = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// accountLocked lands one completed run on the per-tenant metrics: the
// cumulative registry plus the rolling windows and SLO tracker the
// /tenants snapshot serves.
func (s *Scheduler) accountLocked(it *item, resp *Response, priv *obs.Registry) {
	s.advanceLocked()
	t := s.tenantLocked(it.tenant)
	t.runs++
	t.qwWin.Record(float64(resp.QueueNs))

	reg := s.cfg.Obs
	label := func(name string) string { return obs.Label(name, "tenant", it.tenant) }
	if reg != nil {
		reg.Counter(label("tenant_runs")).Inc()
		reg.Histogram(label("tenant_queue_wait_ns"), queueWaitBounds).Observe(float64(resp.QueueNs))
	}
	if resp.Err != nil {
		t.errors++
		t.slo.RecordBad()
		if reg != nil {
			reg.Counter(label("tenant_errors")).Inc()
		}
		return
	}
	var simNs float64
	switch {
	case resp.Result != nil:
		simNs = resp.Result.TotalNs
	case resp.PlanResult != nil:
		simNs = resp.PlanResult.TotalNs
	}
	t.latWin.Record(simNs)
	t.slo.Record(simNs)
	if reg != nil {
		reg.Gauge(label("tenant_sim_ns")).Add(simNs)
	}
	if priv != nil {
		xb := priv.Counter("exchange_bytes").Value()
		t.exWin.Record(float64(xb))
		if reg != nil {
			reg.Counter(label("tenant_exchange_bytes")).Add(xb)
		}
	}
}
