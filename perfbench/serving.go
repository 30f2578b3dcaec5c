package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/serve"
)

// Serving ladder: the latency limit on a request's p99, the fixed offered
// rates, and the two rates whose latencies are reported. The ladder climbs
// until a rung's backlog grows, past capacity, and always reaches both
// reported rates.
const sloMs = 20

var ladderRates = []float64{400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400, 2800, 3200}

const (
	lowRate  = 400
	highRate = 1200
)

// tracedServePasses is how many saturating passes the traced phase of
// serve-mix profiles; the first one's simulated counters are reported.
const tracedServePasses = 3

var tenants = func() []string {
	t := make([]string, serveTenants)
	for i := range t {
		t[i] = fmt.Sprintf("tenant-%d", i)
	}
	return t
}()

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pending is one admitted request awaiting its response.
type pending struct {
	cell   cell
	ticket *serve.Ticket
	reg    *obs.Registry
}

// submit sends one request for the tenant. A refused request counts as a
// failed operation and returns nil.
func (b *bench) submit(s *serve.Scheduler, tenant string, c cell, t *tracer) *pending {
	p, reg := traceParams(b.p, t)
	req := serve.Request{System: c.system, Operator: c.op, Plan: c.plan, IsPlan: c.isPlan, Params: p}
	tk, err := s.Submit(tenant, req)
	if err != nil {
		var adm *serve.ErrAdmission
		if errors.As(err, &adm) {
			b.values["serve.rejects"]++
		}
		b.check(c, result{}, err, nil, nil)
		return nil
	}
	return &pending{cell: c, ticket: tk, reg: reg}
}

func (b *bench) finish(pd *pending, resp serve.Response, t *tracer) {
	b.check(pd.cell, result{op: resp.Result, plan: resp.PlanResult}, resp.Err, t, pd.reg)
}

// flightRunNs returns each admitted request's service time, the host time
// its worker spent in the simulator, from the scheduler's flight recorder.
func flightRunNs(s *serve.Scheduler, pend []*pending) map[*pending]float64 {
	byID := make(map[uint64]*pending, len(pend))
	for _, pd := range pend {
		if pd != nil {
			byID[pd.ticket.ID()] = pd
		}
	}
	out := make(map[*pending]float64, len(byID))
	for _, r := range s.FlightRecords() {
		if pd, ok := byID[r.Ticket]; ok {
			out[pd] = float64(r.WallNs)
		}
	}
	return out
}

// saturate offers every request at once, so arrivals exceed capacity for
// the whole pass, and waits for all of them. With count set, it adds each
// request's service time to the per-system and per-kind totals.
func (b *bench) saturate(s *serve.Scheduler, reqs []int, t *tracer, count bool) time.Duration {
	start := time.Now()
	pend := make([]*pending, len(reqs))
	for i, ci := range reqs {
		c := b.w.cells[ci]
		b.labelled(t, c, func() { pend[i] = b.submit(s, tenants[i%serveTenants], c, t) })
	}
	// Waiting from the last request back means the generator sleeps
	// through the pass instead of waking for every completion.
	resps := make([]serve.Response, len(pend))
	for i := len(pend) - 1; i >= 0; i-- {
		if pd := pend[i]; pd != nil {
			b.labelled(t, pd.cell, func() { resps[i] = pd.ticket.Wait() })
		}
	}
	wall := time.Since(start)
	for i, pd := range pend {
		if pd != nil {
			b.finish(pd, resps[i], t)
		}
	}
	if count {
		for pd, ns := range flightRunNs(s, pend) {
			b.addRun(pd.cell, ns)
		}
	}
	return wall
}

// rungDetail is one rate step with the samples behind it.
type rungDetail struct {
	rungResult
	queueMs, runMs []float64
	maxLateMs      float64
}

// rung offers the requests open-loop at a fixed rate: request i is due
// i/rate seconds after the start whatever the service has done. Its
// latency runs from when it was due to when its worker finished it: the
// generator's lateness plus the scheduler's queue wait and service time,
// so a stall also counts against the requests queued behind it.
func (b *bench) rung(s *serve.Scheduler, reqs []int, rate float64) rungDetail {
	n := len(reqs)
	pend := make([]*pending, n)
	lateMs := make([]float64, n)
	d := rungDetail{rungResult: rungResult{Rate: rate}}
	failedBefore := b.failed
	mid := 0
	start := time.Now()
	for i, ci := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMs[i] = ms(time.Since(due))
		d.maxLateMs = math.Max(d.maxLateMs, lateMs[i])
		pend[i] = b.submit(s, tenants[i%serveTenants], b.w.cells[ci], nil)
		if i+1 == n/2 {
			mid = outstanding(pend[:i+1])
		}
	}
	end := outstanding(pend)
	resps := make([]serve.Response, n)
	for i, pd := range pend {
		if pd != nil {
			resps[i] = pd.ticket.Wait()
		}
	}

	runNs := flightRunNs(s, pend)
	var lat []float64
	for i, pd := range pend {
		if pd == nil {
			continue
		}
		b.finish(pd, resps[i], nil)
		if resps[i].Err == nil {
			queue, run := float64(resps[i].QueueNs)/1e6, runNs[pd]/1e6
			lat = append(lat, lateMs[i]+queue+run)
			d.queueMs = append(d.queueMs, queue)
			d.runMs = append(d.runMs, run)
		}
	}
	d.Failed = b.failed - failedBefore
	d.Lat = summarize(lat)
	d.Growing = backlogGrowing(mid, end, n-n/2, b.workers)
	return d
}

// outstanding counts the admitted requests that have not completed.
func outstanding(pend []*pending) int {
	n := 0
	for _, pd := range pend {
		if pd == nil {
			continue
		}
		select {
		case <-pd.ticket.Done():
		default:
			n++
		}
	}
	return n
}

// ladder climbs the fixed rates, reporting latency at the two chosen
// rates and the highest rate that meets the latency limit.
func (b *bench) ladder(s *serve.Scheduler, reqs []int) {
	var rungs []rungResult
	maxLate := 0.0
	for _, rate := range ladderRates {
		d := b.rung(s, reqs, rate)
		rungs = append(rungs, d.rungResult)
		if d.maxLateMs > maxLate {
			maxLate = d.maxLateMs
		}
		fmt.Fprintf(b.out, "  %5.0f q/s: p50 %7.3f ms  p99 %7.3f ms  n=%d  failed=%d  backlog growing=%v  generator late ≤ %.3f ms\n",
			rate, d.Lat.P50, d.Lat.P99, d.Lat.N, d.Failed, d.Growing, d.maxLateMs)
		switch rate {
		case lowRate:
			b.values["serve_p50_ms.r400"] = d.Lat.P50
			b.values["serve_p99_ms.r400"] = d.Lat.P99
			b.values["serve_n.r400"] = float64(d.Lat.N)
		case highRate:
			b.values["serve_p50_ms.r1200"] = d.Lat.P50
			b.values["serve_p99_ms.r1200"] = d.Lat.P99
			b.values["serve_n.r1200"] = float64(d.Lat.N)
			b.recordServeTimes(d.queueMs, d.runMs)
		}
		if rate >= highRate && d.Growing {
			break // every higher rate is past capacity too
		}
	}
	b.values["serve_qps_at_slo"] = rateAtSLO(rungs, sloMs)
	b.values["serve.gen_late_ms.max"] = maxLate
}

// runServe measures an open loop of independent tenants through the
// multi-tenant scheduler: saturating passes for throughput, then, when
// tracing, the rate ladder and profiled passes.
func (b *bench) runServe() error {
	reqs := serveRequests(b.w.cells, b.seed)
	s := serve.New(serve.Config{Workers: b.workers, QueueDepth: len(reqs), FlightRecords: len(reqs)})
	defer s.Close()

	// One round of the mix fills the engine pool; it is kept out of
	// every measurement.
	b.saturate(s, reqs[:len(reqs)/serveRounds], nil, false)

	m := b.mark()
	walls := b.measurePasses(func() time.Duration { return b.saturate(s, reqs, nil, true) })
	b.endPhase(m, len(walls))
	sweep := median(walls)
	b.values["sweep_s"] = sweep
	b.values["serve_qps"] = float64(len(reqs)) / sweep
	fmt.Fprintf(b.out, "%s: %d saturating passes of %d requests, median %.3f s (%.0f q/s): %.3f\n",
		b.w.name, len(walls), len(reqs), sweep, float64(len(reqs))/sweep, walls)
	if !b.trace {
		return nil
	}
	fmt.Fprintf(b.out, "%s: rate ladder, p99 limit %d ms\n", b.w.name, sloMs)
	// The scheduler's workers take every CPU; during the ladder the load
	// generator gets a processor of its own, so that it sends on time
	// rather than waiting up to a scheduler time slice for a busy worker.
	runtime.GOMAXPROCS(b.workers + 1)
	b.ladder(s, reqs)
	runtime.GOMAXPROCS(b.workers)
	t := newTracer()
	var traced []float64
	samples, err := profiled(func() {
		for k := 0; k < tracedServePasses; k++ {
			traced = append(traced, b.saturate(s, reqs, t, false).Seconds())
			t.counting = false
		}
	})
	if err != nil {
		return err
	}
	b.finishTrace(t, samples, median(traced), sweep)
	return nil
}
