package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/report"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// bench is one run of one workload: its settings, the operations it has
// attempted and failed, and the metrics it has measured so far.
type bench struct {
	w       workload
	p       simulate.Params
	seed    int64
	budget  time.Duration
	trace   bool
	workers int
	out     io.Writer // the human-readable report

	attempted, failed int
	firstErr          error
	values            map[string]float64

	// systemNs and kindNs are host time per system and per operator or
	// plan, summed over the measured passes; queueMs and runMs are each
	// batch request's queue wait and service time in the scheduler.
	systemNs, kindNs map[string]float64
	queueMs, runMs   []float64
}

// check counts one operation. It fails on an error, an unverified output,
// or, when traced, a fingerprint that differs from an earlier result of
// the same cell in this run (a contaminated pooled engine would show so).
func (b *bench) check(c cell, res result, err error, t *tracer, reg *obs.Registry) {
	ok := err == nil && res.verified()
	if err == nil && !ok {
		err = errors.New("output not verified")
	}
	if ok && t != nil {
		if err = t.observe(c, res, reg); err != nil {
			ok = false
		}
	}
	b.attempted++
	if !ok {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = fmt.Errorf("%s: %w", c.name(), err)
		}
	}
}

func (b *bench) addRun(c cell, ns float64) {
	b.systemNs[c.system.String()] += ns
	b.kindNs[c.kind()] += ns
}

// tracer collects what the traced pass records besides the profile: the
// simulated counters of one pass and every result's fingerprint.
type tracer struct {
	counting bool
	counters simCounters
	fps      map[string]string // cell name → fingerprint of its first result
}

func newTracer() *tracer {
	return &tracer{counting: true, counters: simCounters{}, fps: map[string]string{}}
}

func (t *tracer) observe(c cell, res result, reg *obs.Registry) error {
	if t.counting && reg != nil {
		t.counters.add(reg)
	}
	fp, err := res.fingerprint()
	if err != nil {
		return err
	}
	if prev, seen := t.fps[c.name()]; !seen {
		t.fps[c.name()] = fp
	} else if prev != fp {
		return fmt.Errorf("simulated statistics differ between two runs of one cell (%s vs %s)", prev, fp)
	}
	return nil
}

// labelled runs fn under the pprof labels of one call into the program
// when tracing, and directly otherwise.
func (b *bench) labelled(t *tracer, c cell, fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(
		"workload", b.w.name, "system", c.system.String(), "kind", c.kind(), "cell", c.name(),
	), func(context.Context) { fn() })
}

// traceParams returns p with a fresh obs registry when tracing.
func traceParams(p simulate.Params, t *tracer) (simulate.Params, *obs.Registry) {
	if t == nil {
		return p, nil
	}
	reg := obs.NewRegistry()
	p.Obs = reg
	return p, reg
}

// profiled runs fn under the CPU profiler and returns its samples.
func profiled(fn func()) ([]sample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return decodeProfile(buf.Bytes())
}

// runtimeNames are the runtime/metrics read around the measured phase.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// phaseMark is the state of the process when a measured phase began.
type phaseMark struct {
	rt        []float64
	pool      engine.PoolStats
	attempted int
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

func (b *bench) mark() phaseMark {
	return phaseMark{rt: readRuntime(), pool: simulate.PoolStats(), attempted: b.attempted}
}

// endPhase records the per-pass host time of every system, the share of
// it each operator or plan took, and the runtime and engine-pool metrics,
// of the measured phase that began at m and ran the given number of
// passes.
func (b *bench) endPhase(m phaseMark, passes int) {
	rt, pool := readRuntime(), simulate.PoolStats()
	d := make([]float64, len(rt))
	for i := range rt {
		d[i] = rt[i] - m.rt[i]
	}
	ops := float64(b.attempted - m.attempted)
	b.values["runtime.gc_cpu_frac"] = ratio(d[0], d[1]-d[2])
	b.values["runtime.alloc_mb_per_op"] = ratio(d[3]/1e6, ops)
	b.values["runtime.gc_cycles"] = ratio(d[4], float64(passes))
	var total float64
	for n, ns := range b.systemNs {
		b.values["run_s."+n] = ns / 1e9 / float64(passes)
		total += ns
	}
	for n, ns := range b.kindNs {
		b.values["run_frac."+n] = ns / total
	}
	hits, misses := float64(pool.Hits-m.pool.Hits), float64(pool.Misses-m.pool.Misses)
	b.values["simulate.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// measurePasses repeats pass until the run's time budget would be
// exceeded by one more, running at least one, and returns each pass's
// wall time in seconds.
func (b *bench) measurePasses(pass func() time.Duration) []float64 {
	var walls []float64
	start := time.Now()
	for {
		w := pass()
		walls = append(walls, w.Seconds())
		if time.Since(start)+w > b.budget {
			return walls
		}
	}
}

// warmPool runs one small scan per system so that the simulator's engine
// pool holds an engine of every shape before the first measured pass.
func (b *bench) warmPool() {
	p := b.p
	p.STuples, p.RTuples = 1024, 512
	for _, s := range simulate.Systems() {
		c := cell{system: s, op: simulate.OpScan}
		res, err := exec(c, p)
		b.check(c, res, err, nil, nil)
	}
}

// batchPass runs every cell once as a closed-loop client of the serving
// layer: it submits one request, waits for the response, then submits the
// next. Each cell is timed from submission to response. The simulated
// partition time of every Join lands in partNs, when given.
func (b *bench) batchPass(t *tracer, partNs map[simulate.System]float64) time.Duration {
	start := time.Now()
	for _, c := range b.w.cells {
		var pd *pending
		var resp serve.Response
		var clientNs, runNs float64
		b.labelled(t, c, func() {
			// A scheduler per request: its worker goroutine starts inside
			// the labelled region, so the profile charges the worker's
			// samples to this cell.
			s := serve.New(serve.Config{Workers: 1})
			defer s.Close()
			t0 := time.Now()
			if pd = b.submit(s, "client", c, t); pd == nil {
				return
			}
			resp = pd.ticket.Wait()
			clientNs = float64(time.Since(t0).Nanoseconds())
			runNs = flightRunNs(s, []*pending{pd})[pd]
		})
		if pd == nil {
			continue
		}
		b.finish(pd, resp, t)
		if t == nil {
			b.addRun(c, clientNs)
			b.queueMs = append(b.queueMs, float64(resp.QueueNs)/1e6)
			b.runMs = append(b.runMs, runNs/1e6)
		}
		if partNs != nil && resp.Result != nil && c.op == simulate.OpJoin {
			partNs[c.system] = resp.Result.PartitionNs
		}
	}
	return time.Since(start)
}

// recordServeTimes reports the queue wait and service time of a set of
// requests; the p99s only where serve-mix's samples support them.
func (b *bench) recordServeTimes(queueMs, runMs []float64) {
	q, r := summarize(queueMs), summarize(runMs)
	b.values["serve.queue_wait_ms.p50"] = q.P50
	b.values["serve.queue_wait_ms.p99"] = q.P99
	b.values["serve.run_ms.p50"] = r.P50
	b.values["serve.run_ms.p99"] = r.P99
}

// table5ErrPct is the mean relative error, in percent, of the measured
// Table 5 partition speedups over the CPU against the published ones; 0
// when the workload runs no Join.
func table5ErrPct(partNs map[simulate.System]float64) float64 {
	cpu := partNs[simulate.CPU]
	var sum float64
	var n int
	for s, paper := range report.PaperTable5 {
		if partNs[s] == 0 || cpu == 0 {
			continue
		}
		sum += math.Abs(cpu/partNs[s]-paper) / paper
		n++
	}
	return 100 * ratio(sum, float64(n))
}

// runBatch measures a closed loop with one operation in flight: repeated
// passes over the workload's cells, then, when tracing, one profiled pass.
func (b *bench) runBatch() error {
	b.warmPool()
	joins := map[simulate.System]float64{}
	m := b.mark()
	walls := b.measurePasses(func() time.Duration { return b.batchPass(nil, joins) })
	b.endPhase(m, len(walls))
	b.recordServeTimes(b.queueMs, b.runMs)
	sweep := median(walls)
	b.values["sweep_s"] = sweep
	b.values["table5_err_pct"] = table5ErrPct(joins)
	fmt.Fprintf(b.out, "%s: %d pass(es) over %d cells, median %.3f s: %.3f\n", b.w.name, len(walls), len(b.w.cells), sweep, walls)
	if !b.trace {
		return nil
	}
	t := newTracer()
	var traced time.Duration
	samples, err := profiled(func() { traced = b.batchPass(t, nil) })
	if err != nil {
		return err
	}
	b.finishTrace(t, samples, traced.Seconds(), sweep)
	return nil
}

// finishTrace records the traced run's metrics: host time per layer, the
// simulated counters, fingerprint changes against the recorded reference,
// and the cost of tracing against the untraced pass time.
func (b *bench) finishTrace(t *tracer, samples []sample, tracedS, untracedS float64) {
	a := attribute(samples, "cell")
	a.writeTable(b.out, b.w.name)
	for _, l := range layers {
		b.values["host."+l] = a.share(l)
	}
	b.values["host.cpu_s"] = float64(a.totalNs) / 1e9
	b.values["host.samples"] = float64(a.samples)
	for k, v := range t.counters.metrics() {
		b.values[k] = v
	}
	b.values["sim.host_ns_per_instr"] = ratio(untracedS*1e9, t.counters["instructions_total"])
	b.values["trace.overhead_frac"] = tracedS/untracedS - 1
	changed, compared := compareReference(b.w.name, b.seed, t.fps)
	b.values["sim.changed_cells"] = float64(changed)
	b.values["sim.ref_cells"] = float64(compared)
	fmt.Fprintf(b.out, "%s: traced pass %.3f s against %.3f s untraced; %d of %d cells differ from the recorded reference\n",
		b.w.name, tracedS, untracedS, changed, compared)
}
