// Command mondrian-serve runs the engine as a live multi-tenant daemon:
// it drives the serve scheduler under a configurable open-loop workload
// (round-robin tenants × systems × operators, rate-paced arrivals) and
// exposes runtime introspection over HTTP (DESIGN.md §17):
//
//	GET /healthz         liveness (200 "ok")
//	GET /metrics         Prometheus text format, live window gauges included
//	GET /tenants         JSON per-tenant live view: rolling p50/p95/p99
//	                     queue wait + simulated latency, SLO burn rate
//	GET /trace/{ticket}  Chrome trace_event JSON for a served request
//	                     (open in Perfetto / chrome://tracing)
//	GET /flightrecorder  JSON dump of the last N request records
//	GET /debug/pprof/    standard Go profiling endpoints
//
// The built-in driver exists so the daemon is inspectable out of the
// box — point a browser at /tenants while it runs. -rate 0 disables it,
// leaving an idle scheduler (useful under external load generators).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mondrian-serve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to `file` once listening (lets scripts discover an ephemeral port)")
		duration = flag.Duration("duration", 0, "serve for this long, then shut down cleanly (0 = until SIGINT/SIGTERM)")
		rate     = flag.Float64("rate", 200, "open-loop workload arrival rate in requests/s (0 = no built-in driver)")
		tenants  = flag.Int("tenants", 4, "number of synthetic tenants the driver round-robins across")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler worker goroutines")
		depth    = flag.Int("queue-depth", 256, "per-tenant queue depth bound")
		budget   = flag.Int64("budget", 0, "aggregate vault-capacity admission budget in bytes (0 = unlimited)")
		flight   = flag.Int("flight", serve.DefaultFlightRecords, "flight-recorder ring size (negative disables)")
		sloMs    = flag.Float64("slo-ms", 50, "per-tenant SLO: target simulated latency in ms")
		sloObj   = flag.Float64("slo-objective", serve.DefaultSLOObjective, "per-tenant SLO objective (fraction of runs within target)")
		winDur   = flag.Duration("window", serve.DefaultWindowDur, "rolling-window slot duration")
		winSlots = flag.Int("window-slots", serve.DefaultWindowSlots, "rolling-window slot count (window covers slots × duration)")
	)
	flag.Parse()

	sched := serve.New(serve.Config{
		Workers:              *workers,
		QueueDepth:           *depth,
		FootprintBudgetBytes: *budget,
		Obs:                  obs.NewRegistry(),
		FlightRecords:        *flight,
		FlightDump:           os.Stderr,
		SLOTargetNs:          *sloMs * 1e6,
		SLOObjective:         *sloObj,
		WindowDur:            *winDur,
		WindowSlots:          *winSlots,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on http://%s", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}

	srv := &http.Server{Handler: handler(sched)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	var wg sync.WaitGroup
	if *rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(ctx, sched, *tenants, *rate)
		}()
	}

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	log.Printf("shutting down")
	wg.Wait()
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	sched.Close()
	for _, t := range sched.TenantsSnapshot() {
		log.Printf("tenant %-12s runs %-6d errors %-3d rejects %-3d  queue-wait p99 %.2f ms  latency p99 %.2f ms (sim)  burn %.2f",
			t.Tenant, t.Runs, t.Errors, t.Rejects, t.QueueWaitP99Ns/1e6, t.LatencyP99Ns/1e6, t.SLOBurnRate)
	}
	return nil
}

// handler assembles the introspection mux. Factored out of run so tests
// can drive it with httptest against a deterministic scheduler.
func handler(sched *serve.Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := sched.WritePrometheus(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Tenants []serve.TenantLive `json:"tenants"`
		}{sched.TenantsSnapshot()})
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			FlightRecords []serve.FlightRecord `json:"flight_records"`
		}{sched.FlightRecords()})
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/trace/"), 10, 64)
		if err != nil {
			http.Error(w, "bad ticket id", http.StatusBadRequest)
			return
		}
		spans := sched.TraceSpans(id)
		if spans == nil {
			http.Error(w, "no trace for ticket (fell out of the flight ring, or spans not retained)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChromeTrace(w, spans); err != nil {
			log.Printf("trace: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("json: %v", err)
	}
}

// driveParams is the workload's per-request shape: the paper's full
// system geometries with a dataset small enough that the daemon turns
// over many requests per second (the same regime BenchmarkServeQPS
// measures).
func driveParams() simulate.Params {
	p := simulate.DefaultParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

// drive submits the open-loop mix until ctx is cancelled: arrival i is
// due at i/rate seconds from start whether or not the service has kept
// up, tenants round-robin, and each request cycles through the system ×
// operator matrix. Admission rejects are expected under overload — they
// are the admission policy working — so they only feed the metrics.
func drive(ctx context.Context, sched *serve.Scheduler, tenants int, rate float64) {
	if tenants < 1 {
		tenants = 1
	}
	systems := simulate.Systems()
	ops := simulate.Operators()
	p := driveParams()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-time.After(wait):
			}
		}
		tenant := "tenant-" + strconv.Itoa(i%tenants)
		req := serve.Request{
			System:   systems[i%len(systems)],
			Operator: ops[(i/len(systems))%len(ops)],
			Params:   p,
			Priority: i % 2,
		}
		ticket, err := sched.Submit(tenant, req)
		if err != nil {
			var adm *serve.ErrAdmission
			if errors.Is(err, serve.ErrClosed) || errors.As(err, &adm) {
				continue
			}
			log.Printf("submit: %v", err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticket.Wait()
		}()
	}
	wg.Wait()
}
