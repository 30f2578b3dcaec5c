// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's public entry points, checks every output, and
// prints every metric by name and unit; the last line of its output is
// one JSON object with the result. See README.md for the workloads and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
)

// metric names one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of the untraced runs: what a user of the
// simulator waits for and pays.
var endToEnd = []metric{
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced runs. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = func() []metric {
	var m []metric
	for _, l := range layers {
		m = append(m, metric{"host." + l, "frac"})
	}
	m = append(m, metric{"host.cpu_s", "s"}, metric{"host.samples", "count"})
	for _, n := range systemNames() {
		m = append(m, metric{"run_s." + n, "s"})
	}
	for _, n := range kindNames() {
		m = append(m, metric{"run_frac." + n, "frac"})
	}
	return append(m,
		metric{"engine.new_ms", "ms"},
		metric{"engine.reset_us", "us"},
		metric{"serve.queue_wait_ms.p50", "ms"},
		metric{"serve.run_ms.p50", "ms"},
		metric{"serve.rejects", "count"},
		metric{"simulate.pool_hit_ratio", "frac"},
		metric{"runtime.gc_cpu_frac", "frac"},
		metric{"runtime.alloc_mb_per_op", "MB/op"},
		metric{"runtime.gc_cycles", "count/pass"},
		metric{"cache.l1_accesses", "count"},
		metric{"cache.l1_miss_ratio", "frac"},
		metric{"cache.llc_miss_ratio", "frac"},
		metric{"cache.tlb_miss_ratio", "frac"},
		metric{"dram.row_hit_ratio", "frac"},
		metric{"dram.activations", "count"},
		metric{"dram.bytes", "B"},
		metric{"noc.mesh_bytes", "B"},
		metric{"noc.serdes_bytes", "B"},
		metric{"hmc.stream_fill_bytes", "B"},
		metric{"hmc.objbuf_pushes", "count"},
		metric{"hmc.permuted_writes", "count"},
		metric{"engine.accesses", "count"},
		metric{"engine.steps", "count"},
		metric{"engine.exchange_bytes", "B"},
		metric{"cores.instructions", "count"},
		metric{"sim.host_ns_per_instr", "ns"},
		metric{"sim.changed_cells", "count"},
		metric{"sim.ref_cells", "count"},
		metric{"table5_err_pct", "%"},
		metric{"trace.overhead_frac", "frac"},
		metric{"error_ratio", "frac"},
	)
}()

// servingMetrics are what only the open-loop serve-mix workload measures;
// its traced run prints them after the per-layer metrics.
var servingMetrics = []metric{
	{"serve_qps", "1/s"},
	{"serve_p50_ms.r400", "ms"},
	{"serve_p99_ms.r400", "ms"},
	{"serve_n.r400", "count"},
	{"serve_p50_ms.r1200", "ms"},
	{"serve_p99_ms.r1200", "ms"},
	{"serve_n.r1200", "count"},
	{"serve_qps_at_slo", "1/s"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.run_ms.p99", "ms"},
	{"serve.gen_late_ms.max", "ms"},
}

// systemNames and kindNames are the systems, and the operators and plans,
// of every workload's requests, in first-use order.
func systemNames() []string { return cellNames(func(c cell) string { return c.system.String() }) }

func kindNames() []string { return cellNames(cell.kind) }

func cellNames(name func(cell) string) []string {
	var out []string
	for _, w := range workloads {
		for _, c := range w.cells {
			if n := name(c); !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-matrix, query-plans or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the measured phase runs, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced phase and prints the per-layer metrics instead of the end-to-end ones")
	recordPath := fs.String("record", "", "instead of measuring, run every cell once and merge its fingerprint into this reference `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-matrix|query-plans|serve-mix, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	clearOverrides()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var err error
	if *recordPath != "" {
		err = record(*recordPath, w, *seed)
	} else {
		err = measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, nproc, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the workload and writes the report, ending with the result
// line. Nothing is written unless the run completes.
func measure(w workload, seed int64, budget time.Duration, trace bool, nproc int, stdout io.Writer) error {
	var out bytes.Buffer
	hb, err := json.Marshal(hostInfo(nproc, seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(&out, "host %s\n", hb)

	p := w.params(seed)
	if p.Parallelism == 0 {
		p.Parallelism = nproc
	}
	b := &bench{
		w: w, p: p, seed: seed, budget: budget, trace: trace, workers: nproc, out: &out,
		values: map[string]float64{}, systemNs: map[string]float64{}, kindNs: map[string]float64{},
	}
	st, err := measureSetup(p)
	if err != nil {
		return err
	}
	b.values["setup_s"] = st.totalS
	b.values["engine.new_ms"] = st.newMs
	b.values["engine.reset_us"] = st.resetUs
	if w.serve {
		err = b.runServe()
	} else {
		err = b.runBatch()
	}
	if err != nil {
		return err
	}
	b.values["error_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	if b.values["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}
	if b.firstErr != nil {
		fmt.Fprintf(&out, "first failure: %v\n", b.firstErr)
	}

	specs := endToEnd
	if trace {
		specs = perLayer
		if w.serve {
			specs = append(specs[:len(specs):len(specs)], servingMetrics...)
		}
	}
	res := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]reportedValue `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]reportedValue{}}
	for _, m := range specs {
		v := b.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is not a finite number", m.name)
		}
		res.Metrics[m.name] = reportedValue{v, m.unit}
		fmt.Fprintf(&out, "  %-26s %16.6f %s\n", m.name, v, m.unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&out, "%s\n", rb)
	_, err = stdout.Write(out.Bytes())
	return err
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// clearOverrides removes the simulator's environment overrides, so the
// benchmark always measures the program's defaults.
func clearOverrides() {
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "MONDRIAN_") {
			os.Unsetenv(k)
		}
	}
}

// host records what the figures were measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
}

func hostInfo(nproc int, seed int64) host {
	h := host{
		CPU: "unknown", NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: obs.GitRevision(), Seed: seed,
	}
	if h.Revision == "" {
		h.Revision = "unknown"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
