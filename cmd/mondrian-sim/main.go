// Command mondrian-sim runs a single operator or query plan on a single system
// configuration and prints a detailed timing, bandwidth, DRAM and energy
// report — the tool for exploring one point of the design space.
//
// Beyond the registered systems, the spec-override flags derive a custom
// variant of the selected system on the fly:
//
//	mondrian-sim -system mondrian -op join -s-tuples 262144
//	mondrian-sim -system mondrian -op scan -stream-buffers 4
//	mondrian-sim -system nmp -op join -topology star -l1-bytes 16384
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cliio"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mondrian-sim: ")
	if err := run(); err != nil {
		// Every failure — invalid flag values included — is a one-line
		// typed error from the simulate boundary, never a stack trace.
		log.Fatal(err)
	}
}

// customize derives a one-off system from base's registered spec with
// the given overrides applied, registers it under a name that lists the
// applied overrides in flag order (e.g. "NMP+topology=star+l1-bytes=65536"),
// and returns its handle. Zero values leave the base spec untouched; an
// override of hardware the base system does not have is an error.
func customize(base simulate.System, topo string, l1Bytes, streamBufs int) (simulate.System, error) {
	sp, ok := simulate.SpecOf(base)
	if !ok {
		return 0, fmt.Errorf("unknown system %v", base)
	}
	switch strings.ToLower(topo) {
	case "":
	case "star":
		sp.Engine.Topology = noc.Star
	case "full", "fully-connected":
		sp.Engine.Topology = noc.FullyConnected
	default:
		return 0, fmt.Errorf("unknown topology %q (want star or full)", topo)
	}
	if topo != "" {
		sp.Name += "+topology=" + sp.Engine.Topology.String()
	}
	if l1Bytes != 0 {
		if l1Bytes < 0 {
			return 0, fmt.Errorf("negative L1 size %d bytes", l1Bytes)
		}
		if sp.Engine.Arch == engine.Mondrian {
			return 0, fmt.Errorf("-l1-bytes has no effect on %s: its units have no L1", base)
		}
		sp.Engine.L1.SizeBytes = l1Bytes
		sp.Name += fmt.Sprintf("+l1-bytes=%d", l1Bytes)
	}
	if streamBufs != 0 {
		if streamBufs < 0 {
			return 0, fmt.Errorf("negative stream-buffer count %d", streamBufs)
		}
		if sp.Engine.Arch != engine.Mondrian {
			return 0, fmt.Errorf("-stream-buffers has no effect on %s: its units have no stream buffers", base)
		}
		sp.Engine.StreamBuffers = streamBufs
		sp.Name += fmt.Sprintf("+stream-buffers=%d", streamBufs)
	}
	return simulate.Register(sp)
}

func run() error {
	defaults := simulate.DefaultParams()
	var (
		sysName = flag.String("system", "mondrian", "system: "+strings.ToLower(strings.Join(simulate.SystemNames(), ", ")))
		opName  = flag.String("op", "join", "operator: "+strings.Join(simulate.OperatorNames(), ", ")+
			"; or a query plan: "+strings.Join(simulate.PlanNames(), ", "))
		staged   = flag.Bool("staged", false, "disable the query-plan compiler's re-shuffle elision (plans only): every stage re-partitions from scratch")
		sTup     = flag.Int("s-tuples", 1<<16, "large-relation cardinality")
		rTup     = flag.Int("r-tuples", 1<<15, "small join relation cardinality")
		group    = flag.Int("group-size", defaults.GroupSize, "average group size (groupby)")
		keySpace = flag.Uint64("keyspace", defaults.KeySpace, "key space bound (must be a power of two)")
		vaultCap = flag.Int64("vault-cap", defaults.VaultCapBytes, "per-vault DRAM capacity in bytes")
		par      = flag.Int("parallelism", defaults.Parallelism, "host worker pool (0 = GOMAXPROCS, 1 = serial)")
		seed     = flag.Int64("seed", 42, "workload seed")
		steps    = flag.Bool("steps", false, "print the per-step timeline")

		// Skew knobs.
		skewAware = flag.Bool("skew-aware", false, "provision partition buffers exactly from the exchanged histograms instead of failing with a partition overflow (§5.4)")
		zipfS     = flag.Float64("zipf-s", 0, "Zipf exponent for skewed workload keys (0 = uniform; must be > 1 otherwise)")
		overprov  = flag.Float64("overprovision", 0, "destination-buffer overprovision factor (0 = operator default)")

		// Observability outputs. Setting any of them enables the metrics
		// registry for the run; "-" writes to stdout.
		metricsOut = flag.String("metrics", "", "write the JSON run manifest to `file` (\"-\" = stdout)")
		promOut    = flag.String("prom", "", "write the metrics in Prometheus text format to `file` (\"-\" = stdout)")
		spans      = flag.Bool("spans", false, "collect the simulated-time span tree: print it and embed it in -metrics")
		chromeOut  = flag.String("chrome-trace", "", "write the span tree as Chrome trace_event JSON to `file` (\"-\" = stdout); open in Perfetto or chrome://tracing")

		// Spec overrides: derive a custom variant of -system.
		topo       = flag.String("topology", "", "override the inter-cube topology: star or full")
		l1Bytes    = flag.Int("l1-bytes", 0, "override the per-unit L1 capacity in bytes (0 = system default)")
		streamBufs = flag.Int("stream-buffers", 0, "override the per-unit stream-buffer count (0 = architectural default)")
		cpuCores   = flag.Int("cpu-cores", 0, "override the host core count on CPU systems (0 = default)")
	)
	flag.Parse()

	sys, err := simulate.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	// -op selects a single operator or, when the name matches a registered
	// query shape, a compiled multi-operator plan.
	op, opErr := simulate.ParseOperator(*opName)
	pl, plErr := simulate.ParsePlan(*opName)
	if opErr != nil && plErr != nil {
		return fmt.Errorf("unknown operator or plan %q (want an operator: %s; or a plan: %s)",
			*opName, strings.Join(simulate.OperatorNames(), ", "), strings.Join(simulate.PlanNames(), ", "))
	}
	isPlan := opErr != nil
	if *staged && !isPlan {
		return fmt.Errorf("-staged applies only to query plans, not to operator %s", op)
	}
	if *topo != "" || *l1Bytes != 0 || *streamBufs != 0 {
		if sys, err = customize(sys, *topo, *l1Bytes, *streamBufs); err != nil {
			return err
		}
	}

	p := defaults
	p.STuples = *sTup
	p.RTuples = *rTup
	p.GroupSize = *group
	p.KeySpace = *keySpace
	p.VaultCapBytes = *vaultCap
	p.Parallelism = *par
	p.Seed = *seed
	p.SkewAware = *skewAware
	p.ZipfS = *zipfS
	p.Overprovision = *overprov
	p.NoFusion = *staged
	if *cpuCores != 0 {
		if sp, _ := simulate.SpecOf(sys); sp.Engine.Arch != engine.CPU {
			return fmt.Errorf("-cpu-cores has no effect on %s: it has no host cores", sys)
		}
		p.CPUCores = *cpuCores
	}

	observing := *metricsOut != "" || *promOut != "" || *spans || *chromeOut != ""
	if observing {
		p.Obs = obs.NewRegistry()
	}
	// Run the selected operator or plan; only the header table differs
	// between the two kinds.
	var res outcome
	start := time.Now()
	if isPlan {
		r, err := simulate.RunPlan(sys, pl, p)
		if err != nil {
			return err
		}
		res = outcome{
			table:    func(w io.Writer) { planTable(w, r, p.NoFusion) },
			steps:    r.Steps,
			spans:    r.Spans,
			manifest: func() *obs.Manifest { return simulate.BuildPlanManifest(r, p, *spans) },
		}
	} else {
		r, err := simulate.Run(sys, op, p)
		if err != nil {
			return err
		}
		res = outcome{
			table:    func(w io.Writer) { operatorTable(w, r) },
			steps:    r.Steps,
			spans:    r.Spans,
			manifest: func() *obs.Manifest { return simulate.BuildManifest(r, p, *spans) },
		}
	}
	wall := time.Since(start)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	res.table(w)
	if err := w.Flush(); err != nil {
		return err
	}

	if *steps {
		fmt.Println("\nstep timeline:")
		for i, st := range res.steps {
			if st.Ns == 0 {
				continue
			}
			fmt.Printf("  %2d %-32s %10.1f µs  (compute %.1f µs, mem %.1f µs, net %.1f µs, IPC %.2f)\n",
				i, st.Name, st.Ns/1e3, st.MaxUnitNs/1e3, st.MemNs/1e3, st.NetNs/1e3, st.AggIPC)
		}
	}

	if !observing {
		return nil
	}
	m := res.manifest()
	m.Host.WallNs = wall.Nanoseconds()
	m.Host.Timestamp = start.UTC().Format(time.RFC3339)
	if *spans {
		fmt.Println("\nspan tree (simulated time):")
		if err := res.spans.WriteTree(os.Stdout, 2); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := cliio.WriteFile(*metricsOut, func(w io.Writer) error {
			return m.WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if *promOut != "" {
		if err := cliio.WriteFile(*promOut, func(w io.Writer) error {
			return obs.WritePrometheus(w, p.Obs.Snapshot())
		}); err != nil {
			return err
		}
	}
	if *chromeOut != "" {
		if err := cliio.WriteFile(*chromeOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, res.spans)
		}); err != nil {
			return err
		}
	}
	return nil
}

// outcome is one run of either kind, as the shared report reads it: the
// kind's header table, the step timeline, the span tree and the run
// manifest.
type outcome struct {
	table    func(w io.Writer)
	steps    []engine.StepTiming
	spans    *obs.Span
	manifest func() *obs.Manifest
}

// operatorTable writes a single operator's header table.
func operatorTable(w io.Writer, res *simulate.Result) {
	fmt.Fprintf(w, "system\t%v\n", res.System)
	fmt.Fprintf(w, "operator\t%v\n", res.Operator)
	fmt.Fprintf(w, "verified\t%v\n", res.Verified)
	fmt.Fprintf(w, "partition\t%.3f ms\n", res.PartitionNs/1e6)
	fmt.Fprintf(w, "probe\t%.3f ms\n", res.ProbeNs/1e6)
	fmt.Fprintf(w, "total\t%.3f ms\n", res.TotalNs/1e6)
	if res.DistBWPerVaultGBs > 0 {
		fmt.Fprintf(w, "distribution BW\t%.2f GB/s per vault\n", res.DistBWPerVaultGBs)
	}
	if res.ProbeBWPerVaultGBs > 0 {
		fmt.Fprintf(w, "probe BW\t%.2f GB/s per vault\n", res.ProbeBWPerVaultGBs)
	}
	costRows(w, res.DRAM, res.Energy)
}

// planTable writes a compiled plan's header table: its fusion mode and
// per-stage breakdown.
func planTable(w io.Writer, res *simulate.PlanResult, staged bool) {
	fmt.Fprintf(w, "system\t%v\n", res.System)
	fmt.Fprintf(w, "plan\t%v\n", res.Plan)
	if staged {
		fmt.Fprintf(w, "mode\tstaged (fusion disabled)\n")
	} else {
		noun := "re-shuffles"
		if res.Elisions == 1 {
			noun = "re-shuffle"
		}
		fmt.Fprintf(w, "mode\tfused (%d %s elided)\n", res.Elisions, noun)
	}
	fmt.Fprintf(w, "verified\t%v\n", res.Verified)
	for _, st := range res.Stages {
		mark := ""
		if st.Fused {
			mark = "  [fused]"
		}
		fmt.Fprintf(w, "stage %s\t%.3f ms  (%d tuples out)%s\n", st.Name, st.Ns/1e6, st.Tuples, mark)
	}
	fmt.Fprintf(w, "total\t%.3f ms\n", res.TotalNs/1e6)
	costRows(w, res.DRAM, res.Energy)
}

// costRows writes the DRAM and energy rows both header tables end with.
func costRows(w io.Writer, d dram.Stats, e energy.Breakdown) {
	fmt.Fprintf(w, "DRAM accesses\t%d (%.1f%% row hits)\n", d.Accesses(), d.RowHitRate()*100)
	fmt.Fprintf(w, "row activations\t%d\n", d.Activations)
	fmt.Fprintf(w, "bytes moved\t%d\n", d.TotalBytes())
	fmt.Fprintf(w, "energy\t%s\n", e)
}
