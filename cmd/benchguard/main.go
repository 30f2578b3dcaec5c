// Command benchguard compares a fresh benchjson snapshot against a
// recorded baseline and fails when any matched benchmark's ns/op
// regressed beyond the threshold. CI runs it on the disabled-metrics
// overhead benchmark: the observability layer's nil-registry path must
// stay free, and a >5% drift there fails the build.
//
// Wall-clock numbers only compare within one machine class, so the ns/op
// check is skipped (with a notice) when the baseline and current
// snapshots report different CPU models — a baseline recorded on a laptop
// must not fail CI runners, and vice versa. Re-record the baseline with
// `make bench-baseline` on the reference machine.
//
// Allocation does not depend on the host CPU, so every matched
// benchmark's bytes/op and allocs/op are checked on any machine: more
// than 1% above the baseline fails. It does depend on GOMAXPROCS (worker
// pools size themselves to it), so both snapshots come from `go test
// -cpu 1` runs, as the Makefile's bench-baseline and bench-guard targets
// pass it; and on the Go release (the runtime's maps and the compiler's
// escape analysis change between releases), so the check is skipped, with
// a notice, when the snapshots name different Go releases.
//
// Usage:
//
//	go test -bench=ObsOverhead -benchtime=5x -run '^$' . | go run ./cmd/benchjson > cur.json
//	go run ./cmd/benchguard -baseline BENCH_BASELINE.json -current cur.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
)

// Result mirrors cmd/benchjson's parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot mirrors cmd/benchjson's output document.
type Snapshot struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Go         string   `json:"go,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		basePath  = flag.String("baseline", "BENCH_BASELINE.json", "recorded baseline snapshot (benchjson format)")
		curPath   = flag.String("current", "", "fresh snapshot to check (benchjson format)")
		match     = flag.String("match", `^BenchmarkObsOverhead/disabled`, "regexp selecting the benchmarks to guard")
		threshold = flag.Float64("threshold", 0.05, "max allowed fractional ns/op regression")
		report    = flag.Bool("report", false, "print baseline-vs-current per-op ratios for every matched benchmark and exit 0 (no guard)")
	)
	flag.Parse()
	if *curPath == "" {
		log.Fatal("missing -current snapshot")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		log.Fatalf("-match: %v", err)
	}

	base, err := load(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := load(*curPath)
	if err != nil {
		log.Fatal(err)
	}
	checked, failed := guard(os.Stdout, base, cur, re, *threshold, *report)
	if checked == 0 {
		log.Fatalf("no benchmark in %s matched %q — guard would silently pass", *curPath, *match)
	}
	if failed > 0 {
		log.Fatalf("%d checks of %d guarded benchmarks failed: ns/op more than %.0f%% or allocation more than %.0f%% above baseline",
			failed, checked, *threshold*100, allocThreshold*100)
	}
}

// guard compares cur against base for every benchmark re matches,
// writing one line per check to w, and returns how many benchmarks it
// checked and how many checks failed. With report set it only prints the
// ns/op ratios.
func guard(w io.Writer, base, cur *Snapshot, re *regexp.Regexp, threshold float64, report bool) (checked, failed int) {
	sameCPU, sameGo := base.CPU == cur.CPU, base.Go == cur.Go
	if !sameCPU && !report {
		fmt.Fprintf(w, "benchguard: baseline CPU %q != current CPU %q: skipping the ns/op check (re-record with make bench-baseline)\n",
			base.CPU, cur.CPU)
	}
	if !sameGo && !report {
		fmt.Fprintf(w, "benchguard: baseline Go %q != current Go %q: skipping the allocation check (re-record with make bench-baseline)\n",
			base.Go, cur.Go)
	}

	// Repeated entries (from `go test -count=N`) collapse to the
	// per-benchmark minimum on both sides: contention, steal time and GC
	// pauses only ever add time, so min-of-N is the noise-resistant
	// estimate of a benchmark's true cost on a shared host.
	baseNs := minOf(base.Benchmarks, func(r Result) float64 { return r.NsPerOp })
	baseBytes := minOf(base.Benchmarks, func(r Result) float64 { return float64(r.BytesPerOp) })
	baseAllocs := minOf(base.Benchmarks, func(r Result) float64 { return float64(r.AllocsPerOp) })
	curBytes := minOf(cur.Benchmarks, func(r Result) float64 { return float64(r.BytesPerOp) })
	curAllocs := minOf(cur.Benchmarks, func(r Result) float64 { return float64(r.AllocsPerOp) })
	for _, r := range dedupe(cur.Benchmarks) {
		if !re.MatchString(r.Name) {
			continue
		}
		want, ok := baseNs[r.Name]
		if !ok {
			fmt.Fprintf(w, "benchguard: %s: no baseline entry, skipping\n", r.Name)
			continue
		}
		checked++
		ratio := r.NsPerOp / want
		if report {
			// old/new > 1 means the current run is faster than baseline.
			fmt.Fprintf(w, "benchguard: %-44s baseline %12.0f ns/op -> current %12.0f ns/op (old/new %.2fx)\n",
				r.Name, want, r.NsPerOp, want/r.NsPerOp)
			continue
		}
		if sameGo {
			for _, a := range []struct {
				unit      string
				cur, base float64
			}{
				{"B/op", curBytes[r.Name], baseBytes[r.Name]},
				{"allocs/op", curAllocs[r.Name], baseAllocs[r.Name]},
			} {
				status := "ok"
				if a.cur > a.base*(1+allocThreshold) {
					status = "FAIL"
					failed++
				}
				fmt.Fprintf(w, "benchguard: %-40s %12.0f %s vs baseline %12.0f %s\n", r.Name, a.cur, a.unit, a.base, status)
			}
		}
		if !sameCPU {
			continue
		}
		status := "ok"
		if ratio > 1+threshold {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "benchguard: %-40s %12.0f ns/op vs baseline %12.0f (%+.1f%%) %s\n",
			r.Name, r.NsPerOp, want, (ratio-1)*100, status)
	}
	return checked, failed
}

// allocThreshold is the largest allowed fractional rise of bytes/op and
// allocs/op over the baseline.
const allocThreshold = 0.01

// minOf maps each benchmark name to the minimum of a per-result figure.
func minOf(rs []Result, figure func(Result) float64) map[string]float64 {
	m := make(map[string]float64, len(rs))
	for _, r := range rs {
		if v, ok := m[r.Name]; !ok || figure(r) < v {
			m[r.Name] = figure(r)
		}
	}
	return m
}

// dedupe keeps one Result per name — the fastest — preserving the order
// in which names first appear.
func dedupe(rs []Result) []Result {
	best := minOf(rs, func(r Result) float64 { return r.NsPerOp })
	out := rs[:0:0]
	seen := make(map[string]bool, len(best))
	for _, r := range rs {
		if seen[r.Name] {
			continue
		}
		seen[r.Name] = true
		r.NsPerOp = best[r.Name]
		out = append(out, r)
	}
	return out
}

func load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
