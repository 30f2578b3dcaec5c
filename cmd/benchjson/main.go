// Command benchjson converts `go test -bench` output on stdin into a
// JSON snapshot on stdout. The snapshot keeps every verbatim benchmark
// line under "raw" — piping those lines back out reconstructs a file
// benchstat accepts unchanged — and additionally parses each line into
// structured fields so downstream tooling (EXPERIMENTS.md tables, CI
// trend checks) can consume the numbers without a benchstat dependency.
//
// Usage:
//
//	go test -bench . -benchtime 2x -run '^$' . | go run ./cmd/benchjson > BENCH.json
//	jq -r '.raw[]' BENCH.json | benchstat old.txt /dev/stdin
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the whole converted run.
type Snapshot struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Go is the toolchain release that built this converter — under `go
	// run`, the one that ran the benchmarks piped into it.
	Go         string   `json:"go,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	Raw        []string `json:"raw"`
}

func main() {
	snap := Snapshot{Go: runtime.Version(), Benchmarks: []Result{}, Raw: []string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			snap.Raw = append(snap.Raw, line)
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			snap.Raw = append(snap.Raw, line)
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			snap.Raw = append(snap.Raw, line)
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			snap.Raw = append(snap.Raw, line)
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parse(line)
			if !ok {
				continue
			}
			snap.Benchmarks = append(snap.Benchmarks, r)
			snap.Raw = append(snap.Raw, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse decodes one "BenchmarkName  N  ns/op [B/op] [allocs/op]" line.
func parse(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}
