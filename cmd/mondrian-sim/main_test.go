package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the command under test once into the test's temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cli")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// assertCleanFailure runs the binary and asserts the error contract: a
// non-zero exit and exactly one stderr line that reads as a diagnostic —
// no stack trace, no goroutine dump, no internal error.
func assertCleanFailure(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	msg := stderr.String()
	if err == nil {
		t.Fatalf("%v exited 0, want failure\nstderr: %s", args, msg)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("%v did not run: %v", args, err)
	}
	if strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
		t.Fatalf("%v stderr is not a single line:\n%s", args, msg)
	}
	for _, leak := range []string{"goroutine ", "panic:", "runtime error", "invariant violation"} {
		if strings.Contains(msg, leak) {
			t.Fatalf("%v stderr leaks internals (%q):\n%s", args, leak, msg)
		}
	}
	return msg
}

// TestCLIRejectsCrashReproducers pins invocations that used to crash or
// that set an override the system has no hardware for: each must fail
// with a clean one-line diagnostic naming the offending parameter.
func TestCLIRejectsCrashReproducers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-op", "scan", "-s-tuples", "-5"}, "STuples"},
		{[]string{"-op", "join", "-r-tuples", "0"}, "RTuples"},
		{[]string{"-op", "groupby", "-group-size", "0"}, "GroupSize"},
		{[]string{"-op", "scan", "-vault-cap", "0"}, "VaultCapBytes"},
		{[]string{"-system", "nmp", "-op", "scan", "-stream-buffers", "4"}, "-stream-buffers has no effect on NMP"},
		{[]string{"-system", "mondrian", "-op", "sort", "-l1-bytes", "1024"}, "-l1-bytes has no effect on Mondrian"},
		{[]string{"-system", "nmp", "-op", "sort", "-cpu-cores", "3"}, "-cpu-cores has no effect on NMP"},
		{[]string{"-system", "nmp", "-op", "scan", "-l1-bytes", "100"}, "engine: L1"},
		{[]string{"-system", "cpu", "-op", "scan", "-l1-bytes", "64"}, "engine: L1"},
		{[]string{"-system", "nmp", "-op", "scan", "-staged"}, "-staged applies only to query plans"},
	}
	for _, tc := range cases {
		msg := assertCleanFailure(t, bin, tc.args...)
		if !strings.Contains(msg, tc.want) {
			t.Fatalf("%v stderr %q does not name %s", tc.args, msg, tc.want)
		}
	}
}

// TestCLIRejectsUnknownSelectors covers the -system/-op spelling errors.
// -op accepts operators and plans alike, so its diagnostic lists both.
func TestCLIRejectsUnknownSelectors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	assertCleanFailure(t, bin, "-system", "abacus")
	msg := assertCleanFailure(t, bin, "-op", "shuffleboard")
	for _, want := range []string{"groupby", "join-agg-sort"} {
		if !strings.Contains(msg, want) {
			t.Errorf("-op diagnostic %q does not name %q", msg, want)
		}
	}
	assertCleanFailure(t, bin, "-topology", "ring")
	assertCleanFailure(t, bin, "-stream-buffers", "-2")
	assertCleanFailure(t, bin, "-l1-bytes", "-1")
}

// TestCLICustomSystem derives Mondrian with four stream buffers through
// the spec-override flags and runs a scan end-to-end. Scan opens one
// stream per unit, so it stays within the shrunken buffer set.
func TestCLICustomSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-system", "mondrian", "-op", "scan",
		"-stream-buffers", "4", "-s-tuples", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("custom-system run failed: %v\n%s", err, out)
	}
	got := string(out)
	if !strings.Contains(got, "Mondrian+stream-buffers=4") {
		t.Fatalf("report does not name the derived system:\n%s", got)
	}
	if !strings.Contains(got, "verified") || strings.Contains(got, "false") {
		t.Fatalf("custom-system scan did not verify:\n%s", got)
	}
}

// TestCLITopologyAndCacheOverrides drives the remaining override flags
// through a small NMP scan: star topology and a quarter-size L1, named in
// flag order whatever their order on the command line, and an explicit
// host-core count on the CPU system.
func TestCLITopologyAndCacheOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-system", "nmp", "-op", "scan",
		"-l1-bytes", "8192", "-topology", "star", "-s-tuples", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("override run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "NMP+topology=star+l1-bytes=8192") {
		t.Fatalf("report does not name the derived system:\n%s", out)
	}
	out, err = exec.Command(bin, "-system", "cpu", "-op", "scan",
		"-cpu-cores", "8", "-s-tuples", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("-cpu-cores run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "CPU") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestCLIManifestRecordsSkewKnobs checks that the -metrics manifest
// records the skew knobs, which change simulated results: schema v2
// carries zipf_s and skew_aware in its params.
func TestCLIManifestRecordsSkewKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	path := filepath.Join(t.TempDir(), "manifest.json")
	out, err := exec.Command(bin, "-system", "nmp", "-op", "groupby", "-s-tuples", "4096",
		"-zipf-s", "1.5", "-skew-aware", "-metrics", path).CombinedOutput()
	if err != nil {
		t.Fatalf("skewed run failed: %v\n%s", err, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema string `json:"schema"`
		Params struct {
			ZipfS     float64 `json:"zipf_s"`
			SkewAware bool    `json:"skew_aware"`
		} `json:"params"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != "mondrian-run-manifest/v2" || m.Params.ZipfS != 1.5 || !m.Params.SkewAware {
		t.Fatalf("manifest schema %q, zipf_s %g, skew_aware %v; want v2, 1.5, true",
			m.Schema, m.Params.ZipfS, m.Params.SkewAware)
	}
}
