package main

import (
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

// TestCLI drives the command's remaining modes: the parameter dump, one
// reduced-size table, and a rejected override.
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)

	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-params"}, []string{"Table 3: system parameters", "Table 4"}},
		{[]string{"-small", "-only", "table5"}, []string{"Table 5: partition-phase speedup vs CPU"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v failed: %v\n%s", tc.args, err, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(string(out), want) {
				t.Fatalf("%v output lacks %q:\n%s", tc.args, want, out)
			}
		}
	}

	// A bad override fails before any simulation, with one stderr line
	// that names the parameter.
	cmd := exec.Command(bin, "-s-tuples", "-5")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	msg := stderr.String()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("-s-tuples -5: err = %v, want a non-zero exit\nstderr: %s", err, msg)
	}
	if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "STuples") {
		t.Fatalf("-s-tuples -5 stderr is not one line naming STuples:\n%s", msg)
	}
}
