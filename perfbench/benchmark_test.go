package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// and the metrics this program prints in step: the same names, in the
// same order, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, tc := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", tc.kind, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.want {
			if tc.got[i].Name != m.name || tc.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					tc.kind, i, tc.got[i].Name, tc.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mix", "--trace", "2"},
		{"--workload", "serve-mix", "--seconds", "0"},
		{"--workload", "serve-mix", "--seed", "x"},
		{"--workload", "serve-mix", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with %q on stdout, want 2 and no result", args, code, out.String())
		}
	}
}
