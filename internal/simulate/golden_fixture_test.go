package simulate

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites the committed report fixtures. The fixtures were
// generated by the pre-refactor (switch-based) implementation; regenerate
// them only for an intentional model change, never to paper over a diff.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden report fixtures")

// goldenFixturePath returns the committed fixture file for one experiment:
// an operator's display name or a plan's CLI spelling.
func goldenFixturePath(s System, experiment string) string {
	slug := func(v string) string {
		v = strings.ToLower(v)
		return strings.ReplaceAll(v, " ", "-")
	}
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.json", slug(s.String()), slug(experiment)))
}

// TestGoldenFixtures pins every System×Operator report JSON, and every
// System×Plan report JSON in fused and staged mode, to committed
// fixtures: every refactor must reproduce the recorded reports bit for
// bit — timing, energy, DRAM stats and the step timeline all round
// through the same float paths, so any divergence shows up as a byte
// diff here.
func TestGoldenFixtures(t *testing.T) {
	for _, s := range Systems() {
		for _, op := range Operators() {
			s, op := s, op
			t.Run(s.String()+"/"+op.String(), func(t *testing.T) {
				t.Parallel()
				r, err := Run(s, op, goldenParams())
				if err != nil {
					t.Fatal(err)
				}
				checkFixture(t, goldenFixturePath(s, op.String()), r.Verified, r)
			})
		}
		for _, pl := range Plans() {
			for _, staged := range []bool{false, true} {
				s, pl, staged := s, pl, staged
				name, file := pl.String(), "plan-"+pl.String()
				if staged {
					name, file = name+"/staged", file+"-staged"
				}
				t.Run(s.String()+"/"+name, func(t *testing.T) {
					t.Parallel()
					p := goldenParams()
					p.NoFusion = staged
					r, err := RunPlan(s, pl, p)
					if err != nil {
						t.Fatal(err)
					}
					checkFixture(t, goldenFixturePath(s, file), r.Verified, r)
				})
			}
		}
	}
}

// checkFixture compares a verified report's JSON with its committed
// fixture, or rewrites the fixture under -update-golden.
func checkFixture(t *testing.T, path string, verified bool, report any) {
	t.Helper()
	if !verified {
		t.Fatal("output verification failed")
	}
	got, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON diverged from committed fixture %s:\ngot:  %s\nwant: %s", path, got, want)
	}
}
