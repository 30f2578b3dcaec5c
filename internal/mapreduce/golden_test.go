package mapreduce

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// updateGolden rewrites the committed fixtures. Regenerate them only for
// an intentional model change, never to paper over a diff.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures")

// goldenSystems are the four vault-resident systems of Table 5.
var goldenSystems = []struct {
	name string
	arch engine.Arch
	perm bool
}{
	{"nmp", engine.NMP, false},
	{"nmp-perm", engine.NMP, true},
	{"mondrian-noperm", engine.Mondrian, false},
	{"mondrian", engine.Mondrian, true},
}

// goldenRun is the simulated fingerprint of one job: phase times, every
// step, the DRAM and permutable-write totals, and the output layout.
type goldenRun struct {
	MapNs, ShuffleNs, ReduceNs float64
	Keys                       int
	Steps                      []engine.StepTiming
	DRAM                       dram.Stats
	PermutedWrites             uint64
	Out                        [][][2]uint64 // per vault, (key, value) in region order
}

func fingerprint(e *engine.Engine, res *Result) goldenRun {
	g := goldenRun{
		MapNs: res.MapNs, ShuffleNs: res.ShuffleNs, ReduceNs: res.ReduceNs,
		Keys:  res.Keys,
		Steps: e.Steps(),
		DRAM:  e.DRAMStats(),
	}
	for _, v := range e.Sys.Vaults() {
		g.PermutedWrites += v.PermutedWrites
	}
	for _, r := range res.Out {
		out := make([][2]uint64, 0, r.Len())
		for _, t := range r.Tuples {
			out = append(out, [2]uint64{uint64(t.Key), uint64(t.Val)})
		}
		g.Out = append(g.Out, out)
	}
	return g
}

// TestMapReduceGolden pins word count's simulated numbers on every
// vault-resident system to committed fixtures, at one host worker and at
// four: the shuffle must reproduce them bit for bit whatever the host
// parallelism.
func TestMapReduceGolden(t *testing.T) {
	rel, err := workload.GroupBy(workload.Config{Seed: 3, Tuples: 4000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range goldenSystems {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join("testdata", "wordcount_"+s.name+".json")
			for _, par := range []int{1, 4} {
				e := testEngineAt(t, s.arch, s.perm, par)
				res, err := Run(e, wordCount(), place(t, e, rel))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(fingerprint(e, res), "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, path, append(got, '\n'), par)
			}
		})
	}
}

// checkGolden compares got with the fixture at path. Under
// -update-golden the one-worker run rewrites the fixture first, so the
// four-worker run is still checked against it.
func checkGolden(t *testing.T, path string, got []byte, par int) {
	t.Helper()
	if *updateGolden && par == 1 {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("Parallelism %d: %s line %d: got %s, want %s", par, path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("Parallelism %d: %s: got %d lines, want %d", par, path, len(g), len(w))
}
