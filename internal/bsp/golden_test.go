package bsp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
)

// updateGolden rewrites the committed fixtures. Regenerate them only for
// an intentional model change, never to paper over a diff.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures")

// goldenRun is the simulated fingerprint of one BSP run: its time, every
// step, the DRAM and permutable-write totals, and the final states.
type goldenRun struct {
	TotalNs        float64
	Supersteps     int
	Steps          []engine.StepTiming
	DRAM           dram.Stats
	PermutedWrites uint64
	States         []int64
}

// TestBSPGolden pins PageRank's and Components' simulated numbers on the
// four vault-resident systems of Table 5 to committed fixtures, at one
// host worker and at four: the message exchange must reproduce them bit
// for bit whatever the host parallelism.
func TestBSPGolden(t *testing.T) {
	graphs := []struct {
		name string
		prog Program
		g    *Graph
	}{
		{"pagerank", PageRank(), RandomGraph(400, 4, 9)},
		{"components", Components(), Symmetrize(RandomGraph(400, 2, 11))},
	}
	systems := []struct {
		name string
		arch engine.Arch
		perm bool
	}{
		{"nmp", engine.NMP, false},
		{"nmp-perm", engine.NMP, true},
		{"mondrian-noperm", engine.Mondrian, false},
		{"mondrian", engine.Mondrian, true},
	}
	for _, gr := range graphs {
		for _, s := range systems {
			t.Run(gr.name+"/"+s.name, func(t *testing.T) {
				path := filepath.Join("testdata", gr.name+"_"+s.name+".json")
				for _, par := range []int{1, 4} {
					e := testEngineAt(t, s.arch, s.perm, par)
					res, err := Run(e, gr.prog, gr.g, 5)
					if err != nil {
						t.Fatal(err)
					}
					fp := goldenRun{
						TotalNs: res.TotalNs, Supersteps: res.Supersteps,
						Steps: e.Steps(), DRAM: e.DRAMStats(), States: res.States,
					}
					for _, v := range e.Sys.Vaults() {
						fp.PermutedWrites += v.PermutedWrites
					}
					got, err := json.MarshalIndent(fp, "", "\t")
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, path, append(got, '\n'), par)
				}
			})
		}
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
