package main

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// TestFingerprintIndependentOfParallelism runs every cell of every
// workload, on shrunken inputs, with one and with two host workers: the
// simulated statistics must be identical, so sim.changed_cells can only
// move when the model does.
func TestFingerprintIndependentOfParallelism(t *testing.T) {
	for _, w := range workloads {
		p := w.params(3)
		if p.STuples > 1<<12 {
			p.STuples, p.RTuples = 1<<12, 1<<11
		}
		for _, c := range w.cells {
			var fps [2]string
			for i, par := range []int{1, 2} {
				q := p
				q.Parallelism = par
				res, err := exec(c, q)
				if err != nil || !res.verified() {
					t.Fatalf("%s/%s at parallelism %d: verified=%v err=%v", w.name, c.name(), par, res.verified(), err)
				}
				if fps[i], err = res.fingerprint(); err != nil {
					t.Fatal(err)
				}
			}
			if fps[0] != fps[1] {
				t.Errorf("%s/%s: fingerprint %s at parallelism 1, %s at 2", w.name, c.name(), fps[0], fps[1])
			}
		}
	}
}

// TestFingerprintSeesSimulatedChange checks that the fingerprint covers
// the simulated numbers: two seeds give different inputs and so different
// statistics, and attaching an obs registry does not change it.
func TestFingerprintSeesSimulatedChange(t *testing.T) {
	w, _ := findWorkload("serve-mix")
	c := cell{system: simulate.Mondrian, op: simulate.OpJoin}
	fp := func(p simulate.Params) string {
		res, err := exec(c, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := fp(w.params(1))
	if other := fp(w.params(2)); other == base {
		t.Errorf("seeds 1 and 2 gave the same fingerprint %s", base)
	}
	traced, _ := traceParams(w.params(1), newTracer())
	if got := fp(traced); got != base {
		t.Errorf("an obs registry changed the fingerprint: %s vs %s", got, base)
	}
}

func TestServeRequestsSameWorkEverySeed(t *testing.T) {
	w, _ := findWorkload("serve-mix")
	count := func(seed int64) map[int]int {
		m := map[int]int{}
		for _, ci := range serveRequests(w.cells, seed) {
			m[ci]++
		}
		return m
	}
	a, b := count(1), count(2)
	if len(a) != len(w.cells) {
		t.Fatalf("requests cover %d cells, want %d", len(a), len(w.cells))
	}
	for ci, n := range a {
		c := w.cells[ci]
		want := serveRounds
		if !c.isPlan && c.op == simulate.OpScan {
			want *= scansPerJoin
		}
		if n != want || b[ci] != want {
			t.Errorf("%s: %d and %d requests for seeds 1 and 2, want %d", c.name(), n, b[ci], want)
		}
	}
	x, y := serveRequests(w.cells, 1), serveRequests(w.cells, 1)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("one seed gave two request orders")
		}
	}
}

// TestReferenceMatchesSimulator recomputes the recorded fingerprints of
// the serving workload's cells, the quick ones, for a tuning seed and the
// held-out seed: a change to the model must re-record the references.
func TestReferenceMatchesSimulator(t *testing.T) {
	w, _ := findWorkload("serve-mix")
	for _, seed := range []int64{0, 1001} {
		p := w.params(seed)
		fps := map[string]string{}
		for _, c := range w.cells {
			res, err := exec(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if fps[c.name()], err = res.fingerprint(); err != nil {
				t.Fatal(err)
			}
		}
		changed, compared := compareReference(w.name, seed, fps)
		if changed != 0 || compared != len(w.cells) {
			t.Errorf("seed %d: %d of %d cells differ from the reference, want 0 of %d", seed, changed, compared, len(w.cells))
		}
	}
}

func TestReferencesRoundTrip(t *testing.T) {
	refs := references{
		"b": {"10": {"x/scan": "01"}, "9": {"x/scan": "02", "y/join": "03"}},
		"a": {"0": {}},
	}
	data, err := marshalSorted(refs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadReferences(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back["b"]["9"]["y/join"] != "03" || back["b"]["10"]["x/scan"] != "01" || back["a"]["0"] == nil {
		t.Errorf("round trip gave %v", back)
	}
}
