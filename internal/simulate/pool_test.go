package simulate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// TestResetEquivalence is the tentpole acceptance test for the pooled
// engine lifecycle: for every (System, Operator) pair, with skew-aware
// execution off and on, running the experiment on a reset engine produces
// a Result — timing, energy, DRAM stats, step timeline — whose JSON
// encoding is byte-identical to the same experiment on a fresh engine.
// Engine reuse must be invisible in every simulated number.
func TestResetEquivalence(t *testing.T) {
	for _, s := range Systems() {
		for _, op := range Operators() {
			for _, skew := range []bool{false, true} {
				s, op, skew := s, op, skew
				sub := s.String() + "/" + op.String()
				if skew {
					sub += "/skew"
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					p := goldenParams()
					p.SkewAware = skew
					e, err := engine.New(p.EngineConfig(s))
					if err != nil {
						t.Fatal(err)
					}
					var golden *Result
					var goldenJSON []byte
					for round := 0; round < 3; round++ {
						if round > 0 {
							e.Reset()
						}
						rep, err := runOn(e, s, op, p)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						r := rep.(*Result)
						if !r.Verified {
							t.Fatalf("round %d: output verification failed", round)
						}
						j, err := json.Marshal(r)
						if err != nil {
							t.Fatalf("round %d: marshal: %v", round, err)
						}
						if golden == nil {
							golden, goldenJSON = r, j
							continue
						}
						if !reflect.DeepEqual(golden, r) {
							t.Errorf("round %d: Result differs between fresh and reset engine", round)
						}
						if !bytes.Equal(goldenJSON, j) {
							t.Errorf("round %d: report JSON differs between fresh and reset engine:\n%s\nvs\n%s",
								round, goldenJSON, j)
						}
					}
				})
			}
		}
	}
}

// TestResetEquivalenceAcrossOperators proves a reset engine carries no
// cross-workload contamination: one engine cycles through all four
// operators with a Reset between runs, and each result must match a
// fresh-engine (NoPool) run of that operator byte for byte.
func TestResetEquivalenceAcrossOperators(t *testing.T) {
	for _, s := range []System{CPU, Mondrian} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			p := goldenParams()
			e, err := engine.New(p.EngineConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			first := true
			for _, op := range Operators() {
				if !first {
					e.Reset()
				}
				first = false
				got, err := runOn(e, s, op, p)
				if err != nil {
					t.Fatalf("%v: %v", op, err)
				}
				fp := p
				fp.NoPool = true
				want, err := Run(s, op, fp)
				if err != nil {
					t.Fatalf("%v fresh: %v", op, err)
				}
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want)
				if !bytes.Equal(gj, wj) {
					t.Errorf("%v: recycled-engine JSON differs from fresh run", op)
				}
			}
		})
	}
}

// TestPlanResetEquivalence extends the reset contract to compiled query
// plans: a reset engine re-running a plan reproduces the fresh PlanResult
// byte for byte.
func TestPlanResetEquivalence(t *testing.T) {
	for _, s := range []System{CPU, Mondrian} {
		for _, pl := range []Plan{PlanFilterSort, PlanJoinAggSort} {
			s, pl := s, pl
			t.Run(fmt.Sprintf("%v/%v", s, pl), func(t *testing.T) {
				t.Parallel()
				p := goldenParams()
				e, err := engine.New(p.EngineConfig(s))
				if err != nil {
					t.Fatal(err)
				}
				var goldenJSON []byte
				for round := 0; round < 2; round++ {
					if round > 0 {
						e.Reset()
					}
					rep, err := runOn(e, s, pl, p)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					r := rep.(*PlanResult)
					if !r.Verified {
						t.Fatalf("round %d: output verification failed", round)
					}
					j, _ := json.Marshal(r)
					if goldenJSON == nil {
						goldenJSON = j
						continue
					}
					if !bytes.Equal(goldenJSON, j) {
						t.Errorf("round %d: plan JSON differs between fresh and reset engine", round)
					}
				}
			})
		}
	}
}

// TestPooledRunEquivalence checks the public front door: Run with the
// default pooled lifecycle (drawing whatever reset engine the shared pool
// holds) matches Run with NoPool byte for byte.
func TestPooledRunEquivalence(t *testing.T) {
	for _, s := range Systems() {
		for _, op := range Operators() {
			s, op := s, op
			t.Run(s.String()+"/"+op.String(), func(t *testing.T) {
				t.Parallel()
				fp := goldenParams()
				fp.NoPool = true
				want, err := Run(s, op, fp)
				if err != nil {
					t.Fatal(err)
				}
				wj, _ := json.Marshal(want)
				pp := goldenParams()
				for round := 0; round < 2; round++ {
					got, err := Run(s, op, pp)
					if err != nil {
						t.Fatalf("pooled round %d: %v", round, err)
					}
					gj, _ := json.Marshal(got)
					if !bytes.Equal(wj, gj) {
						t.Errorf("pooled round %d differs from NoPool run", round)
					}
				}
			})
		}
	}
}

// concurrencyParams shrinks the golden setup so the full mixed matrix
// stays fast under the race detector.
func concurrencyParams() Params {
	p := goldenParams()
	p.STuples = 1 << 12
	p.RTuples = 1 << 11
	return p
}

// TestConcurrentRunDeterminism is the serving-layer correctness contract:
// many goroutines calling Run concurrently — mixed systems and operators,
// all drawing engines from the shared pool — must be race-clean and
// produce results byte-identical to their serial twins.
func TestConcurrentRunDeterminism(t *testing.T) {
	p := concurrencyParams()
	type cell struct {
		s  System
		op Operator
	}
	var cells []cell
	for _, s := range Systems() {
		for _, op := range Operators() {
			cells = append(cells, cell{s, op})
		}
	}

	// Serial twins, fresh engines.
	want := make([][]byte, len(cells))
	for i, c := range cells {
		sp := p
		sp.NoPool = true
		r, err := Run(c.s, c.op, sp)
		if err != nil {
			t.Fatalf("serial %v/%v: %v", c.s, c.op, err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = j
	}

	// Two concurrent rounds over the whole matrix: round two acquires the
	// engines round one released, so reuse happens under real concurrency.
	const rounds = 2
	errs := make(chan error, rounds*len(cells))
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, c := range cells {
			wg.Add(1)
			go func(round, i int, c cell) {
				defer wg.Done()
				r, err := Run(c.s, c.op, p)
				if err != nil {
					errs <- fmt.Errorf("round %d %v/%v: %w", round, c.s, c.op, err)
					return
				}
				j, err := json.Marshal(r)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(j, want[i]) {
					errs <- fmt.Errorf("round %d %v/%v: concurrent result differs from serial twin", round, c.s, c.op)
				}
			}(round, i, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoPoolBypassesPool pins the escape hatch: NoPool runs must not
// touch the shared pool at all.
func TestNoPoolBypassesPool(t *testing.T) {
	before := PoolStats()
	p := concurrencyParams()
	p.NoPool = true
	if _, err := Run(Mondrian, OpScan, p); err != nil {
		t.Fatal(err)
	}
	if after := PoolStats(); after != before {
		t.Fatalf("NoPool run moved pool stats: %+v -> %+v", before, after)
	}
}

// TestPooledRunAllocatesLess quantifies the lifecycle win the pool exists
// for: a pooled steady-state run allocates strictly less than a
// build-per-run one, because caches, TLBs, LLC and per-unit hardware are
// reused rather than rebuilt.
func TestPooledRunAllocatesLess(t *testing.T) {
	p := concurrencyParams()
	run := func(noPool bool) float64 {
		rp := p
		rp.NoPool = noPool
		// Warm the pool (and the allocator) once outside the measurement.
		if _, err := Run(CPU, OpScan, rp); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(CPU, OpScan, rp); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh := run(true)
	pooled := run(false)
	if pooled >= fresh {
		t.Errorf("pooled run allocates %.0f, fresh run %.0f — pooling saved nothing", pooled, fresh)
	}
}
