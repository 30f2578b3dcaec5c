package simulate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestBulkDifferential is the bulk-path acceptance test: for every
// (System, Operator) pair, the complete Result — timing, energy, DRAM
// stats, step timeline — and its JSON encoding are byte-identical
// whether the run-based bulk fast path or the per-tuple reference
// implementation executes. The bulk path may only change wall-clock
// time, never a simulated number. Besides the golden input, every pair
// also runs skew-aware at Zipf exponents 0 (uniform), 1.5 and 2.0, so
// the bulk loops meet their per-tuple references on skewed inputs and
// exactly provisioned buffers.
func TestBulkDifferential(t *testing.T) {
	type input struct {
		name string
		p    Params
	}
	inputs := []input{{"", goldenParams()}}
	for _, z := range []float64{0, 1.5, 2.0} {
		p := skewParams(z)
		p.SkewAware = true
		inputs = append(inputs, input{fmt.Sprintf("/skew-zipf%g", z), p})
	}
	for _, s := range Systems() {
		for _, op := range Operators() {
			for _, in := range inputs {
				s, op, in := s, op, in
				t.Run(s.String()+"/"+op.String()+in.name, func(t *testing.T) {
					t.Parallel()
					var golden *Result
					var goldenJSON []byte
					for _, noBulk := range []bool{false, true} {
						p := in.p
						p.NoBulk = noBulk
						r, err := Run(s, op, p)
						if err != nil {
							t.Fatalf("noBulk=%v: %v", noBulk, err)
						}
						if !r.Verified {
							t.Fatalf("noBulk=%v: output verification failed", noBulk)
						}
						j, err := json.Marshal(r)
						if err != nil {
							t.Fatalf("noBulk=%v: marshal: %v", noBulk, err)
						}
						if golden == nil {
							golden, goldenJSON = r, j
							continue
						}
						if !reflect.DeepEqual(golden, r) {
							t.Errorf("Result with reference path differs from bulk path")
						}
						if !bytes.Equal(goldenJSON, j) {
							t.Errorf("report JSON with reference path differs from bulk path:\n%s\nvs\n%s",
								goldenJSON, j)
						}
					}
				})
			}
		}
	}
}

// TestBulkDifferentialParallel repeats the bulk/reference comparison at
// parallelism 4 for one representative sequential-algorithm system, so
// the bulk trace-buffer replay is exercised under the worker pool too.
func TestBulkDifferentialParallel(t *testing.T) {
	for _, op := range Operators() {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			var golden *Result
			for _, noBulk := range []bool{false, true} {
				p := goldenParams()
				p.NoBulk = noBulk
				p.Parallelism = 4
				r, err := Run(Mondrian, op, p)
				if err != nil {
					t.Fatalf("noBulk=%v: %v", noBulk, err)
				}
				if golden == nil {
					golden = r
					continue
				}
				if !reflect.DeepEqual(golden, r) {
					t.Errorf("Result with reference path differs from bulk path at parallelism 4")
				}
			}
		})
	}
}
