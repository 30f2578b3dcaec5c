package simulate

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// TestStreamedCheckCatchesMutations runs every operator and every plan on
// every system, then corrupts the output the run left in the vaults and
// asserts that the in-place, streamed check rejects it: one tuple's Val
// changed, the last tuple of a region dropped, or duplicated. The keys are
// untouched and the region stays key-ordered, so only the digest can tell.
func TestStreamedCheckCatchesMutations(t *testing.T) {
	p := goldenParams()
	var xs []experiment
	for _, op := range Operators() {
		xs = append(xs, op)
	}
	for _, pl := range Plans() {
		xs = append(xs, pl)
	}
	for _, s := range Systems() {
		for _, x := range xs {
			t.Run(s.String()+"/"+x.String(), func(t *testing.T) {
				e, err := engine.New(p.EngineConfig(s))
				if err != nil {
					t.Fatal(err)
				}
				_, chk, err := x.body(e, s, p)
				if err != nil {
					t.Fatal(err)
				}
				if !verifyOutput(chk) {
					t.Fatal("the unmutated output fails its check")
				}
				var r *engine.Region
				for _, o := range chk.out {
					if o.Len() > 0 {
						r = o
						break
					}
				}
				if r == nil {
					t.Fatal("the run left no output to mutate")
				}
				saved, n := r.Tuples, r.Len()
				mutations := []struct {
					name  string
					apply func()
				}{
					{"value", func() { r.Tuples[n/2].Val ^= 1 }},
					{"drop", func() { r.Tuples = r.Tuples[:n-1] }},
					{"duplicate", func() { r.Tuples = append(r.Tuples[:n:n], r.Tuples[n-1]) }},
				}
				for _, m := range mutations {
					orig := saved[n/2]
					m.apply()
					if verifyOutput(chk) {
						t.Errorf("%s mutation passed the check", m.name)
					}
					r.Tuples, saved[n/2] = saved, orig
					if !verifyOutput(chk) {
						t.Fatalf("output still fails its check after undoing the %s mutation", m.name)
					}
				}
			})
		}
	}
}
