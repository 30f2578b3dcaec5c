package simulate

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
)

// skewParams shapes the skew suite: large enough that the top Zipf keys
// overflow the default 2× overprovision at s=2.0, small enough for fast
// runs.
func skewParams(zipfS float64) Params {
	p := TestParams()
	p.STuples = 1 << 14
	p.RTuples = 1 << 13
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	p.ZipfS = zipfS
	return p
}

// minimalOverprovision finds, by doubling, the smallest tested
// overprovision factor at which the skew-UNAWARE run succeeds, and
// returns that factor. The equivalence comparison runs at this factor:
// skew-aware provisioning only changes simulated state on runs that
// would otherwise overflow, so equivalence is only defined where the
// unaware path completes.
func minimalOverprovision(t *testing.T, s System, op Operator, p Params) float64 {
	t.Helper()
	for _, over := range []float64{0, 4, 8, 16, 32, 64, 128, 256} {
		q := p
		q.SkewAware = false
		q.Overprovision = over
		_, err := Run(s, op, q)
		if err == nil {
			return over
		}
		if !errors.Is(err, operators.ErrPartitionOverflow) {
			t.Fatalf("overprovision %g: unexpected error: %v", over, err)
		}
	}
	t.Fatalf("%v/%v: still overflowing at overprovision 256", s, op)
	return 0
}

// TestSkewAwareEquivalence is the tentpole acceptance test for the
// skew-aware path: for every (System, Operator) pair, under uniform keys
// and Zipf exponents 1.1, 1.5 and 2.0, the complete Result and its JSON
// encoding are byte-identical with SkewAware on or off. Exact
// provisioning may only add the load gauges to the obs metrics — never
// change a simulated number.
//
// The comparison runs at the minimal overprovision factor that lets the
// skew-unaware run complete, because on overflowing inputs the unaware
// path has no result to compare against (that regime is covered by
// TestSkewAwareRescuesOverflow instead).
func TestSkewAwareEquivalence(t *testing.T) {
	for _, s := range Systems() {
		for _, op := range Operators() {
			for _, zipfS := range []float64{0, 1.1, 1.5, 2.0} {
				s, op, zipfS := s, op, zipfS
				t.Run(s.String()+"/"+op.String()+"/"+name(zipfS), func(t *testing.T) {
					t.Parallel()
					p := skewParams(zipfS)
					p.Overprovision = minimalOverprovision(t, s, op, p)
					var golden *Result
					var goldenJSON []byte
					for _, aware := range []bool{false, true} {
						q := p
						q.SkewAware = aware
						r, err := Run(s, op, q)
						if err != nil {
							t.Fatalf("skewAware=%v: %v", aware, err)
						}
						if !r.Verified {
							t.Fatalf("skewAware=%v: output verification failed", aware)
						}
						j, err := json.Marshal(r)
						if err != nil {
							t.Fatalf("skewAware=%v: marshal: %v", aware, err)
						}
						if golden == nil {
							golden, goldenJSON = r, j
							continue
						}
						if !reflect.DeepEqual(golden, r) {
							t.Errorf("Result differs between skew-aware off and on")
						}
						if !bytes.Equal(goldenJSON, j) {
							t.Errorf("report JSON differs between skew-aware off and on:\n%s\nvs\n%s",
								goldenJSON, j)
						}
					}
				})
			}
		}
	}
}

// name renders a Zipf exponent as a subtest name.
func name(zipfS float64) string {
	switch zipfS {
	case 0:
		return "uniform"
	case 1.1:
		return "zipf1.1"
	case 1.5:
		return "zipf1.5"
	case 2.0:
		return "zipf2.0"
	}
	return "zipf"
}

// TestSkewAwareRescuesOverflow pins the provisioning half of the
// tentpole: at Zipf s=2.0 with the default 2× overprovision, the
// skew-unaware run overflows its destination buffers on both partition
// implementations (the NMP histogram-exchange path and the CPU
// count-then-carve path), while the skew-aware run provisions from the
// exact histogram, completes in one attempt, and verifies.
func TestSkewAwareRescuesOverflow(t *testing.T) {
	for _, s := range []System{Mondrian, CPU} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			p := skewParams(2.0)
			p.SkewAware = false
			if _, err := Run(s, OpGroupBy, p); !errors.Is(err, operators.ErrPartitionOverflow) {
				t.Fatalf("skew-unaware run at s=2.0: got %v, want partition overflow", err)
			}
			p.SkewAware = true
			r, err := Run(s, OpGroupBy, p)
			if err != nil {
				t.Fatalf("skew-aware run at s=2.0: %v", err)
			}
			if !r.Verified {
				t.Fatal("skew-aware run at s=2.0: output verification failed")
			}
		})
	}
}

// TestSkewAwareObsMetrics pins the exact skew metric set: against the
// same skewed run without skew awareness (at the smallest overprovision
// that completes), a skew-aware manifest adds phase_load_max and
// phase_load_mean for each partition phase (Join runs two) and no other
// metric name, and the skew-unaware manifest carries no load gauge and
// no skew_ name.
func TestSkewAwareObsMetrics(t *testing.T) {
	for _, op := range []Operator{OpSort, OpGroupBy, OpJoin} {
		t.Run(op.String(), func(t *testing.T) {
			p := skewParams(2.0)
			p.SkewAware = true
			on := runWithObs(t, Mondrian, op, p)
			p.SkewAware = false
			p.Overprovision = minimalOverprovision(t, Mondrian, op, p)
			off := runWithObs(t, Mondrian, op, p)

			want := map[string]bool{}
			for _, ph := range on.Phases {
				if strings.HasPrefix(ph.Name, "partition") {
					want[obs.Label("phase_load_max", "phase", ph.Name)] = true
					want[obs.Label("phase_load_mean", "phase", ph.Name)] = true
				}
			}
			if len(want) == 0 {
				t.Fatal("manifest lists no partition phase")
			}
			onNames, offNames := metricNames(on.Metrics), metricNames(off.Metrics)
			added := map[string]bool{}
			for name := range onNames {
				if !offNames[name] {
					added[name] = true
				}
			}
			if !reflect.DeepEqual(added, want) {
				t.Errorf("skew awareness adds metrics %v, want exactly %v", added, want)
			}
			for name := range offNames {
				if !onNames[name] {
					t.Errorf("skew awareness drops metric %q", name)
				}
				if strings.HasPrefix(name, "phase_load_") || strings.HasPrefix(name, "skew_") {
					t.Errorf("skew-unaware manifest carries skew metric %q", name)
				}
			}
		})
	}
}

// metricNames returns the set of every metric name in snap.
func metricNames(snap obs.Snapshot) map[string]bool {
	names := map[string]bool{}
	for name := range snap.Counters {
		names[name] = true
	}
	for name := range snap.Gauges {
		names[name] = true
	}
	for name := range snap.Histograms {
		names[name] = true
	}
	return names
}

// TestManifestDeterminismSkewAware extends the observability tentpole to
// the skew-aware path: on a skewed workload, the manifest's deterministic
// projection — including the phase_load_* gauges — is byte-identical at
// parallelism 1, 4 and 8.
func TestManifestDeterminismSkewAware(t *testing.T) {
	for _, s := range []System{Mondrian, NMPSeq, CPU} {
		for _, op := range Operators() {
			s, op := s, op
			t.Run(s.String()+"/"+op.String(), func(t *testing.T) {
				t.Parallel()
				var golden []byte
				for _, par := range []int{1, 4, 8} {
					p := skewParams(1.5)
					p.SkewAware = true
					p.Parallelism = par
					m := runWithObs(t, s, op, p)
					j, err := json.Marshal(m.Deterministic())
					if err != nil {
						t.Fatalf("parallelism %d: marshal: %v", par, err)
					}
					if golden == nil {
						golden = j
						continue
					}
					if !bytes.Equal(golden, j) {
						t.Errorf("skew-aware manifest at parallelism %d differs from parallelism 1:\n%s\nvs\n%s",
							par, golden, j)
					}
				}
			})
		}
	}
}
