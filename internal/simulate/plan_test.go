package simulate

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
)

// wantElisions is the compiled shape's expected re-shuffle elision count
// on the vault-partitioned systems (the CPU never fuses, and staged mode
// never elides): filter-sort carries no reusable partitioning; the -agg
// shapes each fuse their aggregation onto the upstream partition; the star
// shape additionally elides the second join's probe-side re-shuffle.
func wantElisions(s System, pl Plan, noFusion bool) int {
	if noFusion || s == CPU {
		return 0
	}
	switch pl {
	case PlanFilterSort:
		return 0
	case PlanSortAgg, PlanJoinAgg, PlanJoinAggSort:
		return 1
	case PlanStarJoinAgg:
		return 2
	}
	return 0
}

// TestPlanDifferential is the plan-level differential suite: for every
// (System, Plan) pair, in both fused and staged mode, the compiled plan's
// output multiset equals the composed RefJoin/RefGroupByTuples/RefSort
// references (RunPlan verifies internally), and the elision count matches
// the shape's expectation exactly.
func TestPlanDifferential(t *testing.T) {
	for _, s := range Systems() {
		for _, pl := range Plans() {
			s, pl := s, pl
			t.Run(s.String()+"/"+pl.String(), func(t *testing.T) {
				t.Parallel()
				for _, noFusion := range []bool{false, true} {
					p := goldenParams()
					p.NoFusion = noFusion
					r, err := RunPlan(s, pl, p)
					if err != nil {
						t.Fatalf("noFusion=%v: %v", noFusion, err)
					}
					if !r.Verified {
						t.Fatalf("noFusion=%v: output verification failed", noFusion)
					}
					if want := wantElisions(s, pl, noFusion); r.Elisions != want {
						t.Errorf("noFusion=%v: elisions = %d, want %d", noFusion, r.Elisions, want)
					}
					if len(r.Stages) == 0 {
						t.Errorf("noFusion=%v: no stage stats recorded", noFusion)
					}
				}
			})
		}
	}
}

// TestPlanSkewDifferential repeats the verification matrix on a skewed
// workload with the skew-aware path handling the provisioning, so fused
// probes run over hot keys too.
func TestPlanSkewDifferential(t *testing.T) {
	for _, s := range Systems() {
		for _, pl := range Plans() {
			s, pl := s, pl
			t.Run(s.String()+"/"+pl.String(), func(t *testing.T) {
				t.Parallel()
				p := skewParams(1.5)
				p.SkewAware = true
				r, err := RunPlan(s, pl, p)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Verified {
					t.Fatal("output verification failed")
				}
				if want := wantElisions(s, pl, false); r.Elisions != want {
					t.Errorf("elisions = %d, want %d", r.Elisions, want)
				}
			})
		}
	}
}

// TestPlanBulkDifferential extends the bulk-path acceptance test to whole
// plans: the complete PlanResult and its JSON encoding are byte-identical
// whether the run-based bulk fast path or the per-tuple reference
// implementation executes — including the plan executor's own Materialize
// compactions.
func TestPlanBulkDifferential(t *testing.T) {
	for _, s := range Systems() {
		for _, pl := range Plans() {
			s, pl := s, pl
			t.Run(s.String()+"/"+pl.String(), func(t *testing.T) {
				t.Parallel()
				var golden *PlanResult
				var goldenJSON []byte
				for _, noBulk := range []bool{false, true} {
					p := goldenParams()
					p.NoBulk = noBulk
					r, err := RunPlan(s, pl, p)
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
						t.Errorf("PlanResult with reference path differs from bulk path")
					}
					if !bytes.Equal(goldenJSON, j) {
						t.Errorf("plan JSON with reference path differs from bulk path:\n%s\nvs\n%s",
							goldenJSON, j)
					}
				}
			})
		}
	}
}

// runPlanWithObs executes one plan experiment with a fresh registry and
// returns its manifest (spans included).
func runPlanWithObs(t *testing.T, s System, pl Plan, p Params) *obs.Manifest {
	t.Helper()
	p.Obs = obs.NewRegistry()
	r, err := RunPlan(s, pl, p)
	if err != nil {
		t.Fatalf("%v/%v: %v", s, pl, err)
	}
	if !r.Verified {
		t.Fatalf("%v/%v: output verification failed", s, pl)
	}
	return BuildPlanManifest(r, p, true)
}

// TestPlanManifestDeterminism extends the manifest determinism tentpole to
// plan runs: for every (System, Plan) pair, the manifest's deterministic
// projection — metrics, per-stage phase timings under the stage-prefixed
// names, and the span tree — is byte-identical at parallelism 1, 4 and
// GOMAXPROCS.
func TestPlanManifestDeterminism(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, s := range Systems() {
		for _, pl := range Plans() {
			s, pl := s, pl
			t.Run(s.String()+"/"+pl.String(), func(t *testing.T) {
				t.Parallel()
				var golden []byte
				for _, par := range levels {
					p := goldenParams()
					p.Parallelism = par
					m := runPlanWithObs(t, s, pl, p)
					j, err := json.Marshal(m.Deterministic())
					if err != nil {
						t.Fatalf("parallelism %d: marshal: %v", par, err)
					}
					if golden == nil {
						golden = j
						continue
					}
					if !bytes.Equal(golden, j) {
						t.Errorf("plan manifest at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
							par, levels[0], golden, j)
					}
				}
			})
		}
	}
}

// TestPlanManifestContent pins the plan manifest's identity and phase
// naming: the Operator field carries the "plan:" spelling (with "+staged"
// when fusion is off), and every phase name is prefixed by the stage label
// that produced it, so multi-stage runs stay addressable.
func TestPlanManifestContent(t *testing.T) {
	m := runPlanWithObs(t, Mondrian, PlanJoinAgg, goldenParams())
	if m.Operator != "plan:join-agg" {
		t.Errorf("Operator = %q, want plan:join-agg", m.Operator)
	}
	var join, groupby int
	for _, ph := range m.Phases {
		if len(ph.Name) >= 5 && ph.Name[:5] == "join/" {
			join++
		}
		if len(ph.Name) >= 8 && ph.Name[:8] == "groupby/" {
			groupby++
		}
	}
	if join == 0 || groupby == 0 {
		var names []string
		for _, ph := range m.Phases {
			names = append(names, ph.Name)
		}
		t.Errorf("missing stage-prefixed phases: %v", names)
	}

	p := goldenParams()
	p.NoFusion = true
	staged := runPlanWithObs(t, Mondrian, PlanJoinAgg, p)
	if staged.Operator != "plan:join-agg+staged" {
		t.Errorf("staged Operator = %q, want plan:join-agg+staged", staged.Operator)
	}
}

// TestPlanFusionSavings is the tentpole acceptance test: on the
// vault-partitioned systems, the fused join-agg plan provably elides a
// re-shuffle — its exchange_bytes counter is strictly lower than the
// staged run's — and finishes in strictly less simulated time.
func TestPlanFusionSavings(t *testing.T) {
	for _, s := range []System{NMP, Mondrian} {
		for _, pl := range []Plan{PlanJoinAgg, PlanJoinAggSort, PlanStarJoinAgg} {
			s, pl := s, pl
			t.Run(s.String()+"/"+pl.String(), func(t *testing.T) {
				t.Parallel()
				run := func(noFusion bool) (*PlanResult, uint64) {
					p := goldenParams()
					p.NoFusion = noFusion
					p.Obs = obs.NewRegistry()
					r, err := RunPlan(s, pl, p)
					if err != nil {
						t.Fatalf("noFusion=%v: %v", noFusion, err)
					}
					if !r.Verified {
						t.Fatalf("noFusion=%v: output verification failed", noFusion)
					}
					return r, p.Obs.Snapshot().Counters["exchange_bytes"]
				}
				fused, fusedBytes := run(false)
				staged, stagedBytes := run(true)
				if fused.Elisions == 0 || staged.Elisions != 0 {
					t.Fatalf("elisions fused=%d staged=%d", fused.Elisions, staged.Elisions)
				}
				if fusedBytes >= stagedBytes {
					t.Errorf("exchange_bytes fused=%d >= staged=%d: no re-shuffle elided",
						fusedBytes, stagedBytes)
				}
				if fused.TotalNs >= staged.TotalNs {
					t.Errorf("TotalNs fused=%g >= staged=%g", fused.TotalNs, staged.TotalNs)
				}
			})
		}
	}
}

// TestRunPlanValidation checks the typed rejection of out-of-range
// selectors and bad params, mirroring Run's front door.
func TestRunPlanValidation(t *testing.T) {
	var pe *ParamError
	if _, err := RunPlan(System(-1), PlanJoinAgg, goldenParams()); !errors.As(err, &pe) {
		t.Errorf("negative system: got %v, want *ParamError", err)
	}
	if _, err := RunPlan(Mondrian, Plan(99), goldenParams()); !errors.As(err, &pe) {
		t.Errorf("out-of-range plan: got %v, want *ParamError", err)
	}
	p := goldenParams()
	p.STuples = -1
	if _, err := RunPlan(Mondrian, PlanJoinAgg, p); !errors.As(err, &pe) {
		t.Errorf("bad params: got %v, want *ParamError", err)
	}
}

// TestParsePlan round-trips every registered spelling and rejects unknowns.
func TestParsePlan(t *testing.T) {
	for _, pl := range Plans() {
		got, err := ParsePlan(pl.String())
		if err != nil || got != pl {
			t.Errorf("ParsePlan(%q) = %v, %v", pl.String(), got, err)
		}
	}
	if got, err := ParsePlan("Join-Agg"); err != nil || got != PlanJoinAgg {
		t.Errorf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParsePlan("nope"); err == nil {
		t.Errorf("ParsePlan accepted an unknown plan")
	}
}
