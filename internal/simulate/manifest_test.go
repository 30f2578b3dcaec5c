package simulate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
)

// runWithObs executes one experiment with a fresh registry and returns
// its manifest (spans included, so span determinism is covered too).
func runWithObs(t *testing.T, s System, op Operator, p Params) *obs.Manifest {
	t.Helper()
	p.Obs = obs.NewRegistry()
	r, err := Run(s, op, p)
	if err != nil {
		t.Fatalf("%v/%v: %v", s, op, err)
	}
	if !r.Verified {
		t.Fatalf("%v/%v: output verification failed", s, op)
	}
	return BuildManifest(r, p, true)
}

// TestManifestDeterminism is the tentpole acceptance test for the
// observability layer: for every (System, Operator) pair, the manifest's
// deterministic projection — every counter, gauge, histogram, per-phase
// simulated time, and the span tree — is byte-identical at parallelism
// 1, 4 and GOMAXPROCS. Host concurrency must never leak into metrics.
func TestManifestDeterminism(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, s := range Systems() {
		for _, op := range Operators() {
			s, op := s, op
			t.Run(s.String()+"/"+op.String(), func(t *testing.T) {
				t.Parallel()
				var golden []byte
				for _, par := range levels {
					p := goldenParams()
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
						t.Errorf("manifest at parallelism %d differs from parallelism %d:\n%s\nvs\n%s",
							par, levels[0], golden, j)
					}
				}
			})
		}
	}
}

// TestManifestContent sanity-checks that the hot layers actually reported:
// a Mondrian sort must show partition+probe phases, DRAM row activity,
// stream-buffer fills, permutable writes, SerDes traffic and spans.
func TestManifestContent(t *testing.T) {
	m := runWithObs(t, Mondrian, OpSort, goldenParams())

	if m.Schema != obs.ManifestSchema {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.System != "Mondrian" || m.Operator != "Sort" {
		t.Errorf("identity = %s/%s", m.System, m.Operator)
	}
	if !m.Verified {
		t.Errorf("manifest not marked verified")
	}
	if m.SimulatedTotalNs <= 0 {
		t.Errorf("SimulatedTotalNs = %g", m.SimulatedTotalNs)
	}

	var names []string
	for _, ph := range m.Phases {
		names = append(names, ph.Name)
		if ph.SimulatedNs <= 0 {
			t.Errorf("phase %q has non-positive simulated time", ph.Name)
		}
	}
	if len(names) != 2 || names[0] != "partition" || names[1] != "probe" {
		t.Errorf("phases = %v, want [partition probe]", names)
	}

	c := m.Metrics.Counters
	for _, name := range []string{
		"dram_row_hits", "dram_activations", "accesses_total",
		"stream_fill_bytes", "permuted_writes", "serdes_bytes",
		"mesh_bytes", "exchange_tuples", "exchange_permutable_writes",
		`phase_dram_bytes{phase="partition"}`,
		`phase_dram_bytes{phase="probe"}`,
	} {
		if c[name] == 0 {
			t.Errorf("counter %q is zero or missing", name)
		}
	}
	if m.Metrics.Gauges["sim_total_ns"] != m.SimulatedTotalNs {
		t.Errorf("sim_total_ns gauge %g != total %g",
			m.Metrics.Gauges["sim_total_ns"], m.SimulatedTotalNs)
	}
	if m.Metrics.Gauges["energy_total_j"] <= 0 {
		t.Errorf("energy_total_j gauge missing")
	}
	if h, ok := m.Metrics.Histograms["mesh_hops"]; !ok || h.Count == 0 {
		t.Errorf("mesh_hops histogram empty")
	}

	if m.Spans == nil || m.Spans.Name != "run" {
		t.Fatalf("span tree missing")
	}
	if m.Spans.EndNs != m.SimulatedTotalNs {
		t.Errorf("root span end %g != total %g", m.Spans.EndNs, m.SimulatedTotalNs)
	}
	var phaseSpans int
	for _, c := range m.Spans.Children {
		if c.Name == "partition" || c.Name == "probe" {
			phaseSpans++
			if len(c.Children) == 0 {
				t.Errorf("phase span %q has no step children", c.Name)
			}
		}
	}
	if phaseSpans != 2 {
		t.Errorf("found %d phase spans, want 2", phaseSpans)
	}

	if m.Host.GoVersion == "" || m.Host.GOARCH == "" {
		t.Errorf("host info incomplete: %+v", m.Host)
	}
}

// TestManifestHostRecordsExecution pins the manifest's host section to
// how the run executed: the default Parallelism (0) is recorded as the
// GOMAXPROCS worker count it resolves to, and parallelism, no_bulk and
// no_pool are always present, true when set.
func TestManifestHostRecordsExecution(t *testing.T) {
	p := TestParams()
	p.STuples = 1 << 12
	r, err := Run(Mondrian, OpScan, p)
	if err != nil {
		t.Fatal(err)
	}
	host := func(p Params) map[string]any {
		t.Helper()
		j, err := json.Marshal(BuildManifest(r, p, false))
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Host map[string]any `json:"host"`
		}
		if err := json.Unmarshal(j, &m); err != nil {
			t.Fatal(err)
		}
		return m.Host
	}

	t.Run("default", func(t *testing.T) {
		h := host(p)
		if got, want := h["parallelism"], float64(runtime.GOMAXPROCS(0)); got != want {
			t.Errorf("host parallelism = %v, want GOMAXPROCS %v", got, want)
		}
		if h["no_bulk"] != false || h["no_pool"] != false {
			t.Errorf("host no_bulk = %v, no_pool = %v, want false, false", h["no_bulk"], h["no_pool"])
		}
	})
	t.Run("set", func(t *testing.T) {
		q := p
		q.Parallelism, q.NoBulk, q.NoPool = 3, true, true
		h := host(q)
		if h["parallelism"] != float64(3) || h["no_bulk"] != true || h["no_pool"] != true {
			t.Errorf("host = %v, want parallelism 3, no_bulk and no_pool true", h)
		}
	})
}

// TestManifestJoinPhases checks the Join dedup: two partition phases get
// distinct names, so per-phase counters do not collide.
func TestManifestJoinPhases(t *testing.T) {
	m := runWithObs(t, Mondrian, OpJoin, goldenParams())
	var names []string
	for _, ph := range m.Phases {
		names = append(names, ph.Name)
	}
	want := []string{"partition", "partition#2", "probe"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}
}

// TestObsDisabledLeavesResultBare pins the disabled fast path: without a
// registry, Run must not attach phases or spans (and the golden fixtures
// of PR 4 stay byte-identical).
func TestObsDisabledLeavesResultBare(t *testing.T) {
	p := goldenParams()
	r, err := Run(Mondrian, OpScan, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases != nil || r.Spans != nil {
		t.Errorf("disabled obs must leave Phases/Spans nil")
	}
}

// TestManifestRecordsSimParams pins the Params split: a run manifest
// records every simulated field and no host field. One run's manifest is
// rebuilt with each leaf of SimParams (recursing into Energy) changed in
// turn, which must change its Deterministic() bytes, and with each
// HostParams field changed in turn, which must not.
func TestManifestRecordsSimParams(t *testing.T) {
	if n := reflect.TypeOf(Params{}).NumField(); n != 3 {
		t.Fatalf("Params has %d fields, want SimParams, HostParams and Obs", n)
	}
	p := goldenParams()
	p.Obs = obs.NewRegistry()
	res, err := Run(Mondrian, OpScan, p)
	if err != nil {
		t.Fatal(err)
	}
	manifest := func(p Params) []byte {
		b, err := json.Marshal(BuildManifest(res, p, false).Deterministic())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := manifest(p)
	for _, half := range []struct {
		name     string
		recorded bool
	}{{"SimParams", true}, {"HostParams", false}} {
		typ, _ := reflect.TypeOf(p).FieldByName(half.name)
		leaves := leafFields(typ.Type, half.name, nil)
		if len(leaves) == 0 {
			t.Fatalf("%s has no fields", half.name)
		}
		for _, leaf := range leaves {
			q := p
			f := reflect.ValueOf(&q).Elem().FieldByName(half.name).FieldByIndex(leaf.index)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(2*f.Float() + 1)
			default:
				t.Fatalf("%s: no change defined for kind %v", leaf.name, f.Kind())
			}
			if changed := !bytes.Equal(base, manifest(q)); changed != half.recorded {
				t.Errorf("changing %s changed the manifest: %v, want %v", leaf.name, changed, half.recorded)
			}
		}
	}
}

// leafField is one non-struct field under a struct type: its dotted name
// and its index path for reflect.Value.FieldByIndex.
type leafField struct {
	name  string
	index []int
}

// leafFields lists every non-struct field under typ, recursing into
// struct-typed fields.
func leafFields(typ reflect.Type, prefix string, index []int) []leafField {
	var out []leafField
	for i := range typ.NumField() {
		f := typ.Field(i)
		path := append(append([]int(nil), index...), i)
		name := prefix + "." + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, name, path)...)
			continue
		}
		out = append(out, leafField{name, path})
	}
	return out
}
