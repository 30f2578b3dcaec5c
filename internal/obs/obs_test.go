package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metric handles")
	}
	// All of these must be safe no-ops.
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	g.Add(2)
	h.Observe(1)
	h.ObserveN(5, 10)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("nil metrics must read as zero")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("nil snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil || buf.Len() != 0 {
		t.Fatalf("nil prom export: err=%v len=%d", err, buf.Len())
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("requests") != c {
		t.Fatalf("re-registration must return the same counter")
	}

	g := r.Gauge("temp")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %g, want 7.5", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	h.Observe(0.5) // bucket 0 (<=1)
	h.Observe(1)   // bucket 0 (inclusive upper bound)
	h.Observe(5)   // bucket 1
	h.ObserveN(50, 3)
	h.Observe(1000) // overflow
	snap := h.Snapshot()
	wantCounts := []uint64{2, 1, 3, 1}
	if !reflect.DeepEqual(snap.Counts, wantCounts) {
		t.Fatalf("hist counts = %v, want %v", snap.Counts, wantCounts)
	}
	if snap.Count != 7 {
		t.Fatalf("hist count = %d, want 7", snap.Count)
	}
	if snap.Sum != 0.5+1+5+150+1000 {
		t.Fatalf("hist sum = %g", snap.Sum)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic registering gauge over counter")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic re-registering with different bounds")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

func TestLabelAndSplit(t *testing.T) {
	n := Label("dram_row_hits", "vault", "3")
	if n != `dram_row_hits{vault="3"}` {
		t.Fatalf("Label = %q", n)
	}
	n2 := Label(n, "cube", "1")
	if n2 != `dram_row_hits{vault="3",cube="1"}` {
		t.Fatalf("nested Label = %q", n2)
	}
	f, l := splitName(n2)
	if f != "dram_row_hits" || l != `vault="3",cube="1"` {
		t.Fatalf("splitName = %q / %q", f, l)
	}
	f, l = splitName("plain")
	if f != "plain" || l != "" {
		t.Fatalf("splitName(plain) = %q / %q", f, l)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("bytes_total", "link", "cpu_tx_0")).Add(64)
	r.Counter(Label("bytes_total", "link", "cpu_tx_1")).Add(128)
	r.Gauge("ipc").Set(1.5)
	h := r.Histogram("hops", []float64{1, 2, 4})
	h.ObserveN(1, 3)
	h.ObserveN(3, 2)
	h.Observe(9)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := []string{
		"# TYPE bytes_total counter",
		`bytes_total{link="cpu_tx_0"} 64`,
		`bytes_total{link="cpu_tx_1"} 128`,
		"# TYPE ipc gauge",
		"ipc 1.5",
		"# TYPE hops histogram",
		`hops_bucket{le="1"} 3`,
		`hops_bucket{le="2"} 3`,
		`hops_bucket{le="4"} 5`,
		`hops_bucket{le="+Inf"} 6`,
		"hops_sum 18",
		"hops_count 6",
	}
	for _, line := range want {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("prometheus output missing %q:\n%s", line, out)
		}
	}
	// TYPE header must appear exactly once per family.
	if strings.Count(out, "# TYPE bytes_total counter") != 1 {
		t.Fatalf("duplicate TYPE header:\n%s", out)
	}
}

func TestSpanTree(t *testing.T) {
	root := &Span{Name: "run", StartNs: 0, EndNs: 100}
	p := root.Child("partition", 0, 60)
	p.SetAttr("bytes", 4096)
	root.Child("probe", 60, 100)
	if p.DurationNs() != 60 {
		t.Fatalf("DurationNs = %g", p.DurationNs())
	}
	var buf bytes.Buffer
	if err := root.WriteTree(&buf, -1); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	out := buf.String()
	for _, frag := range []string{"run [0..100 ns, 100 ns]", "  partition", "bytes=4096", "  probe"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("tree output missing %q:\n%s", frag, out)
		}
	}
	// Depth limit 1 keeps only root+children (here: everything); depth 0
	// prints only the root.
	buf.Reset()
	if err := root.WriteTree(&buf, 0); err != nil {
		t.Fatalf("WriteTree depth 0: %v", err)
	}
	if strings.Contains(buf.String(), "partition") {
		t.Fatalf("depth 0 must not descend:\n%s", buf.String())
	}
}

func TestManifestDeterministicStripsHost(t *testing.T) {
	m := Manifest{
		Schema:           ManifestSchema,
		System:           "mondrian",
		Operator:         "sort",
		SimulatedTotalNs: 123,
		Phases: []PhaseSummary{
			{Name: "partition", SimulatedNs: 100, WallNs: 555},
			{Name: "probe", SimulatedNs: 23, WallNs: 777},
		},
		Host: NewHostInfo(4, true, true),
	}
	m.Host.WallNs = 999
	m.Host.Timestamp = "2026-08-06T00:00:00Z"

	d := m.Deterministic()
	if d.Host != (HostInfo{}) {
		t.Fatalf("Deterministic must zero Host: %+v", d.Host)
	}
	for _, p := range d.Phases {
		if p.WallNs != 0 {
			t.Fatalf("Deterministic must zero phase wall times: %+v", p)
		}
	}
	// The original must be untouched (value receiver + copied slice).
	if m.Phases[0].WallNs != 555 || m.Host.WallNs != 999 {
		t.Fatalf("Deterministic mutated its receiver")
	}
	if d.SimulatedTotalNs != 123 || len(d.Phases) != 2 {
		t.Fatalf("Deterministic dropped deterministic data")
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	m := Manifest{
		Schema:   ManifestSchema,
		System:   "cpu",
		Operator: "scan",
		Metrics:  r.Snapshot(),
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Schema != ManifestSchema || back.Metrics.Counters["c"] != 7 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
