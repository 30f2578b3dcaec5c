package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// TestWritePrometheusTable is the exporter-hardening table: empty
// registries, NaN/±Inf gauges, +Inf histogram buckets, escaped label
// values, and one TYPE header (no HELP line) per family.
func TestWritePrometheusTable(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Registry
		want    []string // substrings that must appear
		wantNot []string // substrings that must not appear
	}{
		{
			name:  "empty registry",
			build: NewRegistry,
			want:  nil, // no output at all, asserted below via exact length
		},
		{
			name: "nan and inf gauges",
			build: func() *Registry {
				r := NewRegistry()
				r.Gauge("g_nan").Set(math.NaN())
				r.Gauge("g_pinf").Set(math.Inf(1))
				r.Gauge("g_ninf").Set(math.Inf(-1))
				return r
			},
			want: []string{"g_nan NaN\n", "g_pinf +Inf\n", "g_ninf -Inf\n"},
		},
		{
			name: "histogram overflow bucket",
			build: func() *Registry {
				r := NewRegistry()
				h := r.Histogram("lat", []float64{1, 10})
				h.Observe(0.5)
				h.Observe(100) // overflow: only in the +Inf bucket
				return r
			},
			want: []string{
				`lat_bucket{le="1"} 1`,
				`lat_bucket{le="10"} 1`,
				`lat_bucket{le="+Inf"} 2`,
				"lat_count 2",
			},
		},
		{
			name: "label value escaping",
			build: func() *Registry {
				r := NewRegistry()
				r.Counter(Label("runs", "tenant", `ten"ant\one`+"\n")).Inc()
				return r
			},
			want:    []string{`runs{tenant="ten\"ant\\one\n"} 1`},
			wantNot: []string{"\n\"} 1"}, // raw newline must not survive
		},
		{
			name: "type headers without help",
			build: func() *Registry {
				r := NewRegistry()
				r.Counter("runs").Inc()
				r.Gauge("load").Set(2)
				return r
			},
			want:    []string{"# TYPE runs counter\nruns 1\n", "# TYPE load gauge\nload 2\n"},
			wantNot: []string{"# HELP"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, tc.build().Snapshot()); err != nil {
				t.Fatalf("WritePrometheus: %v", err)
			}
			out := buf.String()
			if tc.want == nil && buf.Len() != 0 {
				t.Fatalf("expected no output, got:\n%s", out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Fatalf("output missing %q:\n%s", w, out)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(out, w) {
					t.Fatalf("output must not contain %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestWritePrometheusSnapshot renders a snapshot that no registry built:
// families interleave in sorted-name order across kinds, and a name
// carried by two kinds is refused rather than exported twice.
func TestWritePrometheusSnapshot(t *testing.T) {
	s := Snapshot{
		Counters: map[string]uint64{"b_runs": 3},
		Gauges:   map[string]float64{"a_load": 1.5, "c_temp": -2},
		Histograms: map[string]HistogramSnapshot{
			"b_lat": {Bounds: []float64{1}, Counts: []uint64{1, 1}, Count: 2, Sum: 7},
		},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_load gauge\na_load 1.5\n" +
		"# TYPE b_lat histogram\nb_lat_bucket{le=\"1\"} 1\nb_lat_bucket{le=\"+Inf\"} 2\nb_lat_sum 7\nb_lat_count 2\n" +
		"# TYPE b_runs counter\nb_runs 3\n" +
		"# TYPE c_temp gauge\nc_temp -2\n"
	if got := buf.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}

	s.Gauges["b_runs"] = 1
	if err := WritePrometheus(io.Discard, s); err == nil || !strings.Contains(err.Error(), "b_runs") {
		t.Fatalf("name in two kinds: err = %v, want a family conflict", err)
	}
}
