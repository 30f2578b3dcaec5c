package obs

import (
	"bytes"
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
			if err := WritePrometheus(&buf, tc.build()); err != nil {
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
