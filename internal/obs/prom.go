package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every metric in r in Prometheus text exposition
// format (version 0.0.4). Metrics are emitted in sorted-name order, with
// one `# TYPE` line per family; histograms expand into cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`. A nil registry
// writes nothing. On a Concurrent() registry the whole export is one
// critical section, consistent with concurrent writers.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	typed := make(map[string]string) // family -> emitted TYPE
	for _, name := range r.namesLocked() {
		family, labels := splitName(name)
		switch m := r.metrics[name].(type) {
		case *Counter:
			if err := writeHeader(w, typed, family, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family, labels), m.v); err != nil {
				return err
			}
		case *Gauge:
			if err := writeHeader(w, typed, family, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", promName(family, labels), formatFloat(m.v)); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHeader(w, typed, family, "histogram"); err != nil {
				return err
			}
			var cum uint64
			for i, bound := range m.bounds {
				cum += m.counts[i]
				le := formatFloat(bound)
				if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_bucket", addLabel(labels, `le="`+le+`"`)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_bucket", addLabel(labels, `le="+Inf"`)), m.count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", promName(family+"_sum", labels), formatFloat(m.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_count", labels), m.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHeader emits the `# TYPE` line the first time a family appears and
// checks that one family isn't reused across metric kinds.
func writeHeader(w io.Writer, typed map[string]string, family, kind string) error {
	if prev, ok := typed[family]; ok {
		if prev != kind {
			return fmt.Errorf("obs: family %q exported as both %s and %s", family, prev, kind)
		}
		return nil
	}
	typed[family] = kind
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
	return err
}

func promName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

func addLabel(labels, l string) string {
	if labels == "" {
		return l
	}
	return labels + "," + l
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, integral values without an exponent where
// possible, and NaN/+Inf/-Inf spelled the way the exposition format
// requires.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
