package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders every metric in s in Prometheus text exposition
// format (version 0.0.4). Metrics are emitted in sorted-name order, with
// one `# TYPE` line per family; histograms expand into cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`. An empty snapshot
// (the snapshot of a nil registry) writes nothing.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Gauges {
		names = append(names, name)
	}
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	typed := make(map[string]string) // family -> emitted TYPE
	for _, name := range names {
		family, labels := splitName(name)
		if v, ok := s.Counters[name]; ok {
			if err := writeHeader(w, typed, family, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family, labels), v); err != nil {
				return err
			}
		}
		if v, ok := s.Gauges[name]; ok {
			if err := writeHeader(w, typed, family, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", promName(family, labels), formatFloat(v)); err != nil {
				return err
			}
		}
		if h, ok := s.Histograms[name]; ok {
			if err := writeHeader(w, typed, family, "histogram"); err != nil {
				return err
			}
			var cum uint64
			for j, bound := range h.Bounds {
				cum += h.Counts[j]
				le := formatFloat(bound)
				if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_bucket", addLabel(labels, `le="`+le+`"`)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_bucket", addLabel(labels, `le="+Inf"`)), h.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", promName(family+"_sum", labels), formatFloat(h.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promName(family+"_count", labels), h.Count); err != nil {
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
