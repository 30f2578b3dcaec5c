package obs

import (
	"fmt"
	"io"
	"sort"
)

// Span is one node of a simulated-time span tree: a named interval on the
// engine's simulated clock (nanoseconds since run start). Spans nest —
// run → phase → step → per-unit task / exchange round — and carry
// optional numeric attributes (bytes moved, messages, instructions).
//
// Spans are built after the run from deterministic engine state, so the
// tree is byte-identical across host parallelism levels.
type Span struct {
	Name     string             `json:"name"`
	StartNs  float64            `json:"start_ns"`
	EndNs    float64            `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Children []*Span            `json:"children,omitempty"`
}

// DurationNs returns the span's simulated duration.
func (s *Span) DurationNs() float64 {
	if s == nil {
		return 0
	}
	return s.EndNs - s.StartNs
}

// Child appends and returns a new child span.
func (s *Span) Child(name string, startNs, endNs float64) *Span {
	c := &Span{Name: name, StartNs: startNs, EndNs: endNs}
	s.Children = append(s.Children, c)
	return c
}

// SetAttr records a numeric attribute on the span.
func (s *Span) SetAttr(key string, v float64) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
}

// WriteTree renders the span tree as an indented text outline, descending
// at most maxDepth levels below s (maxDepth < 0 means unlimited).
// Attributes print sorted by key so output is deterministic.
func (s *Span) WriteTree(w io.Writer, maxDepth int) error {
	return s.writeTree(w, 0, maxDepth)
}

func (s *Span) writeTree(w io.Writer, depth, maxDepth int) error {
	if s == nil {
		return nil
	}
	for i := 0; i < depth; i++ {
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s [%.0f..%.0f ns, %.0f ns]", s.Name, s.StartNs, s.EndNs, s.DurationNs()); err != nil {
		return err
	}
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, " %s=%g", k, s.Attrs[k]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	if maxDepth == 0 {
		return nil
	}
	for _, c := range s.Children {
		if err := c.writeTree(w, depth+1, maxDepth-1); err != nil {
			return err
		}
	}
	return nil
}
