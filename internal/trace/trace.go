// Package trace captures and analyzes the simulated memory-access streams
// of the engine. The paper's whole argument is about access *patterns* —
// sequential streams amortize row activations, interleaved shuffles do
// not — and trace makes those patterns inspectable: record a run, then
// quantify row locality, sequentiality and per-unit behaviour, or export
// the stream for external tools.
package trace

import (
	"fmt"
	"io"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// Event is one recorded memory access — or, when Count > 1, a
// run-length-encoded record of Count accesses of Size bytes each at
// Addr, Addr+Stride, Addr+2·Stride, … occupying sequence numbers
// Seq … Seq+Count-1. RLE records come from the engine's bulk access
// paths; Expand rewrites them into the per-access stream they stand
// for.
type Event struct {
	Seq    int
	Unit   int
	Kind   engine.AccessKind
	Addr   int64
	Size   int
	Write  bool
	Stride int
	Count  int // 0 or 1: a single access
}

// Accesses returns how many memory accesses the record stands for.
func (e Event) Accesses() int {
	if e.Count > 1 {
		return e.Count
	}
	return 1
}

// Expand rewrites a stream so every record is a single access, giving
// RLE sub-accesses consecutive sequence numbers and stride-spaced
// addresses. Streams without RLE records are returned as-is.
func Expand(events []Event) []Event {
	total, rle := 0, false
	for _, e := range events {
		if e.Count > 1 {
			rle = true
		}
		total += e.Accesses()
	}
	if !rle {
		return events
	}
	out := make([]Event, 0, total)
	for _, e := range events {
		if e.Count <= 1 {
			out = append(out, e)
			continue
		}
		for i := 0; i < e.Count; i++ {
			out = append(out, Event{
				Seq: e.Seq + i, Unit: e.Unit, Kind: e.Kind,
				Addr: e.Addr + int64(i)*int64(e.Stride), Size: e.Size, Write: e.Write,
			})
		}
	}
	return out
}

// Recorder captures engine accesses. It implements engine.Tracer (and
// engine.RunTracer, storing bulk runs as single RLE records). A zero
// Recorder records everything; set Limit to bound memory.
type Recorder struct {
	// Limit caps stored records (0 = unlimited) — an RLE run counts as
	// one record. Once reached, further accesses are counted but not
	// stored.
	Limit int
	// KindFilter, when non-nil, records only the listed kinds.
	KindFilter map[engine.AccessKind]bool

	events  []Event
	dropped int
	seq     int
}

// Access implements engine.Tracer.
func (r *Recorder) Access(unit int, kind engine.AccessKind, addr int64, size int, write bool) {
	r.seq++
	if r.KindFilter != nil && !r.KindFilter[kind] {
		return
	}
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		Seq: r.seq, Unit: unit, Kind: kind, Addr: addr, Size: size, Write: write,
	})
}

// AccessRun implements engine.RunTracer: one RLE record covering count
// accesses, occupying count sequence numbers. A 1-access run is stored
// as a plain access so the record stream is canonical regardless of
// which engine path delivered it.
func (r *Recorder) AccessRun(unit int, kind engine.AccessKind, addr int64, size, stride, count int, write bool) {
	if count <= 0 {
		return
	}
	if count == 1 {
		r.Access(unit, kind, addr, size, write)
		return
	}
	seq := r.seq + 1
	r.seq += count
	if r.KindFilter != nil && !r.KindFilter[kind] {
		return
	}
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped += count
		return
	}
	r.events = append(r.events, Event{
		Seq: seq, Unit: unit, Kind: kind, Addr: addr, Size: size, Write: write,
		Stride: stride, Count: count,
	})
}

// Events returns the recorded stream.
func (r *Recorder) Events() []Event { return r.events }

// Dropped returns how many events exceeded Limit.
func (r *Recorder) Dropped() int { return r.dropped }

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.dropped = 0
	r.seq = 0
}

// Stats summarizes an access stream.
type Stats struct {
	Events int
	Reads  int
	Writes int
	Bytes  int64
	Units  int
	// RowsTouched is the number of distinct DRAM rows visited.
	RowsTouched int
	// RowSwitches counts consecutive event pairs that change row — the
	// row-buffer pressure a single-bank in-order service would see.
	RowSwitches int
	// SeqRatio is the fraction of consecutive event pairs whose
	// addresses are exactly adjacent (perfectly sequential stream = 1).
	SeqRatio float64
	// MeanRunLen is the average length (in events) of maximal
	// address-adjacent runs.
	MeanRunLen float64
}

// Analyze computes summary statistics for an event stream with the given
// DRAM row size.
func Analyze(events []Event, rowBytes int) Stats {
	events = Expand(events)
	var s Stats
	s.Events = len(events)
	if len(events) == 0 {
		return s
	}
	rows := make(map[int64]bool)
	units := make(map[int]bool)
	adjacent := 0
	runs := 1
	var prevEnd int64
	var prevRow int64 = -1
	for i, e := range events {
		if e.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		s.Bytes += int64(e.Size)
		units[e.Unit] = true
		row := e.Addr / int64(rowBytes)
		rows[row] = true
		if i > 0 {
			if e.Addr == prevEnd {
				adjacent++
			} else {
				runs++
			}
			if row != prevRow {
				s.RowSwitches++
			}
		}
		prevEnd = e.Addr + int64(e.Size)
		prevRow = row
	}
	s.Units = len(units)
	s.RowsTouched = len(rows)
	if len(events) > 1 {
		s.SeqRatio = float64(adjacent) / float64(len(events)-1)
	}
	s.MeanRunLen = float64(len(events)) / float64(runs)
	return s
}

// Filter returns the per-access events matching the predicate (RLE
// records are expanded first so predicates see single accesses).
func Filter(events []Event, keep func(Event) bool) []Event {
	var out []Event
	for _, e := range Expand(events) {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV streams events as "seq,unit,kind,addr,size,write" rows.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "seq,unit,kind,addr,size,write"); err != nil {
		return err
	}
	for _, e := range Expand(events) {
		wr := 0
		if e.Write {
			wr = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n",
			e.Seq, e.Unit, int(e.Kind), e.Addr, e.Size, wr); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders stats for logs.
func (s Stats) Summary() string {
	return fmt.Sprintf("%d events (%d units, %d B), rows %d, row switches %d, seq %.0f%%, mean run %.1f",
		s.Events, s.Units, s.Bytes, s.RowsTouched, s.RowSwitches, s.SeqRatio*100, s.MeanRunLen)
}
