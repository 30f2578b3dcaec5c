package trace

import (
	"reflect"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
)

// rleScript is a mixed access script: (stride, count) pairs interleaved
// with single accesses, covering reads and writes, several units and
// kinds, and degenerate runs (count 1, count 0).
type rleOp struct {
	unit   int
	kind   engine.AccessKind
	addr   int64
	size   int
	stride int
	count  int // 0 = single Access call
	write  bool
}

func rleScript() []rleOp {
	return []rleOp{
		{unit: 0, kind: engine.TraceDemand, addr: 0, size: 16, stride: 16, count: 64},
		{unit: 1, kind: engine.TraceDemand, addr: 4096, size: 64, write: true},
		{unit: 0, kind: engine.TraceShuffle, addr: 1 << 20, size: 16, stride: 16, count: 1, write: true},
		{unit: 2, kind: engine.TracePermuted, addr: 1 << 21, size: 16, stride: 16, count: 500, write: true},
		{unit: 2, kind: engine.TraceDemand, addr: 9000, size: 8},
		{unit: 3, kind: engine.TraceDemand, addr: 1 << 22, size: 64, stride: 64, count: 0},
		{unit: 1, kind: engine.TraceDemand, addr: 1 << 23, size: 32, stride: -32, count: 7},
	}
}

// play drives a recorder through the script: RLE records via AccessRun,
// singles via Access. expand=true instead issues every access
// individually — the stream an engine without the RunTracer fast path
// would deliver.
func play(r *Recorder, expand bool) {
	for _, op := range rleScript() {
		if op.count == 0 {
			r.Access(op.unit, op.kind, op.addr, op.size, op.write)
			continue
		}
		if expand {
			for i := 0; i < op.count; i++ {
				r.Access(op.unit, op.kind, op.addr+int64(i)*int64(op.stride), op.size, op.write)
			}
			continue
		}
		r.AccessRun(op.unit, op.kind, op.addr, op.size, op.stride, op.count, op.write)
	}
}

// TestRLEExpandEquivalence is the RLE correctness contract: recording
// through AccessRun and expanding afterwards yields exactly the event
// stream (sequence numbers included) that per-access recording produces.
func TestRLEExpandEquivalence(t *testing.T) {
	var rle, flat Recorder
	play(&rle, false)
	play(&flat, true)

	got := Expand(rle.Events())
	want := flat.Events()
	if len(got) != len(want) {
		t.Fatalf("expanded %d events, per-access recorded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: RLE-expanded %+v != per-access %+v", i, got[i], want[i])
		}
	}

	// The analysis layer must see identical statistics whether or not the
	// stream was stored run-length-encoded.
	if a, b := Analyze(rle.Events(), 256), Analyze(want, 256); a != b {
		t.Fatalf("Analyze(RLE) = %+v, Analyze(flat) = %+v", a, b)
	}
	if a, b := perUnit(rle.Events(), 256), perUnit(want, 256); !reflect.DeepEqual(a, b) {
		t.Fatalf("perUnit(RLE) = %v, perUnit(flat) = %v", a, b)
	}
}

// TestRLESeqAccounting pins the sequence-number bookkeeping: an RLE
// record occupies count consecutive sequence numbers, so accesses after
// it must continue where the expanded stream would.
func TestRLESeqAccounting(t *testing.T) {
	var r Recorder
	r.AccessRun(0, engine.TraceDemand, 0, 16, 16, 10, false)
	r.Access(1, engine.TraceDemand, 4096, 16, true)
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("stored %d records, want 2", len(ev))
	}
	if ev[0].Seq != 1 || ev[0].Count != 10 {
		t.Fatalf("RLE record = %+v", ev[0])
	}
	if ev[1].Seq != 11 {
		t.Fatalf("access after 10-run got seq %d, want 11", ev[1].Seq)
	}
}

// TestRLEFilterAndLimit checks the recorder options against RLE input:
// KindFilter drops whole runs (but still advances seq); Limit counts
// every dropped sub-access.
func TestRLEFilterAndLimit(t *testing.T) {
	r := Recorder{KindFilter: map[engine.AccessKind]bool{engine.TraceShuffle: true}}
	r.AccessRun(0, engine.TraceDemand, 0, 16, 16, 5, false)
	r.Access(0, engine.TraceShuffle, 100, 16, true)
	if ev := r.Events(); len(ev) != 1 || ev[0].Seq != 6 {
		t.Fatalf("filtered events = %+v", r.Events())
	}

	l := Recorder{Limit: 1}
	l.AccessRun(0, engine.TraceDemand, 0, 16, 16, 5, false)
	l.AccessRun(0, engine.TraceDemand, 80, 16, 16, 5, false)
	if len(l.Events()) != 1 {
		t.Fatalf("limit 1 stored %d records", len(l.Events()))
	}
	if l.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5 (the whole second run)", l.Dropped())
	}
}
