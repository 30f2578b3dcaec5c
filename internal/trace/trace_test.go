package trace

import (
	"errors"
	"strings"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

func seqEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Seq: i, Unit: 0, Addr: int64(i * 16), Size: 16}
	}
	return out
}

// perUnit splits a stream by unit and analyzes each; keys are unit IDs.
func perUnit(events []Event, rowBytes int) map[int]Stats {
	byUnit := make(map[int][]Event)
	for _, e := range Expand(events) {
		byUnit[e.Unit] = append(byUnit[e.Unit], e)
	}
	out := make(map[int]Stats, len(byUnit))
	for u, evs := range byUnit {
		out[u] = Analyze(evs, rowBytes)
	}
	return out
}

func TestAnalyzeSequential(t *testing.T) {
	s := Analyze(seqEvents(64), 256)
	if s.Events != 64 || s.Reads != 64 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SeqRatio != 1 {
		t.Fatalf("sequential stream SeqRatio = %v", s.SeqRatio)
	}
	if s.RowsTouched != 4 { // 64 × 16 B = 1 KB = 4 rows
		t.Fatalf("rows = %d", s.RowsTouched)
	}
	if s.RowSwitches != 3 {
		t.Fatalf("row switches = %d", s.RowSwitches)
	}
	if s.MeanRunLen != 64 {
		t.Fatalf("mean run = %v", s.MeanRunLen)
	}
}

func TestAnalyzeInterleaved(t *testing.T) {
	// Two interleaved sequential streams far apart: 0% adjacency.
	var evs []Event
	for i := 0; i < 32; i++ {
		evs = append(evs,
			Event{Unit: 0, Addr: int64(i * 16), Size: 16},
			Event{Unit: 1, Addr: 1 << 20, Size: 16, Write: true},
		)
	}
	s := Analyze(evs, 256)
	if s.SeqRatio != 0 {
		t.Fatalf("interleaved SeqRatio = %v", s.SeqRatio)
	}
	if s.Units != 2 || s.Writes != 32 {
		t.Fatalf("stats = %+v", s)
	}
	// Per-unit views recover the sequentiality of stream 0.
	per := perUnit(evs, 256)
	if per[0].SeqRatio != 1 {
		t.Fatalf("unit 0 SeqRatio = %v", per[0].SeqRatio)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if s := Analyze(nil, 256); s.Events != 0 {
		t.Fatal("empty stream should be zero stats")
	}
}

func TestRecorderLimitAndFilter(t *testing.T) {
	r := &Recorder{Limit: 3}
	for i := 0; i < 5; i++ {
		r.Access(0, engine.TraceDemand, int64(i), 16, false)
	}
	if len(r.Events()) != 3 || r.Dropped() != 2 {
		t.Fatalf("events %d dropped %d", len(r.Events()), r.Dropped())
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Fatal("reset failed")
	}
	f := &Recorder{KindFilter: map[engine.AccessKind]bool{engine.TracePermuted: true}}
	f.Access(0, engine.TraceDemand, 0, 16, true)
	f.Access(0, engine.TracePermuted, 16, 16, true)
	if len(f.Events()) != 1 || f.Events()[0].Kind != engine.TracePermuted {
		t.Fatalf("filter failed: %+v", f.Events())
	}
}

func TestFilterAndCSV(t *testing.T) {
	evs := seqEvents(4)
	evs[2].Write = true
	writes := Filter(evs, func(e Event) bool { return e.Write })
	if len(writes) != 1 {
		t.Fatalf("filter = %+v", writes)
	}
	var b strings.Builder
	if err := WriteCSV(&b, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "seq,") {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestWriteCSVError(t *testing.T) {
	if err := WriteCSV(failWriter{}, seqEvents(1)); err == nil {
		t.Fatal("CSV to failing writer succeeded")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

func TestSummary(t *testing.T) {
	s := Analyze(seqEvents(8), 256)
	if !strings.Contains(s.Summary(), "8 events") {
		t.Fatalf("summary = %q", s.Summary())
	}
}

// End-to-end: trace the partitioning phase with and without permutability
// and confirm the permuted write stream is the sequential one — the
// paper's Fig. 2 mechanism, observed in the trace.
func TestShuffleTraceSequentiality(t *testing.T) {
	run := func(perm bool) Stats {
		g := dram.HMCGeometry()
		g.CapacityBytes = 4 << 20
		cfg := engine.Config{
			Arch: engine.NMP, Core: cores.Krait400(), Permutable: perm,
			Cubes: 2, VaultsPer: 4, Topology: noc.FullyConnected,
			Geometry: g, Timing: dram.HMCTiming(),
			ObjectSize: tuple.Size, L1: cache.L1D32K(), BarrierNs: 1000,
		}
		e, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &Recorder{KindFilter: map[engine.AccessKind]bool{
			engine.TraceShuffle: true, engine.TracePermuted: true,
		}}
		e.SetTracer(rec)
		rel := workload.Uniform("in", workload.Config{Seed: 5, Tuples: 8192, KeySpace: 1 << 20})
		parts := rel.SplitEven(e.NumVaults())
		inputs := make([]*engine.Region, len(parts))
		for v, p := range parts {
			r, err := e.Place(v, p.Tuples)
			if err != nil {
				t.Fatal(err)
			}
			inputs[v] = r
		}
		opCfg := operators.Config{Costs: operators.DefaultCosts(), KeySpace: 1 << 20}
		if _, err := operators.PartitionPhase(e, opCfg, inputs, operators.Partitioner{Buckets: e.NumVaults()}); err != nil {
			t.Fatal(err)
		}
		// Per destination vault, measure the arriving write stream.
		perVault := perUnit(mapToVault(rec.Events(), e), 256)
		var agg Stats
		var n int
		for _, s := range perVault {
			agg.SeqRatio += s.SeqRatio
			n++
		}
		agg.SeqRatio /= float64(n)
		return agg
	}
	permuted := run(true)
	conventional := run(false)
	if permuted.SeqRatio < 0.99 {
		t.Fatalf("permuted arrival stream not sequential: %.3f", permuted.SeqRatio)
	}
	if conventional.SeqRatio > 0.5 {
		t.Fatalf("conventional arrival stream too sequential: %.3f", conventional.SeqRatio)
	}
}

// mapToVault rewrites event Unit to the destination vault so perUnit
// groups by destination.
func mapToVault(events []Event, e *engine.Engine) []Event {
	out := make([]Event, len(events))
	for i, ev := range events {
		ev.Unit = ev.Addr2Vault(e)
		out[i] = ev
	}
	return out
}

// Addr2Vault resolves the event's destination vault ID.
func (e Event) Addr2Vault(eng *engine.Engine) int {
	return eng.Sys.VaultOf(e.Addr).ID
}
