package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testDevice() *Device {
	g := HMCGeometry()
	g.CapacityBytes = 1 << 20 // small vault for tests
	return NewDevice(g, HMCTiming())
}

func TestHMCDefaults(t *testing.T) {
	g := HMCGeometry()
	if g.RowBytes != 256 {
		t.Fatalf("HMC row = %d, want 256", g.RowBytes)
	}
	if g.PeakBandwidthGBs != 8 {
		t.Fatalf("HMC peak BW = %v, want 8", g.PeakBandwidthGBs)
	}
	if g.CapacityBytes != 512<<20 {
		t.Fatalf("HMC vault capacity = %d, want 512MB", g.CapacityBytes)
	}
	tim := HMCTiming()
	if tim.TRCD != 11.2 || tim.TCAS != 11.2 || tim.TRP != 11.2 || tim.TRAS != 22.4 {
		t.Fatalf("unexpected HMC timing %+v", tim)
	}
}

func TestColdMissThenHit(t *testing.T) {
	d := testDevice()
	lat1 := d.Access(0, 16, false)
	lat2 := d.Access(16, 16, false)
	s := d.Stats()
	if s.RowColdMisses != 1 || s.RowHits != 1 || s.Activations != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if lat1 <= lat2 {
		t.Fatalf("cold miss latency %.2f should exceed hit latency %.2f", lat1, lat2)
	}
	tim := HMCTiming()
	wantHit := tim.TCAS + 16.0/8.0
	if lat2 != wantHit {
		t.Fatalf("hit latency = %.3f, want %.3f", lat2, wantHit)
	}
	wantMiss := tim.TRCD + tim.TCAS + 16.0/8.0
	if lat1 != wantMiss {
		t.Fatalf("cold miss latency = %.3f, want %.3f", lat1, wantMiss)
	}
}

func TestRowConflict(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	// Same bank, different row: rows are bank-interleaved, so addresses
	// RowBytes*Banks apart share a bank.
	stride := int64(g.RowBytes * g.Banks)
	d.Access(0, 8, false)
	lat := d.Access(stride, 8, false)
	s := d.Stats()
	if s.RowConflicts != 1 {
		t.Fatalf("conflicts = %d, want 1; stats %+v", s.RowConflicts, s)
	}
	tim := HMCTiming()
	want := tim.TRP + tim.TRCD + tim.TCAS + 8.0/8.0
	if lat != want {
		t.Fatalf("conflict latency = %.3f, want %.3f", lat, want)
	}
}

func TestBankInterleavingAvoidsConflicts(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	// Touching consecutive rows lands on different banks: no conflicts.
	for i := 0; i < g.Banks; i++ {
		d.Access(int64(i*g.RowBytes), 8, false)
	}
	if s := d.Stats(); s.RowConflicts != 0 || s.RowColdMisses != uint64(g.Banks) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSequentialStreamActivatesEachRowOnce(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	const rows = 64
	for a := int64(0); a < int64(rows*g.RowBytes); a += 16 {
		d.Access(a, 16, false)
	}
	s := d.Stats()
	if s.Activations != rows {
		t.Fatalf("sequential stream: %d activations, want %d", s.Activations, rows)
	}
	accessesPerRow := uint64(g.RowBytes / 16)
	if s.RowHits != rows*(accessesPerRow-1) {
		t.Fatalf("row hits = %d, want %d", s.RowHits, rows*(accessesPerRow-1))
	}
}

func TestRandomVsSequentialActivationGap(t *testing.T) {
	seq, rnd := testDevice(), testDevice()
	g := seq.Geometry()
	n := 4096
	// Sequential pass.
	for i := 0; i < n; i++ {
		seq.Access(int64(i*16)%g.CapacityBytes, 16, true)
	}
	// Random pass over many rows.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		addr := rng.Int63n(g.CapacityBytes / 16 / 16 * 16) // within first 1/16th: still >> banks rows
		rnd.Access(addr/16*16, 16, true)
	}
	if rnd.Stats().Activations < 4*seq.Stats().Activations {
		t.Fatalf("random activations (%d) should dwarf sequential (%d)",
			rnd.Stats().Activations, seq.Stats().Activations)
	}
	if rnd.BusyNs() <= seq.BusyNs() {
		t.Fatalf("random busy %.1f should exceed sequential busy %.1f", rnd.BusyNs(), seq.BusyNs())
	}
}

func TestAccessRangeSplitsOnRows(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	// A 256 B access starting mid-row must touch two rows.
	d.AccessRange(int64(g.RowBytes/2), g.RowBytes, false)
	if s := d.Stats(); s.Activations != 2 {
		t.Fatalf("activations = %d, want 2", s.Activations)
	}
	if s := d.Stats(); s.ReadBytes != uint64(g.RowBytes) {
		t.Fatalf("read bytes = %d, want %d", s.ReadBytes, g.RowBytes)
	}
}

func TestAccessPanicsAcrossRow(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("row-crossing Access did not panic")
		}
	}()
	d.Access(int64(d.Geometry().RowBytes)-8, 16, false)
}

func TestAccessPanicsOnZeroSize(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size Access did not panic")
		}
	}()
	d.Access(0, 0, false)
}

func TestWriteRecoveryChargesBank(t *testing.T) {
	rd, wr := testDevice(), testDevice()
	for i := 0; i < 16; i++ {
		rd.Access(int64(i*16), 16, false)
		wr.Access(int64(i*16), 16, true)
	}
	if wr.BusyNs() <= rd.BusyNs() {
		t.Fatalf("writes busy %.1f should exceed reads busy %.1f (tWR)", wr.BusyNs(), rd.BusyNs())
	}
}

func TestCloseAllRows(t *testing.T) {
	d := testDevice()
	d.Access(0, 8, false)
	d.CloseAllRows()
	d.Access(8, 8, false) // same row, but closed in between
	if s := d.Stats(); s.RowHits != 0 || s.Activations != 2 {
		t.Fatalf("stats after close = %+v", s)
	}
}

func TestResetStatsAndBusy(t *testing.T) {
	d := testDevice()
	d.Access(0, 8, true)
	d.ResetBusy()
	if d.BusyNs() != 0 {
		t.Fatal("busy not cleared")
	}
	d.ResetStats()
	if d.Stats().Accesses() != 0 {
		t.Fatal("stats not cleared")
	}
	// Row state must survive ResetStats: next access to row 0 is a hit.
	d.Access(8, 8, false)
	if d.Stats().RowHits != 1 {
		t.Fatal("row state lost across ResetStats")
	}
}

func TestRowHitRate(t *testing.T) {
	d := testDevice()
	if d.Stats().RowHitRate() != 0 {
		t.Fatal("empty device hit rate should be 0")
	}
	d.Access(0, 8, false)
	d.Access(8, 8, false)
	d.Access(16, 8, false)
	d.Access(24, 8, false)
	if got := d.Stats().RowHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

// Property: activations always equal cold misses + conflicts, and every
// access is classified exactly once.
func TestAccountingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, n uint16) bool {
		d := testDevice()
		g := d.Geometry()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			addr := r.Int63n(g.CapacityBytes/8) * 8
			size := []int{8, 16, 32, 64}[r.Intn(4)]
			if int(addr%int64(g.RowBytes))+size > g.RowBytes {
				size = g.RowBytes - int(addr%int64(g.RowBytes))
			}
			d.Access(addr, size, r.Intn(2) == 0)
		}
		s := d.Stats()
		return s.Activations == s.RowColdMisses+s.RowConflicts &&
			s.Accesses() == s.RowHits+s.RowColdMisses+s.RowConflicts &&
			s.Accesses() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowFRFCFSPrefersOpenRow(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	w := NewWindow(d, 4)
	stride := int64(g.RowBytes * g.Banks) // same bank, different rows
	// Open row 0 of bank 0.
	d.Access(0, 8, false)
	// Queue a conflict access and a hit access; FR-FCFS services the hit
	// first, so only one conflict occurs in total.
	w.Push(Request{Addr: stride, Size: 8})
	w.Push(Request{Addr: 8, Size: 8}) // row 0 again: should be serviced first
	w.Flush()
	s := d.Stats()
	if s.RowHits != 1 || s.RowConflicts != 1 {
		t.Fatalf("FR-FCFS stats = %+v, want 1 hit then 1 conflict", s)
	}
}

func TestWindowCapacityForcesService(t *testing.T) {
	d := testDevice()
	w := NewWindow(d, 2)
	if lat := w.Push(Request{Addr: 0, Size: 8}); lat != 0 {
		t.Fatal("push into empty window should not service")
	}
	w.Push(Request{Addr: 8, Size: 8})
	if lat := w.Push(Request{Addr: 16, Size: 8}); lat == 0 {
		t.Fatal("push into full window must service one request")
	}
	if len(w.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(w.pending))
	}
	w.Flush()
	if len(w.pending) != 0 {
		t.Fatal("flush left pending requests")
	}
	if d.Stats().Accesses() != 3 {
		t.Fatalf("device saw %d accesses, want 3", d.Stats().Accesses())
	}
}

func TestWindowStrictFCFSWithCapacityOne(t *testing.T) {
	d := testDevice()
	g := d.Geometry()
	w := NewWindow(d, 1)
	stride := int64(g.RowBytes * g.Banks)
	d.Access(0, 8, false)
	w.Push(Request{Addr: stride, Size: 8})
	w.Push(Request{Addr: 8, Size: 8})
	w.Flush()
	// With no lookahead, the conflict access goes first and closes row 0,
	// so the second access conflicts again.
	if s := d.Stats(); s.RowConflicts != 2 {
		t.Fatalf("FCFS conflicts = %d, want 2", s.RowConflicts)
	}
}

func TestWindowPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(testDevice(), 0)
}

// Property: a window never loses or duplicates requests.
func TestWindowConservesRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64, n uint8, capacity uint8) bool {
		d := testDevice()
		w := NewWindow(d, int(capacity)%7+1)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			w.Push(Request{Addr: r.Int63n(1<<18) / 8 * 8, Size: 8, Write: r.Intn(2) == 0})
		}
		w.Flush()
		return d.Stats().Accesses() == uint64(n) && len(w.pending) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshOverhead(t *testing.T) {
	tim := HMCTiming()
	if oh := tim.RefreshOverhead(); oh <= 0 || oh > 0.05 {
		t.Fatalf("HMC refresh overhead = %v, want a few percent", oh)
	}
	tim.TREFI = 0
	if tim.RefreshOverhead() != 0 {
		t.Fatal("disabled refresh should cost nothing")
	}
}

func TestRefreshInflatesBusy(t *testing.T) {
	g := HMCGeometry()
	g.CapacityBytes = 1 << 20
	withRef := NewDevice(g, HMCTiming())
	noRefT := HMCTiming()
	noRefT.TREFI = 0
	without := NewDevice(g, noRefT)
	for a := int64(0); a < 1<<14; a += 16 {
		withRef.Access(a, 16, false)
		without.Access(a, 16, false)
	}
	ratio := withRef.BusyNs() / without.BusyNs()
	want := 1 + HMCTiming().RefreshOverhead()
	if ratio < want-1e-9 || ratio > want+1e-9 {
		t.Fatalf("refresh busy ratio = %v, want %v", ratio, want)
	}
	// Latency of an individual access is unchanged (refresh is modeled
	// as stolen throughput, not added latency).
	a := NewDevice(g, HMCTiming())
	b := NewDevice(g, noRefT)
	if a.Access(0, 16, false) != b.Access(0, 16, false) {
		t.Fatal("refresh changed per-access latency")
	}
}
