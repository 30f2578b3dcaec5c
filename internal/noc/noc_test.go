package noc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeshHopsXY(t *testing.T) {
	m := NewMesh(4, 4)
	for _, tc := range []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 3, 3},  // same row
		{0, 12, 3}, // same column
		{0, 15, 6}, // opposite corners
		{5, 10, 2}, // (1,1)→(2,2)
		{15, 0, 6}, // symmetric
	} {
		if got := m.Hops(tc.src, tc.dst); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestMeshHopsSymmetric(t *testing.T) {
	m := NewMesh(4, 4)
	rng := rand.New(rand.NewSource(3))
	f := func(a, b uint8) bool {
		s, d := int(a)%16, int(b)%16
		return m.Hops(s, d) == m.Hops(d, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshTransferLatency(t *testing.T) {
	m := NewMesh(4, 4)
	// 64 B over 3 hops: head 3 hops × 3 cycles, body 3 more flits.
	lat := m.Transfer(0, 3, 64)
	want := float64(3*3) + 3 // 1 ns per cycle at 1 GHz
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
	s := m.Stats()
	if s.Messages != 1 || s.Bytes != 64 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BitMM != 64*8*3 {
		t.Fatalf("BitMM = %v, want %v", s.BitMM, 64*8*3)
	}
}

func TestMeshLocalTransfer(t *testing.T) {
	m := NewMesh(4, 4)
	lat := m.Transfer(5, 5, 16)
	if lat != 0 {
		t.Fatalf("single-flit local transfer latency = %v, want 0", lat)
	}
	if m.Stats().BitMM != 0 {
		t.Fatal("local transfer should travel zero bit-mm")
	}
}

func TestMeshPanics(t *testing.T) {
	m := NewMesh(2, 2)
	for _, fn := range []func(){
		func() { m.Hops(0, 4) },
		func() { m.Transfer(0, 1, 0) },
		func() { NewMesh(0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSerDesLatencyAndStats(t *testing.T) {
	l := NewSerDesLink()
	lat := l.Transfer(200) // 1600 bits at 160 Gb/s = 10 ns
	if lat != 10 {
		t.Fatalf("latency = %v, want 10", lat)
	}
	if s := l.Stats(); s.BusyNs != 10 || s.Bytes != 200 || s.Messages != 1 {
		t.Fatalf("stats = %+v", s)
	}
	l.ResetStats()
	if l.Stats().Bytes != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestStarRoutesThroughCPU(t *testing.T) {
	if NewNetwork(Star, 4).Transfer(CPUNode, 2, 200) != 10 {
		t.Fatal("CPU→cube should cross one link")
	}
	n := NewNetwork(Star, 4)
	lat := n.Transfer(0, 1, 200)
	if lat != 20 { // two 10 ns link crossings
		t.Fatalf("star transfer latency = %v, want 20", lat)
	}
	// Both endpoint CPU links must have been charged.
	var busy int
	for _, l := range n.Links() {
		if l.Stats().Bytes > 0 {
			busy++
		}
	}
	if busy != 2 {
		t.Fatalf("%d links busy, want 2", busy)
	}
}

func TestFullyConnectedDirect(t *testing.T) {
	n := NewNetwork(FullyConnected, 4)
	lat := n.Transfer(0, 3, 200)
	if lat != 10 {
		t.Fatalf("direct transfer latency = %v, want 10", lat)
	}
	// Link count: 2×4 CPU link directions + 4×3 cube link directions.
	if got := len(n.Links()); got != 20 {
		t.Fatalf("links = %d, want 20", got)
	}
	// Opposing directions use distinct links (160 Gb/s per direction).
	n.Transfer(3, 0, 200)
	var busyLinks int
	for _, l := range n.Links() {
		if l.Stats().Bytes > 0 {
			busyLinks++
			if l.Stats().Bytes != 200 {
				t.Fatalf("link bytes = %d, want 200", l.Stats().Bytes)
			}
		}
	}
	if busyLinks != 2 {
		t.Fatalf("busy link directions = %d, want 2", busyLinks)
	}
}

func TestNetworkLocalAndCPUTransfers(t *testing.T) {
	n := NewNetwork(FullyConnected, 4)
	if n.Transfer(2, 2, 100) != 0 {
		t.Fatal("local transfer should cost nothing")
	}
	if n.Transfer(CPUNode, 1, 200) != 10 {
		t.Fatal("CPU→cube should cross one link")
	}
	if n.Transfer(1, CPUNode, 200) != 10 {
		t.Fatal("cube→CPU should cross one link")
	}
}

func TestNetworkPanicsOnBadCube(t *testing.T) {
	n := NewNetwork(Star, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range cube did not panic")
		}
	}()
	n.Transfer(0, 5, 8)
}

func TestTopologyString(t *testing.T) {
	if Star.String() != "star" || FullyConnected.String() != "fully-connected" {
		t.Fatal("unexpected topology strings")
	}
	if Topology(9).String() != "Topology(9)" {
		t.Fatal("unexpected fallback string")
	}
}

// Property: star topology is never cheaper than fully connected for
// cube↔cube traffic, and byte accounting balances.
func TestTopologyCostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(a, b uint8, sz uint16) bool {
		src, dst := int(a)%4, int(b)%4
		size := int(sz)%4096 + 1
		star := NewNetwork(Star, 4)
		full := NewNetwork(FullyConnected, 4)
		ls, lf := star.Transfer(src, dst, size), full.Transfer(src, dst, size)
		if ls < lf {
			return false
		}
		var starBytes, fullBytes uint64
		for _, l := range star.Links() {
			starBytes += l.Stats().Bytes
		}
		for _, l := range full.Links() {
			fullBytes += l.Stats().Bytes
		}
		if src == dst {
			return starBytes == 0 && fullBytes == 0
		}
		return starBytes == uint64(2*size) && fullBytes == uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshResetStats(t *testing.T) {
	m := NewMesh(4, 4)
	m.Transfer(0, 5, 64)
	m.ResetStats()
	if s := m.Stats(); s.Messages != 0 || s.BitMM != 0 || s.BusyNs != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

func TestMeshBusyAccumulates(t *testing.T) {
	m := NewMesh(4, 4)
	m.Transfer(0, 15, 256)
	first := m.Stats().BusyNs
	m.Transfer(0, 15, 256)
	if m.Stats().BusyNs != 2*first {
		t.Fatalf("busy not additive: %v then %v", first, m.Stats().BusyNs)
	}
}

// TestMeshTransferMatchesPerCallCosts replays messages of alternating
// sizes between every tile pair of a square and a non-square mesh: the
// latency Transfer returns and the busy time and bit-millimetres it
// accumulates equal, bit for bit, the per-message expressions evaluated
// in the same order.
func TestMeshTransferMatchesPerCallCosts(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {3, 5}} {
		m := NewMesh(dims[0], dims[1])
		var busy, bitMM float64
		for _, size := range []int{64, 64, 16, 1, 17, 64, 100, 8, 64} {
			for src := 0; src < m.Tiles(); src++ {
				for dst := 0; dst < m.Tiles(); dst++ {
					hops := m.Hops(src, dst)
					flits := (size + 16 - 1) / 16
					cycleNs := 1.0 / 1.0
					want := float64(hops*3)*cycleNs + float64(flits-1)*cycleNs
					if hops == 0 {
						want = float64(flits-1) * cycleNs
					}
					busy += float64(flits) * cycleNs * float64(max(hops, 1))
					bitMM += float64(size*8) * float64(hops) * 1.0
					if got := m.Transfer(src, dst, size); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v mesh %d→%d, %d B: latency %v, want %v", dims, src, dst, size, got, want)
					}
					if s := m.Stats(); math.Float64bits(s.BusyNs) != math.Float64bits(busy) || math.Float64bits(s.BitMM) != math.Float64bits(bitMM) {
						t.Fatalf("%v mesh %d→%d, %d B: busy %v bit-mm %v, want %v %v", dims, src, dst, size, s.BusyNs, s.BitMM, busy, bitMM)
					}
				}
			}
		}
	}
}
