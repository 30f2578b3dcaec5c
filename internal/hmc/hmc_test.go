package hmc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

func testGeom() dram.Geometry {
	g := dram.HMCGeometry()
	g.CapacityBytes = 1 << 20 // 1 MB vaults keep tests fast
	return g
}

func testSystem() *System {
	return NewSystem(4, 16, noc.FullyConnected, testGeom(), dram.HMCTiming())
}

func TestSystemLayout(t *testing.T) {
	s := testSystem()
	if s.NumVaults() != 64 {
		t.Fatalf("vaults = %d, want 64", s.NumVaults())
	}
	if s.CapacityBytes() != 64<<20 {
		t.Fatalf("capacity = %d", s.CapacityBytes())
	}
	if len(s.Cubes) != 4 || s.Cubes[0].Mesh.Tiles() != 16 {
		t.Fatal("cube layout wrong")
	}
	// Vault ownership is a partition of the address space.
	for i := 0; i < s.NumVaults(); i++ {
		v := s.Vault(i)
		if got := s.VaultOf(v.Base); got != v {
			t.Fatalf("VaultOf(base of %d) = vault %d", i, got.ID)
		}
		if got := s.VaultOf(v.Base + v.Size - 1); got != v {
			t.Fatalf("VaultOf(last of %d) = vault %d", i, got.ID)
		}
	}
}

func TestSystemPanicsOnNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square vault count did not panic")
		}
	}()
	NewSystem(1, 12, noc.Star, testGeom(), dram.HMCTiming())
}

func TestVaultAlloc(t *testing.T) {
	s := testSystem()
	v := s.Vault(3)
	a1, err := v.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != v.Base {
		t.Fatalf("first alloc at %#x, want vault base %#x", a1, v.Base)
	}
	a2, err := v.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != v.Base+128 { // 100 rounded up to 128 by 64-alignment
		t.Fatalf("second alloc at %#x, want %#x", a2, v.Base+128)
	}
	if _, err := v.Alloc(v.Size, 64); err == nil {
		t.Fatal("oversized alloc should fail")
	}
	v.AllocReset()
	a3, _ := v.Alloc(16, 16)
	if a3 != v.Base {
		t.Fatal("AllocReset did not rewind")
	}
}

func TestVaultReadWriteChargeDRAM(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	v.Read(v.Base, 64)
	v.Write(v.Base+64, 64)
	st := v.DRAM.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.ReadBytes != 64 || st.WriteBytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVaultLocalPanicsOutside(t *testing.T) {
	s := testSystem()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign address did not panic")
		}
	}()
	s.Vault(0).Read(s.Vault(1).Base, 8)
}

func TestPermutableWriteSequentialPlacement(t *testing.T) {
	s := testSystem()
	v := s.Vault(2)
	base, _ := v.Alloc(4096, 256)
	if err := v.SetPermRegion(base, 4096, 16); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginShuffle(4096); err != nil {
		t.Fatal(err)
	}
	// Writes arrive targeting scattered addresses; controller appends.
	targets := []int64{base + 1024, base + 16, base + 3200, base + 512}
	for i, target := range targets {
		got, _, err := v.PermutableWrite(target, 16)
		if err != nil {
			t.Fatal(err)
		}
		if want := base + int64(i*16); got != want {
			t.Fatalf("write %d placed at %#x, want sequential %#x", i, got, want)
		}
	}
	if v.PermutedWrites != 4 {
		t.Fatalf("PermutedWrites = %d", v.PermutedWrites)
	}
	if got := v.EndShuffle(); got != 64 {
		t.Fatalf("EndShuffle bytes = %d, want 64", got)
	}
}

func TestPermutableWriteOutsideRegionPreservesAddress(t *testing.T) {
	s := testSystem()
	v := s.Vault(2)
	base, _ := v.Alloc(4096, 256)
	other, _ := v.Alloc(256, 256)
	if err := v.SetPermRegion(base, 4096, 16); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginShuffle(16); err != nil {
		t.Fatal(err)
	}
	got, _, err := v.PermutableWrite(other, 16)
	if err != nil || got != other {
		t.Fatalf("outside-region write moved to %#x (err %v)", got, err)
	}
	if v.PermutedWrites != 0 {
		t.Fatal("outside-region write counted as permuted")
	}
}

func TestPermutableWriteInactivePreservesAddress(t *testing.T) {
	s := testSystem()
	v := s.Vault(1)
	base, _ := v.Alloc(1024, 256)
	if err := v.SetPermRegion(base, 1024, 16); err != nil {
		t.Fatal(err)
	}
	// No BeginShuffle: controller must not permute.
	got, _, err := v.PermutableWrite(base+512, 16)
	if err != nil || got != base+512 {
		t.Fatalf("inactive permutable write moved to %#x (err %v)", got, err)
	}
}

func TestShuffleOverflow(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(64, 64)
	if err := v.SetPermRegion(base, 64, 16); err != nil {
		t.Fatal(err)
	}
	// Announcing more data than fits fails up front.
	if err := v.BeginShuffle(128); !errors.Is(err, ErrRegionOverflow) {
		t.Fatalf("BeginShuffle overflow err = %v", err)
	}
	// Announcing within bounds but writing past the end fails at write.
	if err := v.BeginShuffle(64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := v.PermutableWrite(base, 16); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := v.PermutableWrite(base, 16); !errors.Is(err, ErrRegionOverflow) {
		t.Fatalf("append overflow err = %v", err)
	}
}

func TestShuffleCompletion(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(256, 256)
	if err := v.SetPermRegion(base, 256, 16); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginShuffle(48); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v.shuffleComplete() {
			t.Fatalf("complete after %d of 3 writes", i)
		}
		if _, _, err := v.PermutableWrite(base, 16); err != nil {
			t.Fatal(err)
		}
	}
	if !v.shuffleComplete() {
		t.Fatal("not complete after all writes")
	}
}

func TestRecordInboundCompletesWithoutPermutation(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(256, 256)
	if err := v.SetPermRegion(base, 256, 16); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginShuffle(32); err != nil {
		t.Fatal(err)
	}
	v.Write(base, 16)
	v.RecordInbound(16)
	v.Write(base+128, 16)
	v.RecordInbound(16)
	if !v.shuffleComplete() {
		t.Fatal("address-preserving shuffle did not complete")
	}
}

func TestSetPermRegionValidation(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	if err := v.SetPermRegion(v.Base, 128, 512); err == nil {
		t.Fatal("object size > 256 accepted")
	}
	if err := v.SetPermRegion(v.Base+v.Size-64, 128, 16); err == nil {
		t.Fatal("region outside vault accepted")
	}
	if err := v.BeginShuffle(0); err == nil {
		t.Fatal("BeginShuffle without region accepted")
	}
}

func TestPermutabilityRowActivationBenefit(t *testing.T) {
	// The core hardware claim (§4.1.2): interleaved writes from many
	// sources activate rows repeatedly; permuted appends activate each
	// row exactly once.
	run := func(permute bool) uint64 {
		s := testSystem()
		v := s.Vault(0)
		const n = 4096 // 4096 16-byte tuples = 64 KB = 256 rows
		base, _ := v.Alloc(n*16, 256)
		if err := v.SetPermRegion(base, n*16, 16); err != nil {
			t.Fatal(err)
		}
		if err := v.BeginShuffle(n * 16); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		order := rng.Perm(n) // interleaved arrival targets
		for _, i := range order {
			target := base + int64(i*16)
			if permute {
				if _, _, err := v.PermutableWrite(target, 16); err != nil {
					t.Fatal(err)
				}
			} else {
				v.Write(target, 16)
				v.RecordInbound(16)
			}
		}
		return v.DRAM.Stats().Activations
	}
	perm, noperm := run(true), run(false)
	if perm != 64<<10/256 {
		t.Fatalf("permuted activations = %d, want one per row (%d)", perm, 64<<10/256)
	}
	if noperm < perm*5 {
		t.Fatalf("interleaved activations = %d, want ≫ %d", noperm, perm)
	}
}

func TestObjectBuffer(t *testing.T) {
	b, err := NewObjectBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Push(16); got != 0 {
		t.Fatalf("partial push flushed %d", got)
	}
	if got := b.Push(48); got != 1 {
		t.Fatalf("boundary push flushed %d, want 1", got)
	}
	if got := b.Push(160); got != 2 {
		t.Fatalf("large push flushed %d, want 2", got)
	}
	if b.pending != 32 {
		t.Fatalf("pending = %d, want 32", b.pending)
	}
	if got := b.Drain(); got != 32 {
		t.Fatalf("drain = %d, want 32", got)
	}
	if b.Flushes != 4 {
		t.Fatalf("flushes = %d, want 4", b.Flushes)
	}
}

func TestObjectBufferRejectsOversized(t *testing.T) {
	if _, err := NewObjectBuffer(512); err == nil {
		t.Fatal("object size 512 accepted (max is 256)")
	}
	if _, err := NewObjectBuffer(0); err == nil {
		t.Fatal("object size 0 accepted")
	}
}

func TestStreamBuffersSequentialConsumption(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(8192, 256)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{base, base + 4096}, {base + 4096, base + 8192}}); err != nil {
		t.Fatal(err)
	}
	// Initial fills prime both buffers up to capacity (384 B in 256 B
	// granules → 512 B each).
	if sb.FillBytes != 1024 {
		t.Fatalf("initial fill = %d, want 1024", sb.FillBytes)
	}
	for !sb.Done() {
		for i := 0; i < 2; i++ {
			if sb.remaining(i) > 0 && !sb.Pop(i, 16) {
				t.Fatalf("pop failed on stream %d", i)
			}
		}
	}
	if sb.FillBytes != 8192 {
		t.Fatalf("total fill = %d, want 8192", sb.FillBytes)
	}
	// Streaming must have perfect row locality: one activation per row.
	if acts := v.DRAM.Stats().Activations; acts != 8192/256 {
		t.Fatalf("activations = %d, want %d", acts, 8192/256)
	}
}

func TestStreamBuffersRejectTooMany(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	ranges := make([]Range, NumStreamBuffers+1)
	for i := range ranges {
		ranges[i] = Range{v.Base, v.Base}
	}
	if err := sb.Configure(ranges); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamBuffersRejectRemote(t *testing.T) {
	s := testSystem()
	sb := NewStreamBufferSetN(s.Vault(0), NumStreamBuffers)
	remote := s.Vault(1).Base
	if err := sb.Configure([]Range{{remote, remote + 64}}); err == nil {
		t.Fatal("remote stream accepted")
	}
}

func TestStreamBufferPopBounds(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(64, 64)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{base, base + 64}}); err != nil {
		t.Fatal(err)
	}
	if !sb.Pop(0, 64) {
		t.Fatal("full pop failed")
	}
	if sb.Pop(0, 1) {
		t.Fatal("pop past end succeeded")
	}
	if !sb.Done() {
		t.Fatal("Done() false after full consumption")
	}
}

func TestResetAllClearsState(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(256, 256)
	if err := v.SetPermRegion(base, 256, 16); err != nil {
		t.Fatal(err)
	}
	if err := v.BeginShuffle(16); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.PermutableWrite(base, 16); err != nil {
		t.Fatal(err)
	}
	s.Net.Transfer(0, 1, 256)
	s.ResetAll()
	if v.DRAM.Stats().Accesses() != 0 || v.PermutedWrites != 0 || v.ShuffleActive() {
		t.Fatal("ResetAll left vault state")
	}
	for _, l := range s.Net.Links() {
		if l.Stats().BusyNs != 0 {
			t.Fatal("ResetAll left link state")
		}
	}
	if _, err := v.Alloc(16, 16); err != nil {
		t.Fatal("allocator not reset")
	}
}

// Property: under any arrival order, permutable writes are placed densely
// and sequentially, and written bytes equal the announced total.
func TestPermutableSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64, nObjs uint8) bool {
		n := int(nObjs)%64 + 1
		s := testSystem()
		v := s.Vault(0)
		base, err := v.Alloc(int64(n*16), 256)
		if err != nil {
			return false
		}
		if v.SetPermRegion(base, int64(n*16), 16) != nil {
			return false
		}
		if v.BeginShuffle(int64(n*16)) != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			target := base + int64(r.Intn(n)*16)
			addr, _, err := v.PermutableWrite(target, 16)
			if err != nil || addr != base+int64(i*16) {
				return false
			}
		}
		return v.shuffleComplete() && v.EndShuffle() == int64(n*16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBufferEmptyRange(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{v.Base, v.Base}}); err != nil {
		t.Fatal(err)
	}
	if !sb.Done() {
		t.Fatal("empty stream should be done immediately")
	}
	if sb.Pop(0, 1) {
		t.Fatal("pop from empty stream succeeded")
	}
	if sb.FillBytes != 0 {
		t.Fatal("empty stream triggered fills")
	}
}

func TestStreamBufferReconfigure(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(2048, 256)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{base, base + 1024}}); err != nil {
		t.Fatal(err)
	}
	sb.Pop(0, 512)
	// Reconfiguring reuses the buffers for a new merge group.
	if err := sb.Configure([]Range{{base + 1024, base + 2048}}); err != nil {
		t.Fatal(err)
	}
	if sb.remaining(0) != 1024 {
		t.Fatalf("remaining = %d after reconfigure", sb.remaining(0))
	}
}

func TestStreamBufferFillLead(t *testing.T) {
	// The prefetcher keeps at most StreamBufferBytes of lead, in
	// row-sized granules: after the initial fill of a long stream it
	// must have fetched ceil(384/256) granules = 512 B, no more.
	s := testSystem()
	v := s.Vault(0)
	base, _ := v.Alloc(1<<16, 256)
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{base, base + 1<<16}}); err != nil {
		t.Fatal(err)
	}
	if sb.FillBytes != 512 {
		t.Fatalf("initial fill = %d, want 512", sb.FillBytes)
	}
	// Consuming one tuple keeps the lead under capacity: no refill yet.
	sb.Pop(0, 16)
	if sb.FillBytes != 512 {
		t.Fatalf("early pop refilled: %d", sb.FillBytes)
	}
	// Consuming a full granule triggers the next fill.
	sb.Pop(0, 240)
	if sb.FillBytes != 768 {
		t.Fatalf("fill after one granule = %d, want 768", sb.FillBytes)
	}
}

// TestPopRunMatchesPops drives two identical buffer sets with random
// streams, strides and run lengths: one retires each run with
// PopRun(i, stride, n), the other with n Pop calls. Return value, stream
// state, FillBytes and the vault's DRAM accounting must agree after every
// run. A run that does not fit makes PopRun return false and consume
// nothing, where the Pop loop would stop partway, so such runs are
// skipped on the Pop side.
func TestPopRunMatchesPops(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		ranges := make([]Range, 1+rng.Intn(NumStreamBuffers))
		var off int64
		for i := range ranges {
			off += int64(rng.Intn(300))
			n := int64(rng.Intn(4096))
			ranges[i] = Range{off, off + n}
			off += n
		}
		var sets [2]*StreamBufferSet
		for k := range sets {
			v := NewSystem(1, 4, noc.FullyConnected, testGeom(), dram.HMCTiming()).Vault(0)
			rs := make([]Range, len(ranges))
			for i, r := range ranges {
				rs[i] = Range{v.Base + r.Start, v.Base + r.End}
			}
			sets[k] = NewStreamBufferSetN(v, NumStreamBuffers)
			if err := sets[k].Configure(rs); err != nil {
				t.Fatal(err)
			}
		}
		run, ref := sets[0], sets[1]
		for op := 0; op < 200; op++ {
			i := rng.Intn(len(ranges))
			stride := []int{1, 8, 16, 48, 64}[rng.Intn(5)]
			n := rng.Intn(40)
			fits := ref.streams[i].next+int64(stride*n) <= ref.streams[i].end
			if got := run.PopRun(i, stride, n); got != fits {
				t.Fatalf("trial %d op %d: PopRun(%d, %d, %d) = %v, want %v", trial, op, i, stride, n, got, fits)
			}
			for k := 0; fits && k < n; k++ {
				if !ref.Pop(i, stride) {
					t.Fatalf("trial %d op %d: pop %d of %d failed", trial, op, k, n)
				}
			}
			if !slices.Equal(run.streams, ref.streams) {
				t.Fatalf("trial %d op %d: streams %+v, Pop loop %+v", trial, op, run.streams, ref.streams)
			}
			if run.FillBytes != ref.FillBytes {
				t.Fatalf("trial %d op %d: FillBytes %d, Pop loop %d", trial, op, run.FillBytes, ref.FillBytes)
			}
			a, b := run.vault.DRAM, ref.vault.DRAM
			if a.Stats() != b.Stats() || a.BusyNs() != b.BusyNs() {
				t.Fatalf("trial %d op %d: DRAM %+v busy %v, Pop loop %+v busy %v",
					trial, op, a.Stats(), a.BusyNs(), b.Stats(), b.BusyNs())
			}
		}
	}
}

func TestObjectBufferPushValidation(t *testing.T) {
	b, _ := NewObjectBuffer(64)
	defer func() {
		if recover() == nil {
			t.Fatal("Push(0) did not panic")
		}
	}()
	b.Push(0)
}

func TestVaultAllocValidation(t *testing.T) {
	s := testSystem()
	v := s.Vault(0)
	if _, err := v.Alloc(0, 16); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if _, err := v.Alloc(16, 0); err == nil {
		t.Fatal("zero alignment accepted")
	}
}

func TestVaultOfPanicsOutsideSpace(t *testing.T) {
	s := testSystem()
	defer func() {
		if recover() == nil {
			t.Fatal("address beyond last vault did not panic")
		}
	}()
	s.VaultOf(s.CapacityBytes())
}
