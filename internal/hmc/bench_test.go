package hmc

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

func BenchmarkPermutableWrite(b *testing.B) {
	g := testGeom()
	g.CapacityBytes = 256 << 20
	s := NewSystem(1, 4, noc.FullyConnected, g, dram.HMCTiming())
	v := s.Vault(0)
	const regionTuples = 1 << 20 // fixed 16 MB region; re-armed when full
	base, err := v.Alloc(regionTuples*16, 256)
	if err != nil {
		b.Fatal(err)
	}
	if err := v.SetPermRegion(base, regionTuples*16, 16); err != nil {
		b.Fatal(err)
	}
	if err := v.BeginShuffle(regionTuples * 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%regionTuples == 0 && i > 0 {
			v.EndShuffle()
			if err := v.BeginShuffle(regionTuples * 16); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := v.PermutableWrite(base, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamBufferPop(b *testing.B) {
	g := testGeom()
	g.CapacityBytes = 256 << 20
	s := NewSystem(1, 4, noc.FullyConnected, g, dram.HMCTiming())
	v := s.Vault(0)
	const streamTuples = 1 << 20 // fixed 16 MB stream; re-tied when drained
	base, err := v.Alloc(streamTuples*16, 256)
	if err != nil {
		b.Fatal(err)
	}
	sb := NewStreamBufferSetN(v, NumStreamBuffers)
	if err := sb.Configure([]Range{{base, base + streamTuples*16}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%streamTuples == 0 && i > 0 {
			if err := sb.Configure([]Range{{base, base + streamTuples*16}}); err != nil {
				b.Fatal(err)
			}
		}
		if !sb.Pop(0, 16) {
			b.Fatal("pop failed")
		}
	}
}
