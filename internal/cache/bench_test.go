package cache

import "testing"

func BenchmarkAccessSequential(b *testing.B) {
	c := New(L1D32K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i%(1<<20))*8, false)
	}
}

func BenchmarkAccessRandomFarField(b *testing.B) {
	c := New(L1D32K())
	addr := int64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1
		c.Access((addr>>20)&0x3ffffff8, i&1 == 0)
	}
}

// BenchmarkLLCAccessRandom drives the 4 MB 16-way LLC with a far-field
// random stream: every access misses into a full set, so the cost is the
// tag scan plus the LRU victim scan.
func BenchmarkLLCAccessRandom(b *testing.B) {
	c := New(LLC4M())
	addr := int64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1
		c.Access((addr>>20)&0x3ffffff8, i&1 == 0)
	}
}

// BenchmarkAccessRandomHits drives the L1 with random reads inside a
// 16 KB footprint: nearly every access hits, in a random set and way, so
// the cost is the lookup and the recency update of a hit whose way is
// data-dependent.
func BenchmarkAccessRandomHits(b *testing.B) {
	c := New(L1D32K())
	addr := int64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1
		c.Access((addr>>20)&(16<<10-8), false)
	}
}
