package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// hit reports whether an Access generated no traffic below (a hit).
func hit(ops []RunOp) bool { return len(ops) == 0 }

// fetches returns the block addresses an Access fetched from below.
func fetches(ops []RunOp) []int64 { return opAddrs(ops, false) }

// writebacks returns the dirty blocks an Access evicted.
func writebacks(ops []RunOp) []int64 { return opAddrs(ops, true) }

func opAddrs(ops []RunOp, wb bool) []int64 {
	var out []int64
	for _, op := range ops {
		if (op.Kind == RunWriteback) == wb {
			out = append(out, op.Addr)
		}
	}
	return out
}

// tiny returns a 4-set, 2-way, 64 B-block cache without prefetching.
func tiny() *Cache {
	return New(Config{SizeBytes: 512, Ways: 2, BlockBytes: 64})
}

func TestConfigPresets(t *testing.T) {
	l1 := L1D32K()
	if l1.SizeBytes != 32<<10 || l1.Ways != 2 || l1.BlockBytes != 64 || l1.PrefetchDegree != 3 {
		t.Fatalf("L1D32K = %+v", l1)
	}
	llc := LLC4M()
	if llc.SizeBytes != 4<<20 || llc.Ways != 16 {
		t.Fatalf("LLC4M = %+v", llc)
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	r1 := c.Access(0, false)
	if hit(r1) || len(fetches(r1)) != 1 || fetches(r1)[0] != 0 {
		t.Fatalf("first access: %+v", r1)
	}
	r2 := c.Access(63, false) // same block
	if !hit(r2) {
		t.Fatal("same-block access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Accesses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets: blocks 0,4,8... map to set 0
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), false)
	c.Access(blk(1), false)
	c.Access(blk(0), false) // touch 0: 1 becomes LRU
	c.Access(blk(2), false) // evicts 1
	if !hit(c.Access(blk(0), false)) {
		t.Fatal("block 0 should have survived")
	}
	if hit(c.Access(blk(1), false)) {
		t.Fatal("block 1 should have been evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := tiny()
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), true) // dirty
	c.Access(blk(1), false)
	r := c.Access(blk(2), false) // evicts dirty block 0
	if len(writebacks(r)) != 1 || writebacks(r)[0] != blk(0) {
		t.Fatalf("writebacks = %v, want [%d]", writebacks(r), blk(0))
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats().DirtyEvictions)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny()
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), false) // clean fill
	c.Access(blk(0), true)  // write hit dirties it
	c.Access(blk(1), false)
	r := c.Access(blk(2), false)
	if len(writebacks(r)) != 1 {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 3})
	r := c.Access(0, false)
	// Demand block + 3 prefetched blocks fetched from below.
	if len(fetches(r)) != 4 {
		t.Fatalf("fetches = %v", fetches(r))
	}
	if c.Stats().PrefetchIssued != 3 {
		t.Fatalf("prefetch issued = %d", c.Stats().PrefetchIssued)
	}
	// Sequential walk: next three blocks are hits on prefetched lines.
	for i := 1; i <= 3; i++ {
		if !hit(c.Access(int64(i*64), false)) {
			t.Fatalf("block %d not prefetched", i)
		}
	}
	if c.Stats().PrefetchHits != 3 {
		t.Fatalf("prefetch hits = %d", c.Stats().PrefetchHits)
	}
}

func TestPrefetchNotReissuedForResident(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 2})
	c.Access(0, false)        // fetches 0, prefetches 64,128
	r := c.Access(256, false) // miss; prefetch 320,384 (none resident)
	if len(fetches(r)) != 3 {
		t.Fatalf("fetches = %v", fetches(r))
	}
	c2 := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 2})
	c2.Access(64, false)       // fetches 64, prefetches 128,192
	r2 := c2.Access(0, false)  // miss; 64 and 128 already resident
	if len(fetches(r2)) != 1 { // only demand block 0
		t.Fatalf("fetches = %v, want only demand block", fetches(r2))
	}
}

func TestSequentialScanHitRate(t *testing.T) {
	c := New(L1D32K())
	// 8-byte strided scan over 64 KB: with 64 B blocks and prefetch,
	// hit rate should be very high.
	for a := int64(0); a < 64<<10; a += 8 {
		c.Access(a, false)
	}
	st := c.Stats()
	if hr := float64(st.Hits) / float64(st.Accesses); hr < 0.9 {
		t.Fatalf("sequential scan hit rate = %.3f, want > 0.9", hr)
	}
}

func TestRandomAccessBeyondCapacityMissRate(t *testing.T) {
	c := New(Config{SizeBytes: 8 << 10, Ways: 2, BlockBytes: 64})
	rng := rand.New(rand.NewSource(1))
	var hits int
	const n = 20000
	for i := 0; i < n; i++ {
		addr := rng.Int63n(64 << 20) // working set 8192× the cache
		if hit(c.Access(addr, false)) {
			hits++
		}
	}
	if float64(hits)/n > 0.02 {
		t.Fatalf("random far-field hit rate = %.3f, want ~0", float64(hits)/n)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(64, false)
	wbs := c.Flush()
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("flush writebacks = %v", wbs)
	}
	if hit(c.Access(0, false)) {
		t.Fatal("flush left valid lines")
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	c := New(L1D32K())
	for _, addr := range []int64{0, 64, 4096, 32 << 10, 1 << 30, (1 << 30) + 64*7} {
		set, tag := c.index(addr)
		back := c.blockAddr(set, tag)
		if back != addr/64*64 {
			t.Fatalf("round trip %d → (%d,%d) → %d", addr, set, tag, back)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero size did not panic")
		}
	}()
	New(Config{SizeBytes: 0, Ways: 1, BlockBytes: 64})
}

// TestConfigValidate pins the geometries New refuses: non-positive
// dimensions, sizes below one full set, and more ways than a set's
// packed recency order holds.
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{SizeBytes: 4096, Ways: 0, BlockBytes: 64},
		{SizeBytes: 4096, Ways: 2, BlockBytes: -64},
		{SizeBytes: 100, Ways: 2, BlockBytes: 64},
		{SizeBytes: 64 * 17, Ways: 17, BlockBytes: 64},
		{SizeBytes: 4 << 20, Ways: 32, BlockBytes: 64},
	} {
		if cfg.Validate() == nil {
			t.Errorf("Validate(%+v) accepted an impossible geometry", cfg)
		}
	}
	for _, cfg := range []Config{L1D32K(), LLC4M(), {SizeBytes: 128, Ways: 2, BlockBytes: 64}, {SizeBytes: 64 * 16, Ways: 16, BlockBytes: 64}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
	}
}

// Property: accounting identities hold under random access streams, and a
// re-access of the immediately preceding address always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64, n uint16) bool {
		c := New(Config{SizeBytes: 2048, Ways: 2, BlockBytes: 64, PrefetchDegree: 1})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			addr := r.Int63n(1 << 16)
			c.Access(addr, r.Intn(2) == 0)
			if !hit(c.Access(addr, false)) {
				return false // temporal locality must always hit
			}
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses && s.PrefetchHits <= s.PrefetchIssued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// refCache is a direct array-of-lines model of the replacement policy —
// first invalid way, else the lowest lastUse, the lowest way on ties —
// kept as the oracle for the packed sets.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	tick  uint64
	stats Stats
}

type refLine struct {
	valid, dirty, prefetched bool
	tag                      int64
	lastUse                  uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	r := &refCache{cfg: cfg, sets: make([][]refLine, n)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) find(addr int64) (set []refLine, tag int64, hit *refLine) {
	blk := addr / int64(r.cfg.BlockBytes)
	set, tag = r.sets[blk%int64(len(r.sets))], blk/int64(len(r.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, tag, &set[i]
		}
	}
	return set, tag, nil
}

func (r *refCache) fill(addr int64, dirty, prefetched bool) (wb int64, ok bool) {
	set, tag, _ := r.find(addr)
	v := 0
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if set[i].lastUse < set[v].lastUse {
			v = i
		}
	}
	if set[v].valid && set[v].dirty {
		blk := set[v].tag*int64(len(r.sets)) + (addr/int64(r.cfg.BlockBytes))%int64(len(r.sets))
		wb, ok = blk*int64(r.cfg.BlockBytes), true
		r.stats.DirtyEvictions++
	}
	set[v] = refLine{valid: true, dirty: dirty, prefetched: prefetched, tag: tag, lastUse: r.tick}
	return wb, ok
}

func (r *refCache) access(addr int64, write bool) []RunOp {
	r.tick++
	r.stats.Accesses++
	if _, _, l := r.find(addr); l != nil {
		r.stats.Hits++
		if l.prefetched {
			r.stats.PrefetchHits++
			l.prefetched = false
		}
		l.lastUse = r.tick
		l.dirty = l.dirty || write
		return nil
	}
	r.stats.Misses++
	bb := int64(r.cfg.BlockBytes)
	ops := []RunOp{{Addr: addr / bb * bb, Kind: RunFetchDemand}}
	var wbs []RunOp
	if wb, ok := r.fill(addr, write, false); ok {
		wbs = append(wbs, RunOp{Addr: wb, Kind: RunWriteback})
	}
	for i := 1; i <= r.cfg.PrefetchDegree; i++ {
		p := addr + int64(i)*bb
		if _, _, l := r.find(p); l != nil {
			continue
		}
		r.stats.PrefetchIssued++
		ops = append(ops, RunOp{Addr: p / bb * bb, Kind: RunFetchPrefetch})
		if wb, ok := r.fill(p, false, true); ok {
			wbs = append(wbs, RunOp{Addr: wb, Kind: RunWriteback})
		}
	}
	return append(ops, wbs...)
}

// accessRun is AccessRun as count single accesses.
func (r *refCache) accessRun(addr int64, stride, count int, write bool) (hits, misses uint64, ops []RunOp) {
	for i := 0; i < count; i++ {
		o := r.access(addr+int64(i*stride), write)
		if len(o) == 0 {
			hits++
		} else {
			misses++
		}
		ops = append(ops, o...)
	}
	return hits, misses, ops
}

// accessHitRun is AccessHitRun: count hits if addr's block is resident,
// else nothing.
func (r *refCache) accessHitRun(addr int64, count int, write bool) bool {
	if _, _, l := r.find(addr); l == nil {
		return false
	}
	for i := 0; i < count; i++ {
		r.access(addr, write)
	}
	return true
}

// flush invalidates every line, returning the dirty blocks in set and
// way order.
func (r *refCache) flush() []int64 {
	var wbs []int64
	for si, set := range r.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				blk := set[i].tag*int64(len(r.sets)) + int64(si)
				wbs = append(wbs, blk*int64(r.cfg.BlockBytes))
				r.stats.DirtyEvictions++
			}
			set[i] = refLine{}
		}
	}
	return wbs
}

// TestFlatSetsMatchReference replays random streams with hot and
// far-field addresses through the cache and the array-of-lines oracle,
// mixing single accesses with AccessRun, AccessHitRun and Flush calls:
// every traffic list (victim choice, writeback order), run tally, flush
// list and the final statistics agree, including across a Reset. The
// geometries cover the L1 and the LLC, both TLB levels, the divide path,
// and set counts at or below the prefetch degree, where one miss's fills
// share a tick within one set.
func TestFlatSetsMatchReference(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 2048, Ways: 4, BlockBytes: 64, PrefetchDegree: 2},
		{SizeBytes: 3 * 64 * 8, Ways: 8, BlockBytes: 64, PrefetchDegree: 1}, // 3 sets: divide path
		{SizeBytes: 4 * 64 * 2, Ways: 4, BlockBytes: 64, PrefetchDegree: 3}, // LRU ties within a set
		{SizeBytes: 3 * 64 * 2, Ways: 2, BlockBytes: 64, PrefetchDegree: 3}, // 3 sets = degree
		{SizeBytes: 64 * 2, Ways: 2, BlockBytes: 64, PrefetchDegree: 3},     // one set: a fill evicts a tied fill
		{SizeBytes: 64 * 16, Ways: 16, BlockBytes: 64, PrefetchDegree: 3},   // one 16-way set
		{SizeBytes: 16 * 64 * 16, Ways: 16, BlockBytes: 64},                 // LLC sets, few of them
		{SizeBytes: 64 * 4096, Ways: 4, BlockBytes: 4096},                   // L1 TLB
		{SizeBytes: 1024 * 4096, Ways: 8, BlockBytes: 4096},                 // L2 TLB
		L1D32K(),
		LLC4M(),
	} {
		c := New(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)))
		n := max(20000, 4*cfg.SizeBytes/cfg.BlockBytes)
		var res RunResult
		for round := 0; round < 2; round++ {
			ref := newRef(cfg)
			for i := 0; i < n; i++ {
				addr := rng.Int63n(int64(cfg.SizeBytes) * 4)
				if rng.Intn(8) == 0 {
					addr = rng.Int63n(1 << 30)
				}
				write := rng.Intn(3) == 0
				switch op := rng.Intn(100); {
				case op < 8:
					stride := 8 << rng.Intn(4)
					addr = addr / int64(stride) * int64(stride)
					count := 1 + rng.Intn(3*cfg.BlockBytes/stride)
					hits, misses, want := ref.accessRun(addr, stride, count, write)
					c.AccessRun(addr, stride, count, write, &res)
					if res.Hits != hits || res.Misses != misses || len(res.Ops) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Ops, want)) {
						t.Fatalf("%+v round %d run %d (%#x×%d/%d): %d/%d %v, want %d/%d %v",
							cfg, round, i, addr, count, stride, res.Hits, res.Misses, res.Ops, hits, misses, want)
					}
				case op < 12:
					count := 1 + rng.Intn(5)
					if got, want := c.AccessHitRun(addr, count, write), ref.accessHitRun(addr, count, write); got != want {
						t.Fatalf("%+v round %d hit run %d (%#x): %v, want %v", cfg, round, i, addr, got, want)
					}
				case op == 12 && rng.Intn(50) == 0:
					if got, want := c.Flush(), ref.flush(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v round %d flush %d: %v, want %v", cfg, round, i, got, want)
					}
				default:
					want := ref.access(addr, write)
					got := c.Access(addr, write)
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%+v round %d access %d (%#x): traffic %v, want %v", cfg, round, i, addr, got, want)
					}
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%+v round %d: stats %+v, want %+v", cfg, round, c.Stats(), ref.stats)
			}
			c.Reset()
		}
	}
}
