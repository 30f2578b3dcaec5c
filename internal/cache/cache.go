// Package cache models the cache hierarchy of the CPU-centric baseline
// (and the L1s of the NMP baseline): set-associative, LRU-replaced,
// write-back/write-allocate caches with a next-line prefetcher.
//
// Paper Table 3: the CPU has 32 KB 2-way L1d caches with 64 B blocks and a
// shared 4 MB 16-way LLC; both CPU and NMP baselines feature a next-line
// prefetcher "capable of issuing prefetches for up to three next cache
// lines". The cache model filters the access stream the simulated memory
// system sees: only misses (demand or prefetch) and dirty evictions reach
// DRAM.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeBytes      int
	Ways           int
	BlockBytes     int
	HitLatencyNs   float64
	MSHRs          int // outstanding-miss capacity (bounds miss-level parallelism)
	PrefetchDegree int // next-line prefetch depth; 0 disables
}

// L1D32K returns the CPU/NMP baseline L1 data cache configuration
// (32 KB, 2-way, 64 B blocks, 2-cycle latency at 2 GHz, 32 MSHRs).
func L1D32K() Config {
	return Config{SizeBytes: 32 << 10, Ways: 2, BlockBytes: 64, HitLatencyNs: 1.0, MSHRs: 32, PrefetchDegree: 3}
}

// LLC4M returns the shared last-level cache configuration
// (4 MB, 16-way, 64 B blocks, 4-cycle hit latency at 2 GHz).
func LLC4M() Config {
	return Config{SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64, HitLatencyNs: 2.0, MSHRs: 64}
}

// Stats aggregates cache events.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	DirtyEvictions uint64
	PrefetchIssued uint64
	PrefetchHits   uint64 // demand hits on prefetched-not-yet-used lines
}

// setState is one set: its fill level, its recency order and its line
// flags. Lines are only ever invalidated all at once (Reset, Flush), and
// a fill always takes the first invalid way, so the valid lines of a set
// are exactly ways [0, n). gen stamps the Cache generation the set was
// last written in: a set whose stamp is stale is empty, so Reset and
// Flush invalidate the whole cache by bumping the generation instead of
// clearing every line (pooled engines reset between every run — an
// O(size) wipe there is the difference between a cheap lifecycle and
// re-zeroing megabytes per query).
//
// order lists the n valid ways, four bits each, most recently used in
// the lowest nibble: the replacement victim is the last one. It is the
// order of a per-line last-use tick, the lowest way first among equal
// ticks. Every demand access takes a tick of its own, so only the fills
// of one miss (the demand block and its prefetches) can share one; they
// sit at the front of the order, highest way first. fill is the tick of
// the set's last fill and tied how many of the leading ways it filled.
type setState struct {
	gen   uint64
	order uint64
	fill  uint64
	n     uint8
	tied  uint8
	dirty uint16 // bit w: way w holds a dirty line
	pref  uint16 // bit w: way w holds a prefetched, not yet used line
}

// maxWays bounds the associativity: a set's recency order packs four-bit
// way numbers into one uint64, and its flags are 16-bit masks.
const maxWays = 16

// Cache is one set-associative cache level. Tags are stored densely,
// indexed set*Ways+way, so a lookup scans one run of words; everything
// else a line has lives packed in its set's state.
type Cache struct {
	cfg   Config
	nsets int
	gen   uint64
	tick  uint64
	stats Stats

	sets []setState
	tags []int64

	// Shift/mask forms of the block and set arithmetic, valid when both
	// BlockBytes and the set count are powers of two (every modeled
	// configuration). The generic divide path remains for odd geometries.
	pow2       bool
	blockShift uint
	blockMask  int64 // BlockBytes-1
	setShift   uint
	setMask    int64 // nsets-1

	// mruSet, mruTag and mruWay name the line the latest hit touched, or
	// no line (mruSet -1) once anything else was touched or filled since:
	// that line is still the front of its set's order with its prefetch
	// bit clear, so a repeated hit on it (successive tuples of one block)
	// changes nothing but its dirty bit.
	mruSet int
	mruTag int64
	mruWay int

	// scratch backs the traffic list Access returns, so the steady-state
	// access path performs zero heap allocations. It is overwritten by
	// the next Access call.
	scratch RunResult
}

// Validate checks that the geometry holds at least one full set of at
// most 16 ways.
func (cfg Config) Validate() error {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return fmt.Errorf("cache: size, ways and block bytes must be positive, got %d B, %d ways, %d B blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	}
	if cfg.Ways > maxWays {
		return fmt.Errorf("cache: %d ways exceed the modelled maximum of %d", cfg.Ways, maxWays)
	}
	if cfg.SizeBytes/(cfg.Ways*cfg.BlockBytes) == 0 {
		return fmt.Errorf("cache: %d B holds fewer than one set of %d ways × %d B blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	}
	return nil
}

// New builds a cache from its configuration; it panics on a geometry
// Validate rejects.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	lines := nsets * cfg.Ways
	c := &Cache{
		cfg: cfg, nsets: nsets, gen: 1, mruSet: -1,
		sets: make([]setState, nsets),
		tags: make([]int64, lines),
	}
	if isPow2(cfg.BlockBytes) && isPow2(nsets) {
		c.pow2 = true
		c.blockShift = log2(cfg.BlockBytes)
		c.blockMask = int64(cfg.BlockBytes - 1)
		c.setShift = log2(nsets)
		c.setMask = int64(nsets - 1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockBytes returns the block size (without copying the whole Config).
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its just-constructed state: every line
// invalidated, statistics and the LRU clock zeroed. Unlike Flush it models
// no hardware event — dirty lines are dropped without writebacks and
// without counting evictions — so a reset cache is indistinguishable from
// a fresh New(cfg). The reusable scratch buffers keep their capacity.
func (c *Cache) Reset() {
	c.gen++
	c.mruSet = -1
	c.tick = 0
	c.stats = Stats{}
}

// Flush invalidates the whole cache, returning the block addresses of all
// dirty lines (which a memory system must write back).
func (c *Cache) Flush() []int64 {
	var wbs []int64
	for si := range c.sets {
		dirty := c.sets[si].dirty
		for w := 0; w < c.valid(si); w++ {
			if dirty&(1<<w) != 0 {
				wbs = append(wbs, c.blockAddr(si, c.tags[si*c.cfg.Ways+w]))
				c.stats.DirtyEvictions++
			}
		}
	}
	c.gen++
	c.mruSet = -1
	return wbs
}

// valid returns how many ways of set hold live lines (a prefix).
func (c *Cache) valid(set int) int {
	if st := &c.sets[set]; st.gen == c.gen {
		return int(st.n)
	}
	return 0
}

func (c *Cache) index(addr int64) (set int, tag int64) {
	if c.pow2 {
		blk := addr >> c.blockShift
		return int(blk & c.setMask), blk >> c.setShift
	}
	blk := addr / int64(c.cfg.BlockBytes)
	return int(blk % int64(c.nsets)), blk / int64(c.nsets)
}

func (c *Cache) blockAddr(set int, tag int64) int64 {
	if c.pow2 {
		return (tag<<c.setShift + int64(set)) << c.blockShift
	}
	return (tag*int64(c.nsets) + int64(set)) * int64(c.cfg.BlockBytes)
}

// BlockBase rounds addr down to its block base address.
func (c *Cache) BlockBase(addr int64) int64 {
	if c.pow2 {
		return addr &^ c.blockMask
	}
	return addr / int64(c.cfg.BlockBytes) * int64(c.cfg.BlockBytes)
}

// RunOpKind classifies one entry of a traffic list.
type RunOpKind uint8

// Traffic kinds, in the order the memory system below must see them per
// miss: the demand fetch, then prefetch fetches, then dirty writebacks.
const (
	RunFetchDemand RunOpKind = iota
	RunFetchPrefetch
	RunWriteback
)

// RunOp is one block-granular request for the level below the cache.
type RunOp struct {
	Addr int64
	Kind RunOpKind
}

// RunResult tallies one AccessRun. Ops is the ordered traffic for the
// level below; replaying it access-by-access reproduces exactly the
// traffic lists the per-access Access calls would have returned. The Ops
// buffer is reused across calls on the same RunResult.
type RunResult struct {
	Hits   uint64
	Misses uint64
	Ops    []RunOp
	wbTmp  []int64 // per-miss writeback staging (fetches precede writebacks)
}

// Access performs one demand access to addr and returns the traffic it
// generated for the level below: empty on a hit; on a miss the demand
// fetch, then any prefetch fetches, then dirty writebacks. Size is
// implicit: accesses are block-granular (the caller splits larger
// requests). The returned slice aliases a cache-owned buffer and is only
// valid until the next Access — callers must consume it immediately.
func (c *Cache) Access(addr int64, write bool) []RunOp {
	c.scratch.Ops = c.scratch.Ops[:0]
	c.accessOps(addr, write, &c.scratch)
	return c.scratch.Ops
}

// accessOps is the single implementation of one demand access. Generated
// traffic is appended to res.Ops (fetches first, then writebacks). It
// reports whether the access hit.
func (c *Cache) accessOps(addr int64, write bool, res *RunResult) bool {
	c.tick++
	c.stats.Accesses++
	set, tag := c.index(addr)
	if set == c.mruSet && tag == c.mruTag {
		c.stats.Hits++
		if write {
			c.sets[set].dirty |= 1 << c.mruWay
		}
		return true
	}
	if w := c.lookup(set, tag); w >= 0 {
		c.stats.Hits++
		c.touch(&c.sets[set], w, write)
		c.mruSet, c.mruTag, c.mruWay = set, tag, w
		return true
	}
	// Demand miss: allocate.
	c.stats.Misses++
	res.wbTmp = res.wbTmp[:0]
	res.Ops = append(res.Ops, RunOp{Addr: c.BlockBase(addr), Kind: RunFetchDemand})
	if wb, ok := c.insert(set, tag, write, false); ok {
		res.wbTmp = append(res.wbTmp, wb)
	}
	// Next-line prefetch on demand miss.
	for i := 1; i <= c.cfg.PrefetchDegree; i++ {
		pAddr := addr + int64(i*c.cfg.BlockBytes)
		pSet, pTag := c.index(pAddr)
		if c.lookup(pSet, pTag) >= 0 {
			continue
		}
		c.stats.PrefetchIssued++
		res.Ops = append(res.Ops, RunOp{Addr: c.BlockBase(pAddr), Kind: RunFetchPrefetch})
		if wb, ok := c.insert(pSet, pTag, false, true); ok {
			res.wbTmp = append(res.wbTmp, wb)
		}
	}
	for _, wb := range res.wbTmp {
		res.Ops = append(res.Ops, RunOp{Addr: wb, Kind: RunWriteback})
	}
	return false
}

// touch records a demand hit on way w of set st: the way moves to the
// front of the recency order (the hit's tick is the newest), a write
// dirties the line, and the first demand use of a prefetched line counts
// as a prefetch hit. Where the way sits in the order is data-dependent,
// so the order update does not branch on it. The caller records the
// line as the latest hit (mruSet, mruTag, mruWay).
func (c *Cache) touch(st *setState, w int, write bool) {
	if st.pref>>w&1 != 0 {
		c.stats.PrefetchHits++
		st.pref &^= 1 << w
	}
	if write {
		st.dirty |= 1 << w
	}
	st.order = c.toFront(st.order, w)
}

// toFront moves way w, which order holds, to the front of order: the
// nibbles before it shift back by one. In a 2-way set the result is w,
// then the other way (a nibble past the fill level is never read). In
// general the lowest nibble equal to w is the lowest zero nibble of
// order^w·0x11…1, whose top bit the borrow test sets exactly (borrows
// only flag higher nibbles); when w is already in front the result is
// order itself.
func (c *Cache) toFront(order uint64, w int) uint64 {
	if c.cfg.Ways == 2 {
		return uint64(w) | uint64(w^1)<<4
	}
	x := order ^ uint64(w)*0x1111111111111111
	f := (x - 0x1111111111111111) &^ x & 0x8888888888888888
	from := -(f & -f >> 3) // the nibbles from w's up
	return order&(from<<4) | (order&^from)<<4 | uint64(w)
}

// AccessRun performs count sequential demand accesses of stride bytes
// each, starting at addr, with accounting identical to calling Access once
// per element: same stats, same replacement state, same traffic in the
// same order (collected in res.Ops). The first access to each block runs
// the full lookup/miss/prefetch machinery; the remaining same-block
// accesses are guaranteed hits and are retired in O(1) per block.
//
// The stride must evenly divide the block size and addr must be
// stride-aligned, so no element straddles a block boundary (the Unit
// layer falls back to per-access calls otherwise).
func (c *Cache) AccessRun(addr int64, stride, count int, write bool, res *RunResult) {
	bb := int64(c.cfg.BlockBytes)
	if stride <= 0 || bb%int64(stride) != 0 || addr%int64(stride) != 0 {
		panic(fmt.Sprintf("cache: AccessRun needs a block-aligned stride (addr=%d stride=%d block=%d)", addr, stride, c.cfg.BlockBytes))
	}
	res.Hits, res.Misses = 0, 0
	res.Ops = res.Ops[:0]
	for count > 0 {
		blockEnd := c.BlockBase(addr) + bb
		k := int((blockEnd - addr) / int64(stride))
		if k > count {
			k = count
		}
		// First touch of the block: full per-access semantics.
		if c.accessOps(addr, write, res) {
			res.Hits++
		} else {
			res.Misses++
		}
		if k > 1 {
			set, tag := c.index(addr)
			if w := c.lookup(set, tag); w >= 0 {
				// The block survived its own prefetches (always, outside
				// pathologically tiny configurations): the remaining k-1
				// accesses are hits. Batch their bookkeeping; the final
				// recency/dirty state equals k-1 individual hit updates.
				m := uint64(k - 1)
				c.tick += m
				c.stats.Accesses += m
				c.stats.Hits += m
				res.Hits += m
				c.touch(&c.sets[set], w, write)
				c.mruSet, c.mruTag, c.mruWay = set, tag, w
			} else {
				// The demand line was evicted by its own prefetch inserts:
				// replay the remaining accesses one by one.
				for i := 1; i < k; i++ {
					if c.accessOps(addr+int64(i*stride), write, res) {
						res.Hits++
					} else {
						res.Misses++
					}
				}
			}
		}
		addr = blockEnd
		count -= k
	}
}

// AccessHitRun retires count repeated demand accesses that are known to
// fall in the single resident block holding addr (e.g. TLB lookups within
// one page after the first lookup installed the entry). If the block is
// not resident it reports false and performs no accounting, and the
// caller must fall back to per-access lookups.
func (c *Cache) AccessHitRun(addr int64, count int, write bool) bool {
	if count <= 0 {
		return true
	}
	set, tag := c.index(addr)
	w := c.lookup(set, tag)
	if w < 0 {
		return false
	}
	m := uint64(count)
	c.tick += m
	c.stats.Accesses += m
	c.stats.Hits += m
	c.touch(&c.sets[set], w, write)
	c.mruSet, c.mruTag, c.mruWay = set, tag, w
	return true
}

// lookup returns the way holding (set, tag), or -1, updating nothing.
func (c *Cache) lookup(set int, tag int64) int {
	base := set * c.cfg.Ways
	for w, t := range c.tags[base : base+c.valid(set)] {
		if t == tag {
			return w
		}
	}
	return -1
}

// insert allocates a line for (set, tag): the first invalid way, else
// the last way of the recency order (the least recently used one, the
// lowest way on ties). It returns the writeback block address if the
// victim was dirty.
func (c *Cache) insert(set int, tag int64, dirty, prefetched bool) (writeback int64, dirtyEvict bool) {
	c.mruSet = -1
	st := &c.sets[set]
	if st.gen != c.gen {
		*st = setState{gen: c.gen}
	}
	tied := 0
	if st.fill == c.tick {
		tied = int(st.tied)
	}
	order := st.order
	var w int
	if int(st.n) < c.cfg.Ways {
		w = int(st.n) // above every valid way, so it goes to the front
		st.n++
	} else {
		last := uint(4 * (c.cfg.Ways - 1))
		w = int(order >> last & 15)
		order &= 1<<last - 1
		if tied == c.cfg.Ways {
			tied-- // the victim was one of this tick's fills
		}
		if st.dirty&(1<<w) != 0 {
			writeback = c.blockAddr(set, c.tags[set*c.cfg.Ways+w])
			dirtyEvict = true
			c.stats.DirtyEvictions++
		}
	}
	// Same-tick fills stay in descending way order at the front.
	p := uint(0)
	for int(p) < 4*tied && int(order>>p&15) > w {
		p += 4
	}
	below := uint64(1)<<p - 1
	st.order = order&below | uint64(w)<<p | (order&^below)<<4
	st.fill, st.tied = c.tick, uint8(tied+1)
	bit := uint16(1) << w
	st.dirty &^= bit
	st.pref &^= bit
	if dirty {
		st.dirty |= bit
	}
	if prefetched {
		st.pref |= bit
	}
	c.tags[set*c.cfg.Ways+w] = tag
	return writeback, dirtyEvict
}
