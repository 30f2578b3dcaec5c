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

// setState is one set's fill level. Lines are only ever invalidated
// all at once (Reset, Flush), and a fill always takes the first invalid
// way, so the valid lines of a set are exactly ways [0, n). gen stamps
// the Cache generation n was last written in: a set whose stamp is stale
// is empty, so Reset and Flush invalidate the whole cache by bumping the
// generation instead of clearing every line (pooled engines reset
// between every run — an O(size) wipe there is the difference between a
// cheap lifecycle and re-zeroing megabytes per query).
type setState struct {
	gen uint64
	n   int
}

// Line flag bits.
const (
	flagDirty uint8 = 1 << iota
	flagPrefetched
)

// Cache is one set-associative cache level. Lines are stored as
// structure-of-arrays, indexed set*Ways+way: a lookup scans one dense
// run of tags, and LRU victim selection one dense run of lastUse stamps.
type Cache struct {
	cfg   Config
	nsets int
	gen   uint64
	tick  uint64
	stats Stats

	sets    []setState
	tags    []int64
	lastUse []uint64
	flags   []uint8

	// Shift/mask forms of the block and set arithmetic, valid when both
	// BlockBytes and the set count are powers of two (every modeled
	// configuration). The generic divide path remains for odd geometries.
	pow2       bool
	blockShift uint
	blockMask  int64 // BlockBytes-1
	setShift   uint
	setMask    int64 // nsets-1

	// scratch backs the traffic list Access returns, so the steady-state
	// access path performs zero heap allocations. It is overwritten by
	// the next Access call.
	scratch RunResult
}

// Validate checks that the geometry holds at least one full set.
func (cfg Config) Validate() error {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return fmt.Errorf("cache: size, ways and block bytes must be positive, got %d B, %d ways, %d B blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
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
		cfg: cfg, nsets: nsets, gen: 1,
		sets:    make([]setState, nsets),
		tags:    make([]int64, lines),
		lastUse: make([]uint64, lines),
		flags:   make([]uint8, lines),
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
	c.tick = 0
	c.stats = Stats{}
}

// Flush invalidates the whole cache, returning the block addresses of all
// dirty lines (which a memory system must write back).
func (c *Cache) Flush() []int64 {
	var wbs []int64
	for si := range c.sets {
		for i := si * c.cfg.Ways; i < si*c.cfg.Ways+c.valid(si); i++ {
			if c.flags[i]&flagDirty != 0 {
				wbs = append(wbs, c.blockAddr(si, c.tags[i]))
				c.stats.DirtyEvictions++
			}
		}
	}
	c.gen++
	return wbs
}

// valid returns how many ways of set hold live lines (a prefix).
func (c *Cache) valid(set int) int {
	if st := c.sets[set]; st.gen == c.gen {
		return st.n
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
	if i := c.lookup(set, tag); i >= 0 {
		c.stats.Hits++
		c.touch(i, write)
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

// touch records a demand hit on line i: the LRU stamp moves to the
// current tick, a write dirties the line, and the first demand use of a
// prefetched line counts as a prefetch hit.
func (c *Cache) touch(i int, write bool) {
	f := c.flags[i]
	if f&flagPrefetched != 0 {
		c.stats.PrefetchHits++
		f &^= flagPrefetched
	}
	if write {
		f |= flagDirty
	}
	c.flags[i] = f
	c.lastUse[i] = c.tick
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
			if i := c.lookup(set, tag); i >= 0 {
				// The block survived its own prefetches (always, outside
				// pathologically tiny configurations): the remaining k-1
				// accesses are hits. Batch their bookkeeping; the final
				// lastUse/dirty state equals k-1 individual hit updates.
				m := uint64(k - 1)
				c.tick += m
				c.stats.Accesses += m
				c.stats.Hits += m
				res.Hits += m
				c.touch(i, write)
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
	i := c.lookup(set, tag)
	if i < 0 {
		return false
	}
	m := uint64(count)
	c.tick += m
	c.stats.Accesses += m
	c.stats.Hits += m
	c.touch(i, write)
	return true
}

// lookup returns the line index holding (set, tag), or -1, updating
// nothing.
func (c *Cache) lookup(set int, tag int64) int {
	base := set * c.cfg.Ways
	for i, t := range c.tags[base : base+c.valid(set)] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// insert allocates a line for (set, tag): the first invalid way, else
// the least recently used one (the lowest way on ties). It returns the
// writeback block address if the victim was dirty.
func (c *Cache) insert(set int, tag int64, dirty, prefetched bool) (writeback int64, dirtyEvict bool) {
	base := set * c.cfg.Ways
	st := &c.sets[set]
	if st.gen != c.gen {
		st.gen, st.n = c.gen, 0
	}
	var v int
	if st.n < c.cfg.Ways {
		v = base + st.n
		st.n++
	} else {
		lru := c.lastUse[base : base+c.cfg.Ways]
		w := 0
		for i, t := range lru {
			if t < lru[w] {
				w = i
			}
		}
		v = base + w
		if c.flags[v]&flagDirty != 0 {
			writeback = c.blockAddr(set, c.tags[v])
			dirtyEvict = true
			c.stats.DirtyEvictions++
		}
	}
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if prefetched {
		f |= flagPrefetched
	}
	c.tags[v], c.lastUse[v], c.flags[v] = tag, c.tick, f
	return writeback, dirtyEvict
}
