package engine

import (
	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

// memPath is one memory-path implementation: the architecture-specific
// half of Unit's access machinery. Unit.access/accessRun handle the
// common bookkeeping (tracing, access tallies, the bulk-eligibility
// fallback) and delegate the actual walk to the unit's path, so the hot
// paths carry no architecture switches.
type memPath interface {
	// access walks one demand access of size bytes through the path.
	access(u *Unit, addr int64, size int, write bool)
	// accessRun retires a bulk run the path proved runnable: count
	// elements of stride bytes, with accounting byte-identical to count
	// access calls.
	accessRun(u *Unit, addr int64, stride, count int, write bool)
	// runnable reports whether the bulk path can retire this run with
	// provably identical accounting (see the per-path doc comments).
	runnable(u *Unit, addr int64, stride, count int) bool
	// route charges the interconnect between the unit and a vault and
	// returns the one-way latency.
	route(u *Unit, dst *hmc.Vault, size int) float64
}

// memPathOf picks the memory path an architecture's units access through.
func memPathOf(a Arch) memPath {
	switch a {
	case CPU:
		return cpuPath{}
	case NMP:
		return cachedVaultPath{}
	default:
		return streamPath{}
	}
}

// --- cpuPath: TLB → L1 → NUCA mesh → LLC → SerDes → vault ---------------

// cpuPath is the host-processor hierarchy: every access translates
// through the TLBs, walks the private L1, and misses into the shared
// NUCA LLC across the chip mesh; LLC misses cross the star SerDes into
// the owning cube.
type cpuPath struct{}

func (cpuPath) access(u *Unit, addr int64, size int, write bool) {
	block := int64(u.L1.BlockBytes())
	end := addr + int64(size)
	for a := u.L1.BlockBase(addr); a < end; a += block {
		u.cpuBlockAccess(a, write)
	}
}

func (cpuPath) accessRun(u *Unit, addr int64, stride, count int, write bool) {
	u.cpuRunAccess(addr, stride, count, write)
}

// runnable: elements must not straddle cache blocks or DRAM rows
// (stride-aligned, power-of-two-dividing strides).
func (cpuPath) runnable(u *Unit, addr int64, stride, count int) bool {
	return u.cachedRunnable(addr, stride)
}

// route returns a latency to its caller, so it cannot be deferred into
// the LLC stage: it drains the stage and charges the links directly.
func (cpuPath) route(u *Unit, dst *hmc.Vault, size int) float64 {
	e := u.engine
	e.drainLLC()
	lat := e.Sys.Net.Transfer(noc.CPUNode, dst.Cube, size)
	return lat + e.Sys.Cubes[dst.Cube].Mesh.Transfer(0, dst.Tile, size)
}

// --- cachedVaultPath: L1 → home/remote vault ----------------------------

// cachedVaultPath is the cache-backed near-memory core: accesses walk
// the per-unit L1 and miss straight into the fabric (home vault free,
// remote vaults across the logic-layer mesh and SerDes).
type cachedVaultPath struct{}

func (cachedVaultPath) access(u *Unit, addr int64, size int, write bool) {
	block := int64(u.L1.BlockBytes())
	end := addr + int64(size)
	for a := u.L1.BlockBase(addr); a < end; a += block {
		u.nmpBlockAccess(a, write)
	}
}

func (cachedVaultPath) accessRun(u *Unit, addr int64, stride, count int, write bool) {
	u.nmpRunAccess(addr, stride, count, write)
}

// runnable: same block/row alignment condition as the CPU path — the L1
// batches same-block hits and the miss list replays per-element.
func (cachedVaultPath) runnable(u *Unit, addr int64, stride, count int) bool {
	return u.cachedRunnable(addr, stride)
}

func (cachedVaultPath) route(u *Unit, dst *hmc.Vault, size int) float64 {
	return u.vaultRoute(dst, size)
}

// --- streamPath: cacheless direct vault access --------------------------

// streamPath is the cacheless Mondrian unit: every access goes straight
// at the owning vault (reads that must not stall flow through the stream
// buffers instead — streams.go).
type streamPath struct{}

func (streamPath) access(u *Unit, addr int64, size int, write bool) {
	lat := u.directAccess(addr, size, write)
	if !write {
		u.stallRawNs += lat
	}
}

// accessRun: cacheless unit, local vault — the route adds zero latency,
// so each element's stall is exactly its DRAM latency.
func (streamPath) accessRun(u *Unit, addr int64, stride, count int, write bool) {
	if write {
		u.Vault.WriteRun(addr, stride, count)
	} else {
		u.Vault.ReadRun(addr, stride, count, &u.stallRawNs)
	}
}

// runnable: elements must not straddle DRAM rows, and the run must stay
// inside the home vault so route latency is uniformly zero.
func (streamPath) runnable(u *Unit, addr int64, stride, count int) bool {
	row := int64(u.engine.cfg.Geometry.RowBytes)
	if row%int64(stride) != 0 || addr%int64(stride) != 0 {
		return false
	}
	last := addr + int64(stride)*int64(count) - 1
	return u.Vault != nil && u.Vault.Contains(addr) && u.Vault.Contains(last)
}

func (streamPath) route(u *Unit, dst *hmc.Vault, size int) float64 {
	return u.vaultRoute(dst, size)
}

// --- shared walk helpers ------------------------------------------------

// cachedRunnable is the bulk-eligibility condition shared by the cached
// paths: elements must not straddle cache blocks or DRAM rows.
func (u *Unit) cachedRunnable(addr int64, stride int) bool {
	block := int64(u.L1.BlockBytes())
	if block%int64(stride) != 0 || addr%int64(stride) != 0 {
		return false
	}
	row := int64(u.engine.cfg.Geometry.RowBytes)
	return row%int64(stride) == 0
}

// vaultRoute charges the interconnect between a vault-resident unit and
// a destination vault: free at home, across the logic-layer mesh within
// a cube, and over the SerDes between cubes.
func (u *Unit) vaultRoute(dst *hmc.Vault, size int) float64 {
	e := u.engine
	src := u.Vault
	if src == dst {
		return 0
	}
	if src.Cube == dst.Cube {
		return e.Sys.Cubes[src.Cube].Mesh.Transfer(src.Tile, dst.Tile, size)
	}
	lat := e.Sys.Cubes[src.Cube].Mesh.Transfer(src.Tile, 0, size)
	lat += e.Sys.Net.Transfer(src.Cube, dst.Cube, size)
	lat += e.Sys.Cubes[dst.Cube].Mesh.Transfer(0, dst.Tile, size)
	return lat
}

// cpuRunAccess retires a sequential run on a CPU core: per page, one full
// TLB lookup plus batched TLB hits (the first lookup installs the entry);
// per L1 block, the cache's own bulk walk; the miss traffic list goes to
// the LLC stage exactly as the per-element path sends it.
func (u *Unit) cpuRunAccess(addr int64, stride, count int, write bool) {
	for count > 0 {
		k := pageRun(addr, stride, count)
		u.tlbLookup(addr)
		if k > 1 && !u.tlbL1.AccessHitRun(addr+int64(stride), k-1, false) {
			// The first lookup always installs the page's entry; this
			// branch only runs on pathological TLB geometries.
			for i := 1; i < k; i++ {
				u.tlbLookup(addr + int64(i)*int64(stride))
			}
		}
		u.L1.AccessRun(addr, stride, k, write, &u.runRes)
		u.toLLC(u.runRes.Ops)
		addr += int64(k) * int64(stride)
		count -= k
	}
}

// nmpRunAccess retires a sequential run on a cache-backed vault unit: the
// L1 batches same-block hits, and the miss traffic list replays through
// the fabric in the per-element order. The run retires one page at a time,
// as on the CPU, so the unit's traffic list stays bounded by one page of
// blocks however long the run; the L1 never reads fabric state, so the
// fabric sees the same traffic in the same order.
func (u *Unit) nmpRunAccess(addr int64, stride, count int, write bool) {
	for count > 0 {
		k := pageRun(addr, stride, count)
		u.L1.AccessRun(addr, stride, k, write, &u.runRes)
		u.toFabric(u.runRes.Ops, write)
		addr += int64(k) * int64(stride)
		count -= k
	}
}

// pageRun returns how many of a run's count elements of stride bytes,
// starting at addr, lie in addr's page.
func pageRun(addr int64, stride, count int) int {
	pageEnd := (addr/pageBytes + 1) * pageBytes
	return min(int((pageEnd-addr+int64(stride)-1)/int64(stride)), count)
}

// pageBytes is the virtual-memory page size the CPU's TLBs cover.
const pageBytes = 4096

// tlbLookup translates one address. An L1-TLB hit is free, an L2-TLB hit
// costs a couple of cycles, and a full miss performs a page walk: real
// memory reads of the page-table entries through the cache hierarchy
// (llcStage.walk). Both stalls are charged by the LLC stage, in order
// with the unit's other LLC traffic.
func (u *Unit) tlbLookup(addr int64) {
	if len(u.tlbL1.Access(addr, false)) == 0 {
		return
	}
	if len(u.tlbL2.Access(addr, false)) == 0 {
		u.engine.llcStage().push(u, addr, recTLB2)
		return
	}
	u.engine.llcStage().push(u, addr, recWalk)
}

// cpuBlockAccess walks one block through the TLB and the private L1 and
// hands the L1's miss traffic to the LLC stage (LLC → star network →
// vault).
func (u *Unit) cpuBlockAccess(addr int64, write bool) {
	u.tlbLookup(addr)
	u.toLLC(u.L1.Access(addr, write))
}

// toLLC hands an L1 traffic list to the LLC stage in order: the demand
// fetch stalls the core, prefetches overlap, writebacks spill.
func (u *Unit) toLLC(ops []cache.RunOp) {
	q := u.engine.llcStage()
	for _, op := range ops {
		q.push(u, op.Addr, op.Kind)
	}
}

// nucaBank hashes a block address onto an LLC tile (block-interleaved
// NUCA), in shift/mask form when the block size matches the precomputed
// power-of-two geometry.
func (e *Engine) nucaBank(addr int64, block int) int {
	if e.nucaShift > 0 && block == 1<<e.nucaShift {
		return int((addr >> e.nucaShift) & e.nucaMask)
	}
	return int(addr/int64(block)) % e.mesh.Tiles()
}

// nmpBlockAccess walks one block through the per-vault L1 and the fabric.
func (u *Unit) nmpBlockAccess(addr int64, write bool) {
	u.toFabric(u.L1.Access(addr, write), write)
}

// toFabric replays an L1 traffic list through the fabric: the demand
// fetch stalls a load (stores are fire-and-forget), prefetches and
// writebacks only occupy bandwidth.
func (u *Unit) toFabric(ops []cache.RunOp, write bool) {
	block := u.L1.BlockBytes()
	for _, op := range ops {
		switch op.Kind {
		case cache.RunFetchDemand:
			lat := u.directAccess(op.Addr, block, false)
			if !write {
				u.stallRawNs += lat
			}
		case cache.RunFetchPrefetch:
			u.directAccess(op.Addr, block, false)
		case cache.RunWriteback:
			u.directAccess(op.Addr, block, true)
		}
	}
}

// directAccess reaches the owning vault through mesh/SerDes as needed and
// returns the one-way latency (request-to-data).
func (u *Unit) directAccess(addr int64, size int, write bool) float64 {
	e := u.engine
	dst := e.Sys.VaultOf(addr)
	lat := u.routeLatency(dst, size)
	if write {
		return lat + dst.Write(addr, size)
	}
	return lat + dst.Read(addr, size)
}

// routeLatency charges the interconnect between this unit and a vault
// through the unit's memory path.
func (u *Unit) routeLatency(dst *hmc.Vault, size int) float64 {
	return u.path.route(u, dst, size)
}
