package engine

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Unit is one compute unit: a host core (host-core specs) or the
// per-vault logic-layer core (vault-resident specs). Operators run on
// Units; every accessor both performs the functional operation on tuples
// and routes the memory traffic through the unit's memory path (mempath.go)
// so that DRAM row behaviour, interconnect occupancy and core stalls
// accumulate. The accessors below carry only the path-independent
// bookkeeping — the architecture-specific walks live behind the memPath
// interface.
type Unit struct {
	ID     int
	engine *Engine
	path   memPath

	Vault   *hmc.Vault // home vault (nil for host cores)
	L1      *cache.Cache
	Streams *hmc.StreamBufferSet
	ObjBuf  *hmc.ObjectBuffer

	tile int // chip-mesh tile (host cores only)

	// Host cores translate virtual addresses; the vault-resident units
	// access their vaults physically (§5.1), so only host cores carry
	// TLBs. Random access over working sets far beyond TLB reach adds
	// page-walk memory accesses — a first-class cost in full-system
	// simulation.
	tlbL1, tlbL2 *cache.Cache

	// Per-step accounting (reset by BeginStep).
	insts      float64
	stallRawNs float64
	accesses   uint64

	// Run accounting.
	busyNs      float64
	instTotal   float64
	accessTotal uint64 // accesses folded in at each EndStep

	// Trace buffering during parallel sections (parallel.go): events are
	// collected per unit and replayed in unit-ID order at the join.
	buffering bool
	traceBuf  []traceEvent

	// runRes is the reusable tally for bulk cache runs (accessRun).
	runRes cache.RunResult

	// group is the reusable stream group (StreamGroup).
	group StreamGroup
}

// Bulk reports whether the batched run-based fast path is enabled for
// this unit's engine (see Config.NoBulk). Operators consult it to pick
// between their run-based loops and the per-tuple reference loops.
func (u *Unit) Bulk() bool { return !u.engine.cfg.NoBulk }

// Charge adds retired instructions to the unit's current step. The
// operator cost model (internal/operators) decides the amounts; SIMD
// execution charges fewer instructions per tuple.
func (u *Unit) Charge(insts float64) {
	if insts < 0 {
		panic("engine: negative instruction charge")
	}
	u.insts += insts
	u.instTotal += insts
}

// Instructions returns the instructions charged in the current step.
func (u *Unit) Instructions() float64 { return u.insts }

// ChargeRun adds n per-tuple instruction charges — the same accumulation,
// in the same order, as n Charge(insts) calls (the addends are identical,
// so the float sums agree bit-for-bit).
func (u *Unit) ChargeRun(insts float64, n int) {
	if insts < 0 {
		panic("engine: negative instruction charge")
	}
	for i := 0; i < n; i++ {
		u.insts += insts
		u.instTotal += insts
	}
}

// --- demand access paths -------------------------------------------------

// ReadBytes performs a demand read. Cache hits are free (their latency is
// folded into the dependency IPC); misses charge the full path latency as
// raw stall, which EndStep divides by the core's sustainable MLP.
func (u *Unit) ReadBytes(addr int64, size int) {
	u.access(addr, size, false)
}

// WriteBytes performs a demand write. On the CPU the write-allocate cache
// fetches the block (read-for-ownership) and the miss stalls the store
// pipeline; on the NMP architectures stores are fire-and-forget (no
// coherence, store buffers) and only occupy DRAM/link bandwidth.
func (u *Unit) WriteBytes(addr int64, size int) {
	u.access(addr, size, true)
}

// ReadRunBytes performs count sequential demand reads of stride bytes
// each, starting at addr — accounting byte-identical to count ReadBytes
// calls, but retired with one walk over the touched cache blocks (or DRAM
// rows) instead of one full traversal per element.
func (u *Unit) ReadRunBytes(addr int64, stride, count int) {
	u.accessRun(addr, stride, count, false)
}

// WriteRunBytes is the write-side counterpart of ReadRunBytes.
func (u *Unit) WriteRunBytes(addr int64, stride, count int) {
	u.accessRun(addr, stride, count, true)
}

func (u *Unit) access(addr int64, size int, write bool) {
	if size <= 0 {
		panic("engine: access size must be positive")
	}
	u.accesses++
	u.trace(TraceDemand, addr, size, write)
	u.path.access(u, addr, size, write)
}

// accessRun is the bulk demand path: one trace record, one accesses tally,
// and one walk over the run's cache blocks / DRAM rows for count elements.
// Shapes the unit's memory path cannot prove equivalent — unaligned
// strides, runs leaving the unit's home vault, NoBulk mode — fall back to
// per-element access calls, which are the reference semantics by
// definition.
func (u *Unit) accessRun(addr int64, stride, count int, write bool) {
	if count <= 0 {
		return
	}
	if stride <= 0 {
		panic("engine: access size must be positive")
	}
	if count == 1 || u.engine.cfg.NoBulk || !u.path.runnable(u, addr, stride, count) {
		for i := 0; i < count; i++ {
			u.access(addr+int64(i)*int64(stride), stride, write)
		}
		return
	}
	u.accesses += uint64(count)
	u.traceRun(TraceDemand, addr, stride, stride, count, write)
	u.path.accessRun(u, addr, stride, count, write)
}

// --- tuple-level accessors ------------------------------------------------

// LoadTuple reads tuple idx of region r.
func (u *Unit) LoadTuple(r *Region, idx int) tuple.Tuple {
	if idx < 0 || idx >= len(r.Tuples) {
		panic(fmt.Sprintf("engine: load index %d outside region of %d", idx, len(r.Tuples)))
	}
	u.ReadBytes(r.addrOf(idx), tuple.Size)
	return r.Tuples[idx]
}

// StoreTuple writes tuple idx of region r in place (growing as needed).
func (u *Unit) StoreTuple(r *Region, idx int, t tuple.Tuple) {
	if idx < 0 || idx >= r.cap {
		panic(fmt.Sprintf("engine: store index %d outside capacity %d", idx, r.cap))
	}
	ensureLen(r, idx+1)
	r.Tuples[idx] = t
	u.WriteBytes(r.addrOf(idx), tuple.Size)
}

// AppendLocal appends a tuple to a region in the unit's own vault
// (sequential output writes of probe-phase algorithms).
func (u *Unit) AppendLocal(r *Region, t tuple.Tuple) {
	if len(r.Tuples) >= r.cap {
		panic("engine: append past region capacity")
	}
	idx := len(r.Tuples)
	r.Tuples = append(r.Tuples, t)
	u.WriteBytes(r.addrOf(idx), tuple.Size)
}

// LoadRun reads tuples [start, start+n) of region r as one sequential run
// and returns them (a view into the region's backing store — callers must
// not mutate it). Accounting is byte-identical to n LoadTuple calls.
func (u *Unit) LoadRun(r *Region, start, n int) []tuple.Tuple {
	if n == 0 {
		return nil
	}
	if start < 0 || n < 0 || start+n > len(r.Tuples) {
		panic(fmt.Sprintf("engine: load run [%d,+%d) outside region of %d", start, n, len(r.Tuples)))
	}
	u.ReadRunBytes(r.addrOf(start), tuple.Size, n)
	return r.Tuples[start : start+n]
}

// StoreRun writes ts into region r at start as one sequential run —
// accounting byte-identical to len(ts) StoreTuple calls.
func (u *Unit) StoreRun(r *Region, start int, ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	if start < 0 || start+len(ts) > r.cap {
		panic(fmt.Sprintf("engine: store run [%d,+%d) outside capacity %d", start, len(ts), r.cap))
	}
	ensureLen(r, start+len(ts))
	copy(r.Tuples[start:], ts)
	u.WriteRunBytes(r.addrOf(start), tuple.Size, len(ts))
}

// AppendRunLocal appends ts to a region in the unit's own vault as one
// sequential run — accounting byte-identical to len(ts) AppendLocal calls.
func (u *Unit) AppendRunLocal(r *Region, ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	if len(r.Tuples)+len(ts) > r.cap {
		panic("engine: append past region capacity")
	}
	idx := len(r.Tuples)
	r.Tuples = append(r.Tuples, ts...)
	u.WriteRunBytes(r.addrOf(idx), tuple.Size, len(ts))
}

// ChargeAppendsLocal charges tuples [start, r.Len()) of a region in the
// unit's own vault, which the caller appended to r.Tuples itself, as one
// sequential write run: the accounting of AppendRunLocal without staging
// the tuples in a second buffer.
func (u *Unit) ChargeAppendsLocal(r *Region, start int) {
	if len(r.Tuples) > r.cap {
		panic("engine: append past region capacity")
	}
	u.WriteRunBytes(r.addrOf(start), tuple.Size, len(r.Tuples)-start)
}

// ensureLen extends r.Tuples to n zero tuples in one step. Storage that
// must grow at least doubles, as append would, but never past the
// region's capacity.
func ensureLen(r *Region, n int) {
	old := len(r.Tuples)
	if n <= old {
		return
	}
	if n > cap(r.Tuples) {
		c := max(n, min(2*cap(r.Tuples), r.cap))
		grown := make([]tuple.Tuple, old, c)
		copy(grown, r.Tuples)
		r.Tuples = grown
	}
	r.Tuples = r.Tuples[:n]
	clear(r.Tuples[old:])
}

// --- shuffle (partitioning-phase data distribution) -----------------------

// SendAt ships a tuple to an exact slot of a (typically remote) region —
// the conventional, address-preserving distribution used by the CPU, the
// NMP baseline and Mondrian-noperm. The destination vault sees writes in
// arrival order, which interleaving across sources turns into random row
// traffic (paper Fig. 2).
func (u *Unit) SendAt(dst *Region, idx int, t tuple.Tuple) {
	if idx < 0 || idx >= dst.cap {
		panic(fmt.Sprintf("engine: send index %d outside capacity %d", idx, dst.cap))
	}
	ensureLen(dst, idx+1)
	dst.Tuples[idx] = t
	if u.path.demandShuffle() {
		// Host-core stores go through the cache hierarchy.
		u.WriteBytes(dst.addrOf(idx), tuple.Size)
		return
	}
	addr := dst.addrOf(idx)
	u.trace(TraceShuffle, addr, tuple.Size, true)
	u.routeLatency(dst.Vault, tuple.Size)
	dst.Vault.Write(addr, tuple.Size)
	dst.Vault.RecordInbound(tuple.Size)
}

// SendPermutable ships a tuple as a permutable store: the message drains
// through the unit's object buffer, crosses the network, and the receiving
// vault controller appends it sequentially into its armed permutable
// region. The tuple's final position is chosen by hardware.
func (u *Unit) SendPermutable(dst *Region, t tuple.Tuple) error {
	if u.ObjBuf == nil {
		return fmt.Errorf("engine: unit %d has no object buffer (permutability disabled)", u.ID)
	}
	if len(dst.Tuples) >= dst.cap {
		return fmt.Errorf("%w: region in vault %d full", hmc.ErrRegionOverflow, dst.Vault.ID)
	}
	// The object buffer drains one object-sized message per completed
	// object (§5.3); only drained messages cross the network.
	for flushes := u.ObjBuf.Push(tuple.Size); flushes > 0; flushes-- {
		u.routeLatency(dst.Vault, u.ObjBuf.ObjectSize())
	}
	target := dst.addrOf(len(dst.Tuples)) // any in-region address; hardware re-places
	placed, _, err := dst.Vault.PermutableWrite(target, tuple.Size)
	if err != nil {
		return err
	}
	u.trace(TracePermuted, placed, tuple.Size, true)
	dst.Tuples = append(dst.Tuples, t) // arrival order IS the layout
	return nil
}
