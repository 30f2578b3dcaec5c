package engine

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

// The host-core memory path runs in two stages (DESIGN.md §8).
//
//   - Stage 1, the operator's goroutine, runs the operator loop and each
//     unit's private TLB and L1 walk. Every request that reaches the LLC
//     — demand fetches, prefetches, writebacks, page walks and L2-TLB
//     stalls — is appended, in program order, to a ring of fixed-size
//     record batches.
//   - Stage 2, the llcStage, retires the records in that same order. It
//     alone owns the LLC, the host mesh, the SerDes links, the cube meshes
//     and the vault DRAM until the ring is drained, and it sums each
//     unit's stall into a slot of its own.
//
// One in-order consumer replays exactly the sequence of shared-state
// updates the serial walk made, and each unit's stall is summed in issue
// order, so every simulated number is byte-identical to the serial walk.
// When the engine's resolved Parallelism is at least 2, stage 2 runs on a
// goroutine of its own between BeginStep and EndStep; otherwise (and
// outside steps) the producer retires each full batch itself through the
// same record code. Every reader of the shared state drains the ring
// first (drainLLC).

// Record kinds beyond the cache's own traffic kinds: a page walk (two
// page-table reads whose summed latency stalls the unit) and an L2-TLB hit
// (a constant stall).
const (
	recWalk cache.RunOpKind = cache.RunWriteback + 1 + iota
	recTLB2
)

// tlbL2HitNs is the stall of an L2-TLB hit: ~4 cycles at 2 GHz.
const tlbL2HitNs = 2

// llcRec is one LLC-bound request. It carries everything stage 2 needs,
// so the consumer never reads Unit state the producer is writing.
type llcRec struct {
	addr int64
	unit uint32
	tile uint16
	kind cache.RunOpKind
}

// Ring geometry: 16 batches of 1024 16-byte records (256 KB per host-core
// engine). Batches amortize the handoff; the ring lets the producer run
// ahead of the consumer by up to 15 full batches.
const (
	batchRecs = 1024
	ringSlots = 16
)

// Spin budgets before blocking (producer) or exiting (idle consumer).
// Each spin yields the processor, so a spinning stage never starves the
// other on a single-core host.
const (
	waitSpins = 64
	idleSpins = 64
)

type llcBatch struct {
	n    int
	recs [batchRecs]llcRec
}

// stallSlot is one unit's consumer-owned stall sum, padded to its own
// cache line so the consumer's adds never share a line with producer
// state.
type stallSlot struct {
	ns float64
	_  [56]byte
}

// cacheLinePad separates the producer-written and consumer-written
// indices.
type cacheLinePad [64]byte

type llcStage struct {
	e        *Engine
	block    int     // L1 block size: the granularity of L1 traffic
	llcHitNs float64 // LLC hit latency

	// Producer state (stage 1).
	cur   *llcBatch // the batch being filled: ring[head%ringSlots]
	async bool      // a consumer goroutine retires published batches

	_    cacheLinePad
	head atomic.Uint64 // batches published
	_    cacheLinePad
	tail atomic.Uint64 // batches retired
	_    cacheLinePad

	running atomic.Bool // a consumer goroutine is live
	waiting atomic.Bool // the producer is blocked on wake
	failed  atomic.Bool // the consumer panicked; failure holds the value
	failure *PanicError
	wake    chan struct{}
	consume func() // s.run, bound once so starting a consumer allocates nothing

	stall []stallSlot // per-unit stall sums, written only by stage 2
	ring  [ringSlots]llcBatch
}

// llcStage returns the engine's LLC stage, building it on first use (the
// first step or LLC-bound request, never in New).
func (e *Engine) llcStage() *llcStage {
	if e.llcq == nil {
		e.newLLCStage()
	}
	return e.llcq
}

func (e *Engine) newLLCStage() {
	s := &llcStage{
		e:        e,
		block:    e.cfg.L1.BlockBytes,
		llcHitNs: e.llc.Config().HitLatencyNs,
		wake:     make(chan struct{}, 1),
		stall:    make([]stallSlot, len(e.units)),
	}
	s.cur = &s.ring[0]
	s.consume = s.run
	e.llcq = s
}

// drainLLC retires every pending LLC request. Every reader of the LLC,
// the meshes, the links or the DRAM calls it first.
func (e *Engine) drainLLC() {
	if e.llcq != nil {
		e.llcq.drain()
	}
}

// push appends one request to the ring (stage 1).
func (s *llcStage) push(u *Unit, addr int64, kind cache.RunOpKind) {
	b := s.cur
	b.recs[b.n] = llcRec{addr: addr, unit: uint32(u.ID), tile: uint16(u.tile), kind: kind}
	b.n++
	if b.n == batchRecs {
		s.publish()
	}
}

// publish hands the current batch to stage 2 — the consumer goroutine, or
// the producer itself when the stage is inline — and opens the next one.
func (s *llcStage) publish() {
	if !s.async {
		s.retire(s.cur)
		s.cur.n = 0
		return
	}
	h := s.head.Add(1)
	if !s.running.Load() && !s.failed.Load() && s.running.CompareAndSwap(false, true) {
		go s.consume()
	}
	if h-s.tail.Load() >= ringSlots {
		// The ring is full: wait until half of it is free, so producer
		// and consumer hand off every ringSlots/2 batches rather than
		// waking each other on every batch.
		s.waitTail(h - ringSlots/2)
	}
	s.cur = &s.ring[h%ringSlots]
	s.cur.n = 0
}

// drain retires every pushed request and re-raises a consumer panic.
func (s *llcStage) drain() {
	if s.cur.n > 0 {
		s.publish()
	}
	if s.async {
		s.waitTail(s.head.Load())
	}
	s.raise()
}

// beginStep drains the ring, clears the stall sums, and chooses whether
// stage 2 runs on its own goroutine for the step.
func (s *llcStage) beginStep(async bool) {
	s.park()
	for i := range s.stall {
		s.stall[i].ns = 0
	}
	s.async = async
}

// park drains the ring and waits for the consumer goroutine to exit, so
// none outlives the step.
func (s *llcStage) park() {
	s.drain()
	if s.async {
		s.async = false
		s.waitStopped()
	}
}

// waitTail blocks until at least min batches are retired: a few yielding
// spins, then a sleep on wake.
func (s *llcStage) waitTail(min uint64) {
	for i := 0; s.tail.Load() < min; i++ {
		s.raise()
		if i < waitSpins {
			runtime.Gosched()
			continue
		}
		s.waiting.Store(true)
		if s.tail.Load() < min && !s.failed.Load() {
			<-s.wake
		}
		s.waiting.Store(false)
	}
}

// waitStopped blocks until the consumer goroutine has exited.
func (s *llcStage) waitStopped() {
	for i := 0; s.running.Load(); i++ {
		if i < waitSpins {
			runtime.Gosched()
			continue
		}
		s.waiting.Store(true)
		if s.running.Load() {
			<-s.wake
		}
		s.waiting.Store(false)
	}
}

// raise re-panics a consumer panic on the producer's goroutine as a
// *PanicError carrying the consumer's stack, after resetting the stage to
// empty (the unretired requests are dropped with the failed run).
func (s *llcStage) raise() {
	if !s.failed.Load() {
		return
	}
	s.waitStopped()
	err := s.failure
	s.failure = nil
	s.async = false
	s.head.Store(0)
	s.tail.Store(0)
	s.cur = &s.ring[0]
	s.cur.n = 0
	s.failed.Store(false)
	panic(err)
}

// signal wakes a blocked producer (a no-op if a wakeup is already queued).
func (s *llcStage) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the consumer goroutine: it retires published batches in order
// and exits once the ring stays empty.
func (s *llcStage) run() {
	defer s.recoverConsumer()
	for {
		t := s.tail.Load()
		if s.head.Load() == t && !s.idle(t) {
			return
		}
		s.retire(&s.ring[t%ringSlots])
		s.tail.Store(t + 1)
		if s.waiting.Load() {
			s.signal()
		}
	}
}

// idle spins briefly for batch t to be published. It reports false when
// the ring stayed empty and the consumer should exit. Exiting clears
// running first and then re-checks the ring, so a batch published in
// between is never stranded: either this consumer sees it and re-claims
// running, or the producer's publish saw running clear and started a new
// consumer.
func (s *llcStage) idle(t uint64) bool {
	for i := 0; i < idleSpins; i++ {
		runtime.Gosched()
		if s.head.Load() != t {
			return true
		}
	}
	s.running.Store(false)
	if s.head.Load() != t && s.running.CompareAndSwap(false, true) {
		return true
	}
	s.signal()
	return false
}

// recoverConsumer turns a consumer panic into a failure the producer
// re-raises at its next wait or drain.
func (s *llcStage) recoverConsumer() {
	r := recover()
	if r == nil {
		return
	}
	s.failure = &PanicError{Value: r, Stack: debug.Stack()}
	s.failed.Store(true)
	s.running.Store(false)
	s.signal()
}

// retire is the record code of stage 2: it walks one batch through the
// LLC and below, in order.
func (s *llcStage) retire(b *llcBatch) {
	for _, r := range b.recs[:b.n] {
		tile := int(r.tile)
		switch r.kind {
		case cache.RunFetchDemand:
			// Only the demand block stalls; prefetches overlap.
			s.stall[r.unit].ns += s.fetch(tile, r.addr, s.block)
		case cache.RunFetchPrefetch:
			s.fetch(tile, r.addr, s.block)
		case cache.RunWriteback:
			s.writeback(tile, r.addr, s.block)
		case recWalk:
			s.stall[r.unit].ns += s.walk(tile, r.addr)
		case recTLB2:
			s.stall[r.unit].ns += tlbL2HitNs
		}
	}
}

// walk performs a TLB-miss page walk for addr and returns its latency:
// the last two levels of a radix page table are real memory reads through
// the cache hierarchy (the top levels stay cached and are not charged).
// Page tables live in a reserved tail of the owning vault, so walk
// traffic shares DRAM banks with the data; PMD entries cover 512 pages.
func (s *llcStage) walk(tile int, addr int64) float64 {
	v := s.e.Sys.VaultOf(addr)
	page := (addr - v.Base) / pageBytes
	reserved := v.Size / 16
	pmd := v.Base + v.Size - reserved + (page/512*8)%(reserved/2)
	pte := v.Base + v.Size - reserved/2 + (page*8)%(reserved/2)
	lat := s.fetch(tile, pmd/64*64, 64)
	lat += s.fetch(tile, pte/64*64, 64)
	return lat
}

// fetch brings one block from the LLC (or DRAM below it) to the core on
// the given tile and returns the latency.
func (s *llcStage) fetch(tile int, addr int64, block int) float64 {
	e := s.e
	lat := e.mesh.Transfer(tile, e.nucaBank(addr, block), block) // block-interleaved NUCA
	ops := e.llc.Access(addr, false)
	lat += s.llcHitNs
	for _, op := range ops {
		if op.Kind == cache.RunWriteback {
			s.spill(op.Addr, block)
			continue
		}
		v := e.Sys.VaultOf(op.Addr)
		l := e.Sys.Net.Transfer(noc.CPUNode, v.Cube, block) // request+data crossing
		l += e.Sys.Cubes[v.Cube].Mesh.Transfer(0, v.Tile, block)
		l += v.Read(op.Addr, block)
		lat += l
	}
	return lat
}

// writeback spills one dirty L1 block into the LLC. A write miss
// allocates without charging the fill; only the LLC's own dirty victims
// travel on to DRAM.
func (s *llcStage) writeback(tile int, addr int64, block int) {
	e := s.e
	e.mesh.Transfer(tile, e.nucaBank(addr, block), block)
	for _, op := range e.llc.Access(addr, true) {
		if op.Kind == cache.RunWriteback {
			s.spill(op.Addr, block)
		}
	}
}

// spill writes one dirty LLC victim back to its vault.
func (s *llcStage) spill(addr int64, block int) {
	e := s.e
	v := e.Sys.VaultOf(addr)
	e.Sys.Net.Transfer(noc.CPUNode, v.Cube, block)
	e.Sys.Cubes[v.Cube].Mesh.Transfer(0, v.Tile, block)
	v.Write(addr, block)
}
