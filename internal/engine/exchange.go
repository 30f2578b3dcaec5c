package engine

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// exchange is a shuffle's data distribution (the step between
// ShuffleBegin and shuffle_end, run by Distribute): the only way tuples
// move between vaults. The sources run concurrently, so cross-vault sends
// are staged and applied by their destinations:
//
//   - Stage A (parallel by source): each source unit reads its tuples,
//     charges its instructions, drains its object buffer, and appends the
//     tuple plus a per-source sequence number to a per-destination staging
//     list. Only source-owned state is touched.
//   - Stage B (parallel by destination): each destination vault gathers
//     its staged messages, sorts them by (sequence, source) — the arrival
//     interleave of sources that each send one tuple per round — and
//     applies the writes in that order. Only destination-owned state is
//     touched, so the paper's Fig. 2 row-buffer behaviour (interleaved
//     arrivals → random rows conventionally, sequential appends with
//     permutability) is reproduced bit-exactly at every worker count.
//   - Stage C (serial): interconnect statistics are applied in (source,
//     destination) order through the stateless RecordBulk paths. Senders
//     never consumed the per-message Transfer latency, so aggregating the
//     occupancy is exact.
//
// The arrival order at each destination is a pure function of the data,
// which makes the whole exchange — tuple layout, DRAM row traffic,
// link occupancy, traces — deterministic and identical at parallelism 1
// and N.
type exchange struct {
	e     *Engine
	dests []*Region
	perm  bool
	boxes []*Outbox
}

// exMsg is one staged tuple with its per-source send sequence number.
type exMsg struct {
	t   tuple.Tuple
	seq int32
}

// Outbox stages one source unit's outbound tuples. Each source owns its
// Outbox exclusively, so Send is safe in Distribute's parallel callback.
type Outbox struct {
	x      *exchange
	u      *Unit
	seq    int32
	perDst [][]exMsg // staged messages per destination vault
	netCnt []uint64  // network messages per destination (flushes or tuples)
	_      [56]byte  // pad to 128 B: sources send in parallel (DESIGN.md §8)
}

// newExchange prepares a staged exchange into the given per-vault
// destination regions (as returned by MallocPermutable). Permutability
// follows the engine configuration. perSource is the histogram the
// shuffle announced in ShuffleBegin: perSource[src][dst] tuples will be
// sent from src to dst, and each staging list is sized to its count.
func (e *Engine) newExchange(dests []*Region, perSource [][]int64) *exchange {
	if e.cfg.Arch == CPU {
		panic("engine: Distribute is for vault-resident units; host cores store through the cache hierarchy")
	}
	if len(dests) != e.NumVaults() {
		panic(fmt.Sprintf("engine: %d destination regions for %d vaults", len(dests), e.NumVaults()))
	}
	x := &exchange{e: e, dests: dests, perm: e.cfg.Permutable}
	total := 0
	for _, row := range perSource {
		for _, n := range row {
			total += int(n)
		}
	}
	// One array backs every staging list; full slice expressions keep a
	// list that outgrows its announced count from spilling into the next.
	backing := make([]exMsg, total)
	x.boxes = make([]*Outbox, len(e.units))
	for i, u := range e.units {
		box := &Outbox{
			x:      x,
			u:      u,
			perDst: make([][]exMsg, len(dests)),
			netCnt: make([]uint64, len(dests)),
		}
		if i < len(perSource) {
			for d, n := range perSource[i] {
				box.perDst[d] = backing[:0:n]
				backing = backing[n:]
			}
		}
		x.boxes[i] = box
	}
	return x
}

// Send stages one tuple for destination vault dst. On permutable systems
// the tuple passes through the source's object buffer and only completed
// objects become network messages; conventionally every tuple is its own
// message.
func (o *Outbox) Send(dst int, t tuple.Tuple) error {
	if o.x.perm {
		if o.u.ObjBuf == nil {
			return fmt.Errorf("engine: unit %d has no object buffer (permutability disabled)", o.u.ID)
		}
		o.netCnt[dst] += uint64(o.u.ObjBuf.Push(tuple.Size))
	} else {
		o.netCnt[dst]++
	}
	o.perDst[dst] = append(o.perDst[dst], exMsg{t: t, seq: o.seq})
	o.seq++
	return nil
}

// arrival locates one staged message for the destination-side ordering:
// its source and its index in that source's staging list for the
// destination. Eight bytes against the 24 of the message it points at.
type arrival struct {
	src, idx int32
}

// staged returns the tuple arrival a points at among destination d's
// staging lists.
func (x *exchange) staged(d int, a arrival) tuple.Tuple {
	return x.boxes[a.src].perDst[d][a.idx].t
}

// flush applies all staged messages: destination-side writes in parallel
// (stage B), interconnect statistics serially (stage C). It runs outside
// any ForEachVault section, before EndStep, so the DRAM and link activity
// lands in the step that performed the sends.
func (x *exchange) flush() error {
	e := x.e
	nv := len(x.dests)

	// Conventional systems write each source's tuples into a contiguous
	// slot range per destination: prefix sums over sources, exactly the
	// offsets the software histogram exchange provides (§5.4).
	var offset [][]int
	if !x.perm {
		offset = make([][]int, len(x.boxes))
		for s := range x.boxes {
			offset[s] = make([]int, nv)
		}
		for d := 0; d < nv; d++ {
			next := 0
			for s := range x.boxes {
				offset[s][d] = next
				next += len(x.boxes[s].perDst[d])
			}
		}
	}

	// Stage B: per-destination apply. Worker d touches only destination
	// d's region/vault, column d of the offset table, and shard d of the
	// trace buffer.
	var shards [][]traceEvent
	if e.tracer != nil {
		shards = make([][]traceEvent, nv)
	}
	err := e.forEach(nv, func(d int) error {
		dst := x.dests[d]
		total := 0
		for s := range x.boxes {
			total += len(x.boxes[s].perDst[d])
		}
		// Arrival order is (seq, src). Each source's staged list is
		// already seq-sorted and sources are visited in src order, so a
		// stable counting sort by seq reproduces the comparison sort's
		// permutation in O(n + maxSeq) without per-element comparisons.
		// The sort permutes indexes into the staging lists, not copies.
		maxSeq := int32(-1)
		for s := range x.boxes {
			if l := x.boxes[s].perDst[d]; len(l) > 0 {
				if q := l[len(l)-1].seq; q > maxSeq {
					maxSeq = q
				}
			}
		}
		counts := make([]int32, maxSeq+2)
		for s := range x.boxes {
			for _, m := range x.boxes[s].perDst[d] {
				counts[m.seq+1]++
			}
		}
		for i := 1; i < len(counts); i++ {
			counts[i] += counts[i-1]
		}
		arr := make([]arrival, total)
		for s := range x.boxes {
			for i, m := range x.boxes[s].perDst[d] {
				arr[counts[m.seq]] = arrival{src: int32(s), idx: int32(i)}
				counts[m.seq]++
			}
		}
		// Permutable destinations are strictly sequential appends: the
		// controller ignores target addresses and bumps its append offset
		// once per object, so the whole arrival list can retire as one
		// DRAM run. Tracing keeps the per-arrival loop (events carry
		// per-source attribution); so does NoBulk.
		if x.perm && !e.cfg.NoBulk && shards == nil && dst.Vault.ShuffleActive() {
			return x.applyPermutableRun(d, arr)
		}
		if !x.perm {
			// The conventional slots are 0..total-1: extend once.
			ensureLen(dst, min(total, dst.cap))
		}
		for _, a := range arr {
			if x.perm {
				if len(dst.Tuples) >= dst.cap {
					return fmt.Errorf("%w: region in vault %d full", hmc.ErrRegionOverflow, dst.Vault.ID)
				}
				target := dst.addrOf(len(dst.Tuples))
				placed, _, err := dst.Vault.PermutableWrite(target, tuple.Size)
				if err != nil {
					return err
				}
				if shards != nil {
					shards[d] = append(shards[d], traceEvent{unit: int(a.src), kind: TracePermuted, addr: placed, size: tuple.Size, write: true})
				}
				dst.Tuples = append(dst.Tuples, x.staged(d, a)) // arrival order IS the layout
				continue
			}
			idx := offset[a.src][d]
			offset[a.src][d]++
			if idx < 0 || idx >= dst.cap {
				panic(fmt.Sprintf("engine: send index %d outside capacity %d", idx, dst.cap))
			}
			dst.Tuples[idx] = x.staged(d, a)
			addr := dst.addrOf(idx)
			if shards != nil {
				shards[d] = append(shards[d], traceEvent{unit: int(a.src), kind: TraceShuffle, addr: addr, size: tuple.Size, write: true})
			}
			dst.Vault.Write(addr, tuple.Size)
			dst.Vault.RecordInbound(tuple.Size)
		}
		return nil
	})
	for _, shard := range shards {
		for _, ev := range shard {
			e.tracer.Access(ev.unit, ev.kind, ev.addr, ev.size, ev.write)
		}
	}
	if err != nil {
		return err
	}

	// Stage C: aggregated interconnect occupancy in (src, dst) order.
	// Permutable messages are object-buffer flushes of ObjectSize bytes;
	// conventional ones are bare tuples.
	msgSize := tuple.Size
	if x.perm {
		msgSize = e.cfg.ObjectSize
	}
	for s, box := range x.boxes {
		for d, n := range box.netCnt {
			e.recordRouteBulk(e.units[s].Vault, x.dests[d].Vault, msgSize, n)
		}
	}
	x.recordObs(msgSize)
	return nil
}

// applyPermutableRun retires destination d's sorted arrival list as one
// sequential permutable-append run — byte-identical accounting to the
// per-arrival loop, including the partial-application semantics on
// overflow (writes preceding the overflowing arrival land; the error
// matches the one the scalar loop would have returned for that arrival).
func (x *exchange) applyPermutableRun(d int, arr []arrival) error {
	dst := x.dests[d]
	apply := len(arr)
	var fullErr error
	if avail := dst.cap - len(dst.Tuples); apply > avail {
		apply = avail
		fullErr = fmt.Errorf("%w: region in vault %d full", hmc.ErrRegionOverflow, dst.Vault.ID)
	}
	_, n, err := dst.Vault.PermutableWriteRun(tuple.Size, apply)
	for i := 0; i < n; i++ {
		dst.Tuples = append(dst.Tuples, x.staged(d, arr[i])) // arrival order IS the layout
	}
	if err != nil {
		return err
	}
	return fullErr
}

// recordRouteBulk applies the interconnect statistics of n identical
// size-byte messages along the unit→vault route of routeLatency, without
// computing latency (the exchange's senders never consumed it).
func (e *Engine) recordRouteBulk(src, dst *hmc.Vault, size int, n uint64) {
	if n == 0 || src == dst {
		return
	}
	if src.Cube == dst.Cube {
		e.Sys.Cubes[src.Cube].Mesh.RecordBulk(src.Tile, dst.Tile, size, n)
		return
	}
	e.Sys.Cubes[src.Cube].Mesh.RecordBulk(src.Tile, 0, size, n)
	e.Sys.Net.RecordBulk(src.Cube, dst.Cube, size, n)
	e.Sys.Cubes[dst.Cube].Mesh.RecordBulk(0, dst.Tile, size, n)
}
