package engine

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// MallocPermutable allocates one destination buffer per vault for the
// upcoming partitioning phase and — on permutability-capable systems —
// programs each vault controller's permutable-region registers
// (malloc_permutable in Fig. 4a). capTuples is the CPU's best-effort
// overprovisioned estimate per vault (§5.3).
func (e *Engine) MallocPermutable(capTuples int) ([]*Region, error) {
	dests := make([]*Region, e.NumVaults())
	for v := range dests {
		r, err := e.AllocOut(v, capTuples)
		if err != nil {
			return nil, err
		}
		if e.cfg.Permutable {
			size := int64(capTuples) * tuple.Size
			if err := r.Vault.SetPermRegion(r.Addr, size, e.cfg.ObjectSize); err != nil {
				return nil, err
			}
		}
		dests[v] = r
	}
	return dests, nil
}

// ShuffleBegin performs the shuffle_begin protocol of §5.4: every compute
// unit announces the bytes it will send to each destination vault (the
// histogram exchange), each vault controller sums its inbound total and —
// if permutability is enabled — arms its permutable region. A vault whose
// announced inbound data overflows its provisioned buffer raises the
// overflow error for the CPU to handle (skewed datasets, §5.4).
//
// perSource[src][dstVault] is the tuple count unit src will ship to
// dstVault. The exchange and the completion barrier are charged to the
// run for every architecture — conventional distributed partitioning needs
// the same histogram exchange to compute global write offsets.
func (e *Engine) ShuffleBegin(dests []*Region, perSource [][]int64) error {
	if len(dests) != e.NumVaults() {
		return fmt.Errorf("engine: %d destination regions for %d vaults", len(dests), e.NumVaults())
	}
	inbound := make([]int64, e.NumVaults())
	for src, row := range perSource {
		if len(row) != e.NumVaults() {
			return fmt.Errorf("engine: histogram row %d has %d entries, want %d", src, len(row), e.NumVaults())
		}
		u := e.units[src%len(e.units)]
		for dst, n := range row {
			inbound[dst] += n * tuple.Size
			// The announcement write: 8 bytes to a predefined location
			// of the remote vault.
			u.routeLatency(dests[dst].Vault, 8)
		}
	}
	// The exchanged histograms give every destination's exact inbound
	// total, so the overflow check happens here in software for every
	// architecture — conventional systems compute their write offsets from
	// these same counts and must refuse a shuffle that cannot fit, exactly
	// like the permutable controller's hardware check below.
	need := make([]int, len(dests))
	for dst, r := range dests {
		if inbound[dst] > int64(r.cap)*tuple.Size {
			return fmt.Errorf("%w: vault %d announced %d B inbound for a %d-tuple (%d B) buffer",
				hmc.ErrRegionOverflow, r.Vault.ID, inbound[dst], r.cap, int64(r.cap)*tuple.Size)
		}
		need[dst] = int(inbound[dst] / tuple.Size)
	}
	// The same exact counts size every destination's host storage, so no
	// arrival grows a region.
	reserveAll(dests, need)
	if e.cfg.Permutable {
		for dst, r := range dests {
			if err := r.Vault.BeginShuffle(inbound[dst]); err != nil {
				return err
			}
		}
	}
	e.Barrier()
	return nil
}

// Distribute runs a shuffle's data distribution as one step and then
// ends the shuffle. dests and perSource are those given to ShuffleBegin.
// The step opens with profile prof; send runs once per source vault, in
// parallel, and stages that source's tuples through its Outbox; the
// staged exchange then applies them at their destinations (exchange.go),
// the step closes, and shuffle_end completes the protocol.
func (e *Engine) Distribute(dests []*Region, perSource [][]int64, prof StepProfile,
	send func(v int, u *Unit, ob *Outbox) error) (StepTiming, error) {
	e.BeginStep(prof)
	x := e.newExchange(dests, perSource)
	if err := e.ForEachVault(func(v int, u *Unit) error {
		return send(v, u, x.boxes[v])
	}); err != nil {
		return StepTiming{}, err
	}
	if err := x.flush(); err != nil {
		return StepTiming{}, err
	}
	st := e.EndStep()
	e.shuffleEnd(dests)
	return st, nil
}

// shuffleEnd performs the shuffle_end protocol: drains partial object
// buffers, waits for every vault controller's completion MSI (modeled as
// one barrier), and disarms permutability.
func (e *Engine) shuffleEnd(dests []*Region) {
	for _, u := range e.units {
		if u.ObjBuf != nil {
			u.ObjBuf.Drain()
		}
	}
	if e.cfg.Permutable {
		for _, r := range dests {
			r.Vault.EndShuffle()
		}
	}
	e.Barrier()
}
