// Package dram models the DRAM array behind one memory partition (an HMC
// vault) at row-buffer granularity.
//
// This is the substrate the paper's efficiency argument rests on (§3.1):
// a DRAM access is a row activation — copying an entire row into the row
// buffer — followed by a data transfer. For the HMC, the row is 256 B and
// the activation accounts for 14% of the access energy when a whole row is
// consumed, climbing to ~80% when only 8 B of an activated row are used.
// The model tracks open rows per bank, classifies every access as a row
// hit, a cold miss (bank idle) or a row conflict (different row open),
// charges DDR-style timing (Table 3) and counts the raw events that the
// energy model (Table 4) later converts to joules.
package dram

import "fmt"

// Timing holds DRAM timing parameters in nanoseconds (paper Table 3).
type Timing struct {
	TCK  float64 // clock period
	TRAS float64 // row active time
	TRCD float64 // row-to-column delay (activation latency)
	TCAS float64 // column access latency
	TWR  float64 // write recovery
	TRP  float64 // row precharge

	// Refresh: every TREFI (average refresh interval) the device spends
	// TRFC unavailable. Zero TREFI disables refresh modeling. Refresh
	// steals a fixed fraction TRFC/TREFI of device time, which inflates
	// BusyNs — the standard first-order refresh model.
	TREFI float64
	TRFC  float64
}

// RefreshOverhead returns the fraction of device time refresh steals.
func (t Timing) RefreshOverhead() float64 {
	if t.TREFI <= 0 {
		return 0
	}
	return t.TRFC / t.TREFI
}

// HMCTiming returns the timing used in the paper's simulations, with
// standard DDR-class refresh parameters (7.8 µs interval, 160 ns tRFC —
// stacked dies refresh per-vault, so the penalty is modest).
func HMCTiming() Timing {
	return Timing{TCK: 1.6, TRAS: 22.4, TRCD: 11.2, TCAS: 11.2, TWR: 14.4, TRP: 11.2,
		TREFI: 7800, TRFC: 160}
}

// Geometry describes the DRAM array of one vault.
type Geometry struct {
	RowBytes      int   // row-buffer size; 256 B for HMC
	Banks         int   // independently operable banks
	CapacityBytes int64 // total vault capacity
	// PeakBandwidthGBs is the vault's effective peak data bandwidth
	// (8 GB/s per HMC vault in the paper).
	PeakBandwidthGBs float64
}

// HMCGeometry returns the per-vault geometry modeled in the paper:
// 512 MB vaults (16 per 8 GB cube), 256 B rows, 8 GB/s peak bandwidth.
func HMCGeometry() Geometry {
	return Geometry{RowBytes: 256, Banks: 8, CapacityBytes: 512 << 20, PeakBandwidthGBs: 8}
}

// transferNs is the bus occupancy of moving size bytes at peak bandwidth.
func (g Geometry) transferNs(size int) float64 {
	return float64(size) / g.PeakBandwidthGBs // bytes / (GB/s) = ns
}

// Stats aggregates raw DRAM events for one device. The energy model
// translates Activations and transferred bytes into joules.
type Stats struct {
	Reads, Writes         uint64
	ReadBytes, WriteBytes uint64
	Activations           uint64
	RowHits               uint64
	RowColdMisses         uint64 // bank had no open row
	RowConflicts          uint64 // bank had a different row open
	BusNs                 float64
}

// Merge folds another shard of statistics into s. Every field is a plain
// sum, so merging per-vault shards in any order and association equals
// serial accumulation (integer fields exactly; BusNs is a float sum of
// the same addends, so equal-addend shards merge exactly too).
func (s *Stats) Merge(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.Activations += o.Activations
	s.RowHits += o.RowHits
	s.RowColdMisses += o.RowColdMisses
	s.RowConflicts += o.RowConflicts
	s.BusNs += o.BusNs
}

// TotalBytes returns the total data volume moved over the vault bus.
func (s Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses())
}

const noRow = int64(-1)

// bank holds the row-buffer state of one DRAM bank.
type bank struct {
	openRow int64
	busyNs  float64
}

// Device simulates one vault's DRAM array.
type Device struct {
	geom  Geometry
	tim   Timing
	banks []bank
	stats Stats

	// Shift/mask forms of the row/bank arithmetic, valid when RowBytes
	// and Banks are powers of two (every modeled configuration).
	pow2      bool
	rowShift  uint
	rowMask   int64 // RowBytes-1
	bankShift uint
	bankMask  int64 // Banks-1
}

// NewDevice creates a DRAM device with the given geometry and timing.
func NewDevice(g Geometry, t Timing) *Device {
	if g.RowBytes <= 0 || g.Banks <= 0 || g.CapacityBytes <= 0 || g.PeakBandwidthGBs <= 0 {
		panic(fmt.Sprintf("dram: invalid geometry %+v", g))
	}
	d := &Device{geom: g, tim: t, banks: make([]bank, g.Banks)}
	for i := range d.banks {
		d.banks[i].openRow = noRow
	}
	if isPow2(g.RowBytes) && isPow2(g.Banks) {
		d.pow2 = true
		d.rowShift = log2(g.RowBytes)
		d.rowMask = int64(g.RowBytes - 1)
		d.bankShift = log2(g.Banks)
		d.bankMask = int64(g.Banks - 1)
	}
	return d
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

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Stats returns a snapshot of accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears counters but keeps row-buffer state.
func (d *Device) ResetStats() { d.stats = Stats{} }

// CloseAllRows precharges every bank (e.g. between experiment phases).
func (d *Device) CloseAllRows() {
	for i := range d.banks {
		d.banks[i].openRow = noRow
	}
}

// locate maps a vault-local address to (bank, row). Consecutive rows are
// interleaved across banks so that sequential streams pipeline activations
// across all banks.
func (d *Device) locate(addr int64) (bankIdx int, row int64) {
	if d.pow2 {
		rowGlobal := addr >> d.rowShift
		return int(rowGlobal & d.bankMask), rowGlobal >> d.bankShift
	}
	rowGlobal := addr / int64(d.geom.RowBytes)
	return int(rowGlobal % int64(d.geom.Banks)), rowGlobal / int64(d.geom.Banks)
}

// rowOffset returns addr's offset within its row.
func (d *Device) rowOffset(addr int64) int64 {
	if d.pow2 {
		return addr & d.rowMask
	}
	return addr % int64(d.geom.RowBytes)
}

// Access performs one DRAM access of size bytes at a vault-local address.
// The access must not cross a row boundary (use AccessRange for arbitrary
// extents). It returns the access latency in nanoseconds.
func (d *Device) Access(addr int64, size int, write bool) float64 {
	if size <= 0 {
		panic("dram: access size must be positive")
	}
	if off := d.rowOffset(addr); int(off)+size > d.geom.RowBytes {
		panic(fmt.Sprintf("dram: access [%d,+%d) crosses a %dB row boundary", addr, size, d.geom.RowBytes))
	}
	bi, row := d.locate(addr)
	b := &d.banks[bi]

	var lat float64
	switch {
	case b.openRow == row:
		d.stats.RowHits++
		lat = d.tim.TCAS
	case b.openRow == noRow:
		d.stats.RowColdMisses++
		d.stats.Activations++
		b.openRow = row
		lat = d.tim.TRCD + d.tim.TCAS
	default:
		d.stats.RowConflicts++
		d.stats.Activations++
		b.openRow = row
		lat = d.tim.TRP + d.tim.TRCD + d.tim.TCAS
	}
	xfer := d.geom.transferNs(size)
	lat += xfer
	if write {
		d.stats.Writes++
		d.stats.WriteBytes += uint64(size)
		// Write recovery occupies the bank, not the requester.
		b.busyNs += lat + d.tim.TWR
	} else {
		d.stats.Reads++
		d.stats.ReadBytes += uint64(size)
		b.busyNs += lat
	}
	d.stats.BusNs += xfer
	return lat
}

// AccessRange performs an access of arbitrary size, splitting it into
// row-sized pieces as the HMC protocol does (max request = one 256 B row).
// It returns the sum of piece latencies (a sequential-dependency upper
// bound; concurrent pieces are accounted for by the core's MLP model).
func (d *Device) AccessRange(addr int64, size int, write bool) float64 {
	if size <= 0 {
		panic("dram: access size must be positive")
	}
	var total float64
	for size > 0 {
		rowOff := int(d.rowOffset(addr))
		chunk := d.geom.RowBytes - rowOff
		if chunk > size {
			chunk = size
		}
		total += d.Access(addr, chunk, write)
		addr += int64(chunk)
		size -= chunk
	}
	return total
}

// AccessRun performs count sequential accesses of stride bytes each,
// starting at addr, with accounting identical to calling Access once per
// element: the same row-hit/miss classification, the same per-access
// floating-point additions to bank busy time and bus occupancy in the same
// order (float addition is order-sensitive, so the adds are not regrouped).
// If stallAccum is non-nil, each element's latency is added to it, exactly
// as a caller looping over Access and accumulating latencies would.
//
// The fast path requires that the stride evenly divide the row size and
// that addr be stride-aligned, so no element straddles a row; other shapes
// fall back to per-element AccessRange calls.
func (d *Device) AccessRun(addr int64, stride, count int, write bool, stallAccum *float64) {
	rb := int64(d.geom.RowBytes)
	if stride <= 0 || rb%int64(stride) != 0 || addr%int64(stride) != 0 {
		for i := 0; i < count; i++ {
			lat := d.AccessRange(addr+int64(i)*int64(stride), stride, write)
			if stallAccum != nil {
				*stallAccum += lat
			}
		}
		return
	}
	xfer := d.geom.transferNs(stride)
	hitLat := d.tim.TCAS + xfer
	writeRecovery := hitLat + d.tim.TWR
	for count > 0 {
		rowEnd := addr - d.rowOffset(addr) + rb
		k := int((rowEnd - addr) / int64(stride))
		if k > count {
			k = count
		}
		bi, row := d.locate(addr)
		b := &d.banks[bi]
		// First element of the row: full open-row resolution.
		var lat float64
		switch {
		case b.openRow == row:
			d.stats.RowHits++
			lat = d.tim.TCAS
		case b.openRow == noRow:
			d.stats.RowColdMisses++
			d.stats.Activations++
			b.openRow = row
			lat = d.tim.TRCD + d.tim.TCAS
		default:
			d.stats.RowConflicts++
			d.stats.Activations++
			b.openRow = row
			lat = d.tim.TRP + d.tim.TRCD + d.tim.TCAS
		}
		lat += xfer
		if write {
			b.busyNs += lat + d.tim.TWR
		} else {
			b.busyNs += lat
		}
		d.stats.BusNs += xfer
		if stallAccum != nil {
			*stallAccum += lat
		}
		// Remaining elements in this row are guaranteed row hits (nothing
		// else touches the bank mid-run). Integer tallies batch; the float
		// accumulators still receive one addition per element.
		d.stats.RowHits += uint64(k - 1)
		for i := 1; i < k; i++ {
			if write {
				b.busyNs += writeRecovery
			} else {
				b.busyNs += hitLat
			}
			d.stats.BusNs += xfer
			if stallAccum != nil {
				*stallAccum += hitLat
			}
		}
		if write {
			d.stats.Writes += uint64(k)
			d.stats.WriteBytes += uint64(k * stride)
		} else {
			d.stats.Reads += uint64(k)
			d.stats.ReadBytes += uint64(k * stride)
		}
		addr = rowEnd
		count -= k
	}
}

// BusyNs returns the device-level busy time: the maximum over banks of
// per-bank busy time, but never less than the shared-bus occupancy, both
// inflated by the refresh overhead. This is the vault's contribution to
// phase runtime when it is the bottleneck: random fine-grained traffic
// serializes on bank activate/precharge cycles, while sequential streams
// are limited only by bus bandwidth.
func (d *Device) BusyNs() float64 {
	var maxBank float64
	for i := range d.banks {
		if d.banks[i].busyNs > maxBank {
			maxBank = d.banks[i].busyNs
		}
	}
	busy := d.stats.BusNs
	if maxBank > busy {
		busy = maxBank
	}
	return busy * (1 + d.tim.RefreshOverhead())
}

// ResetBusy clears per-bank and bus busy accumulators (stats remain).
func (d *Device) ResetBusy() {
	for i := range d.banks {
		d.banks[i].busyNs = 0
	}
	d.stats.BusNs = 0
}
