// Package hmc models the Hybrid Memory Cube hardware of the Mondrian Data
// Engine (§5): cubes of 16 vaults, each vault pairing a DRAM partition with
// a vault controller on the logic layer. The Mondrian extensions live
// here: permutable-region registers on the vault controller (§5.3), the
// 256 B object buffer that keeps data objects from straddling memory
// messages, and the eight 384 B programmable stream buffers that feed the
// compute units with binding prefetches (§5.2).
package hmc

import (
	"errors"
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
)

// ErrRegionOverflow is returned when permutable writes exceed the
// destination buffer the CPU provisioned. The paper (§5.4) raises an
// exception for the CPU to handle (re-partitioning for skewed datasets).
var ErrRegionOverflow = errors.New("hmc: permutable region overflow")

// PermRegion is the vault controller's description of one permutable
// destination buffer (a set of special memory-mapped registers in §5.3).
type PermRegion struct {
	Base       int64 // global physical base address
	Size       int64 // provisioned bytes
	ObjectSize int   // granularity of permutability

	appendOff     int64 // next sequential write offset
	expectedBytes int64 // announced inbound data (histogram exchange)
	writtenBytes  int64
	active        bool
}

// Vault couples one DRAM partition with its controller state.
type Vault struct {
	ID    int // global vault index
	Cube  int // owning cube
	Tile  int // tile position on the cube's mesh
	Base  int64
	Size  int64
	DRAM  *dram.Device
	perm  PermRegion
	alloc int64 // bump allocator offset (vault-local)

	// PermutedWrites counts writes whose placement the controller chose.
	PermutedWrites uint64
}

// NewVault creates a vault owning [base, base+geom.CapacityBytes) of the
// global physical address space.
func NewVault(id, cube, tile int, base int64, geom dram.Geometry, tim dram.Timing) *Vault {
	return &Vault{
		ID: id, Cube: cube, Tile: tile,
		Base: base, Size: geom.CapacityBytes,
		DRAM: dram.NewDevice(geom, tim),
	}
}

// Contains reports whether a global address belongs to this vault.
func (v *Vault) Contains(addr int64) bool {
	return addr >= v.Base && addr < v.Base+v.Size
}

// local converts a global address to a vault-local one.
func (v *Vault) local(addr int64) int64 {
	if !v.Contains(addr) {
		panic(fmt.Sprintf("hmc: address %#x not in vault %d [%#x,%#x)", addr, v.ID, v.Base, v.Base+v.Size))
	}
	return addr - v.Base
}

// Alloc reserves n bytes (aligned to align) in the vault and returns the
// global base address of the reservation.
func (v *Vault) Alloc(n int64, align int64) (int64, error) {
	if n <= 0 || align <= 0 {
		return 0, fmt.Errorf("hmc: bad allocation n=%d align=%d", n, align)
	}
	off := (v.alloc + align - 1) / align * align
	if off+n > v.Size {
		return 0, fmt.Errorf("hmc: vault %d out of memory (%d requested, %d free)", v.ID, n, v.Size-off)
	}
	v.alloc = off + n
	return v.Base + off, nil
}

// AllocReset releases all allocations (between experiments).
func (v *Vault) AllocReset() { v.alloc = 0 }

// Read performs a read of size bytes at a global address, returning the
// DRAM latency in nanoseconds.
func (v *Vault) Read(addr int64, size int) float64 {
	return v.DRAM.AccessRange(v.local(addr), size, false)
}

// Write performs an ordinary (address-preserving) write.
func (v *Vault) Write(addr int64, size int) float64 {
	return v.DRAM.AccessRange(v.local(addr), size, true)
}

// ReadRun performs count sequential reads of stride bytes each starting at
// a global address — accounting identical to count Read calls. Each read's
// latency is added to stallAccum when non-nil, preserving the per-access
// float-addition order a scalar caller would produce.
func (v *Vault) ReadRun(addr int64, stride, count int, stallAccum *float64) {
	if count <= 0 {
		return
	}
	end := addr + int64(stride)*int64(count) - 1
	if !v.Contains(addr) || !v.Contains(end) {
		panic(fmt.Sprintf("hmc: run [%#x,%#x] not in vault %d", addr, end, v.ID))
	}
	v.DRAM.AccessRun(addr-v.Base, stride, count, false, stallAccum)
}

// WriteRun performs count sequential address-preserving writes of stride
// bytes each — accounting identical to count Write calls.
func (v *Vault) WriteRun(addr int64, stride, count int) {
	if count <= 0 {
		return
	}
	end := addr + int64(stride)*int64(count) - 1
	if !v.Contains(addr) || !v.Contains(end) {
		panic(fmt.Sprintf("hmc: run [%#x,%#x] not in vault %d", addr, end, v.ID))
	}
	v.DRAM.AccessRun(addr-v.Base, stride, count, true, nil)
}

// SetPermRegion programs the controller's permutable-region registers.
// Object sizes above 256 B are rejected: the object buffer bounds the
// granularity of permutability (§5.3); larger objects already enjoy row
// locality and need no permutation.
func (v *Vault) SetPermRegion(base, size int64, objectSize int) error {
	if objectSize <= 0 || objectSize > ObjectBufferBytes {
		return fmt.Errorf("hmc: object size %d outside (0,%d]", objectSize, ObjectBufferBytes)
	}
	if base < v.Base || base+size > v.Base+v.Size {
		return fmt.Errorf("hmc: permutable region [%#x,+%d) outside vault %d", base, size, v.ID)
	}
	v.perm = PermRegion{Base: base, Size: size, ObjectSize: objectSize}
	return nil
}

// Region returns the controller's current permutable region state.
func (v *Vault) Region() PermRegion { return v.perm }

// BeginShuffle arms permutability after the histogram exchange announced
// the expected inbound bytes. If the announced data overflows the
// provisioned buffer the controller refuses, mirroring the overflow
// exception of §5.4.
func (v *Vault) BeginShuffle(expectedBytes int64) error {
	if v.perm.ObjectSize == 0 {
		return errors.New("hmc: BeginShuffle without a programmed region")
	}
	if expectedBytes > v.perm.Size {
		return fmt.Errorf("%w: expecting %d bytes into %d-byte buffer (vault %d)",
			ErrRegionOverflow, expectedBytes, v.perm.Size, v.ID)
	}
	v.perm.expectedBytes = expectedBytes
	v.perm.writtenBytes = 0
	v.perm.appendOff = 0
	v.perm.active = true
	return nil
}

// ShuffleActive reports whether the controller is treating stores to the
// permutable region as permutable.
func (v *Vault) ShuffleActive() bool { return v.perm.active }

// PermutableWrite stores one object-sized message. If the region is armed
// the controller ignores the target address within the region and appends
// sequentially (the permutability optimization); otherwise the write goes
// to its original address. The chosen global address and the DRAM latency
// are returned.
func (v *Vault) PermutableWrite(origAddr int64, size int) (int64, float64, error) {
	if !v.perm.active || origAddr < v.perm.Base || origAddr >= v.perm.Base+v.perm.Size {
		return origAddr, v.Write(origAddr, size), nil
	}
	if v.perm.appendOff+int64(size) > v.perm.Size {
		return 0, 0, fmt.Errorf("%w: vault %d append %d past %d",
			ErrRegionOverflow, v.ID, v.perm.appendOff+int64(size), v.perm.Size)
	}
	addr := v.perm.Base + v.perm.appendOff
	v.perm.appendOff += int64(size)
	v.perm.writtenBytes += int64(size)
	v.PermutedWrites++
	lat := v.Write(addr, size)
	return addr, lat, nil
}

// PermutableWriteRun appends count object-sized messages while the region
// is armed, with accounting identical to count PermutableWrite calls whose
// targets fall inside the region. It returns the global address of the
// first append, how many writes were applied, and an error if the region
// overflowed mid-run — in which case, exactly like the scalar loop, the
// writes preceding the overflow have already been applied.
func (v *Vault) PermutableWriteRun(size, count int) (int64, int, error) {
	if !v.perm.active {
		return 0, 0, errors.New("hmc: PermutableWriteRun while shuffle not armed")
	}
	if count <= 0 {
		return v.perm.Base + v.perm.appendOff, 0, nil
	}
	applied := count
	if free := v.perm.Size - v.perm.appendOff; int64(applied)*int64(size) > free {
		applied = int(free / int64(size))
	}
	start := v.perm.Base + v.perm.appendOff
	if applied > 0 {
		v.perm.appendOff += int64(applied) * int64(size)
		v.perm.writtenBytes += int64(applied) * int64(size)
		v.PermutedWrites += uint64(applied)
		v.DRAM.AccessRun(start-v.Base, size, applied, true, nil)
	}
	if applied < count {
		return start, applied, fmt.Errorf("%w: vault %d append %d past %d",
			ErrRegionOverflow, v.ID, v.perm.appendOff+int64(size), v.perm.Size)
	}
	return start, applied, nil
}

// RecordInbound tracks address-preserving shuffle traffic so completion
// detection also works for systems without permutability (NMP baseline).
func (v *Vault) RecordInbound(size int) {
	if v.perm.active {
		v.perm.writtenBytes += int64(size)
	}
}

// shuffleComplete reports whether all announced data has arrived — the
// condition on which the controller raises its MSI to every NMP unit.
func (v *Vault) shuffleComplete() bool {
	return v.perm.active && v.perm.writtenBytes >= v.perm.expectedBytes
}

// EndShuffle disarms permutability (shuffle_end semantics) and returns how
// many bytes were appended.
func (v *Vault) EndShuffle() int64 {
	v.perm.active = false
	return v.perm.writtenBytes
}
