package hmc

import (
	"errors"
	"fmt"
)

// ObjectBufferBytes is the capacity of the per-compute-unit object buffer
// (§5.3). It matches the HMC row-buffer size and the protocol's maximum
// message size, and bounds the largest permutable object.
const ObjectBufferBytes = 256

// ObjectBuffer batches a compute unit's stores into whole data objects so
// that no object straddles more than one memory message — the condition
// under which inter-request permutation is safe (§5.3: the controller
// "only makes inter-request and never intra-request memory location
// permutations").
type ObjectBuffer struct {
	objectSize int
	pending    int

	// Flushes counts object-sized messages injected into the network.
	Flushes uint64
	// Pushes counts store operations absorbed by the buffer — with
	// Flushes, this gives the buffer's hit (coalescing) rate.
	Pushes uint64

	// Each unit pushes to its own buffer from its vault's worker, so a
	// buffer fills whole 64 B cache lines and never shares one with a
	// neighbour's.
	_ [32]byte
}

// NewObjectBuffer creates an object buffer for the given object size.
func NewObjectBuffer(objectSize int) (*ObjectBuffer, error) {
	if objectSize <= 0 || objectSize > ObjectBufferBytes {
		return nil, fmt.Errorf("hmc: object size %d outside (0,%d]", objectSize, ObjectBufferBytes)
	}
	return &ObjectBuffer{objectSize: objectSize}, nil
}

// Push adds n bytes of pending store data and returns how many complete
// object-sized messages drained to the vault router as a result.
func (b *ObjectBuffer) Push(n int) int {
	if n <= 0 {
		panic("hmc: ObjectBuffer.Push requires positive n")
	}
	b.pending += n
	b.Pushes++
	flushes := b.pending / b.objectSize
	b.pending %= b.objectSize
	b.Flushes += uint64(flushes)
	return flushes
}

// Reset restores the buffer to its just-constructed state: pending data
// dropped, counters zeroed. Part of the engine's pooled-lifecycle reset.
func (b *ObjectBuffer) Reset() {
	b.pending = 0
	b.Flushes = 0
	b.Pushes = 0
}

// Drain flushes a final partial object (end of the partitioning loop),
// returning its size in bytes (0 if empty).
func (b *ObjectBuffer) Drain() int {
	n := b.pending
	b.pending = 0
	if n > 0 {
		b.Flushes++
	}
	return n
}

// Stream-buffer constants from §5.2: eight programmable 384 B buffers
// (1.5× the 256 B row), filled by binding prefetches in full-row units.
const (
	NumStreamBuffers  = 8
	StreamBufferBytes = 384
	streamFillGranule = 256
)

// ErrTooManyStreams is returned when more ranges than buffers are tied.
var ErrTooManyStreams = errors.New("hmc: more streams than stream buffers")

// Range is a half-open global address interval [Start, End).
type Range struct{ Start, End int64 }

// Len returns the range length in bytes.
func (r Range) Len() int64 { return r.End - r.Start }

type streamState struct {
	next        int64 // next byte the compute unit will pop
	filledUntil int64 // exclusive bound of prefetched data
	end         int64
}

// StreamBufferSet models one compute unit's stream buffers, tied to the
// unit's local vault. Pops from stream heads never stall the core (the
// binding prefetcher keeps 1.5 rows of lead); the DRAM fills it issues are
// charged to the vault and surface as bus/bank busy time, which is how
// bandwidth saturation limits streaming throughput.
type StreamBufferSet struct {
	vault   *Vault
	bufs    int // number of stream buffers in this set
	streams []streamState

	// FillBytes counts bytes prefetched from DRAM into the buffers.
	FillBytes uint64

	_ [16]byte // pad to 64 B, as ObjectBuffer
}

// NewStreamBufferSetN creates the buffer set for a compute unit
// co-located with the given vault, with n stream buffers — the
// sensitivity-sweep knob behind engine.Config.StreamBuffers. n <= 0
// selects the architectural NumStreamBuffers.
func NewStreamBufferSetN(v *Vault, n int) *StreamBufferSet {
	if n <= 0 {
		n = NumStreamBuffers
	}
	return &StreamBufferSet{vault: v, bufs: n}
}

// Buffers returns how many stream buffers the set provides.
func (s *StreamBufferSet) Buffers() int { return s.bufs }

// Reset restores the set to its just-constructed state: all streams
// untied and the fill counter zeroed. The stream storage keeps its
// capacity, so a reset set reaches Configure's steady state allocation-free.
func (s *StreamBufferSet) Reset() {
	s.streams = s.streams[:0]
	s.FillBytes = 0
}

// Configure ties up to Buffers() address ranges to the buffers
// (prefetch_in_str_buf in Fig. 4b) and primes each with its initial fill.
// All ranges must lie in the unit's local vault.
func (s *StreamBufferSet) Configure(ranges []Range) error {
	if len(ranges) > s.bufs {
		return fmt.Errorf("%w: %d > %d", ErrTooManyStreams, len(ranges), s.bufs)
	}
	s.streams = s.streams[:0]
	for _, r := range ranges {
		if r.Len() < 0 {
			return fmt.Errorf("hmc: negative stream range %+v", r)
		}
		if r.Len() > 0 && (!s.vault.Contains(r.Start) || !s.vault.Contains(r.End-1)) {
			return fmt.Errorf("hmc: stream %+v outside local vault %d", r, s.vault.ID)
		}
		st := streamState{next: r.Start, filledUntil: r.Start, end: r.End}
		s.streams = append(s.streams, st)
	}
	for i := range s.streams {
		s.fill(i)
	}
	return nil
}

// fill tops up stream i to its buffer capacity in full-row granules.
func (s *StreamBufferSet) fill(i int) {
	st := &s.streams[i]
	for st.filledUntil < st.end && st.filledUntil-st.next < StreamBufferBytes {
		chunk := int64(streamFillGranule)
		if st.filledUntil+chunk > st.end {
			chunk = st.end - st.filledUntil
		}
		s.vault.Read(st.filledUntil, int(chunk))
		s.FillBytes += uint64(chunk)
		st.filledUntil += chunk
	}
}

// Pop advances stream i by n bytes (pop_input_stream in Fig. 4b),
// triggering refills. It reports whether n bytes were available.
func (s *StreamBufferSet) Pop(i, n int) bool {
	if i < 0 || i >= len(s.streams) {
		panic(fmt.Sprintf("hmc: stream %d not configured", i))
	}
	st := &s.streams[i]
	if st.next+int64(n) > st.end {
		return false
	}
	st.next += int64(n)
	s.fill(i)
	return true
}

// PopRun advances stream i by count pops of stride bytes each, issuing
// exactly the refill reads the equivalent Pop loop would — the fill
// sequence is a deterministic function of the pop sequence, so the vault
// sees identical traffic. It reports whether all count pops fit (nothing
// is consumed otherwise).
func (s *StreamBufferSet) PopRun(i, stride, count int) bool {
	if i < 0 || i >= len(s.streams) {
		panic(fmt.Sprintf("hmc: stream %d not configured", i))
	}
	st := &s.streams[i]
	if st.next+int64(stride)*int64(count) > st.end {
		return false
	}
	// next advances monotonically, so the per-pop fill condition is
	// loosest at the final offset: the run issues exactly the granule
	// chunks the equivalent Pop loop would, in the same address order.
	// Full granules batch into one DRAM run (each granule is one whole
	// row, so per-row accounting is identical to individual reads); the
	// clipped tail chunk, if any, is last.
	st.next += int64(stride) * int64(count)
	start := st.filledUntil
	fullChunks := 0
	var tail int64
	for st.filledUntil < st.end && st.filledUntil-st.next < StreamBufferBytes {
		chunk := int64(streamFillGranule)
		if st.filledUntil+chunk > st.end {
			chunk = st.end - st.filledUntil
			tail = chunk
		} else {
			fullChunks++
		}
		s.FillBytes += uint64(chunk)
		st.filledUntil += chunk
	}
	if fullChunks > 0 {
		s.vault.ReadRun(start, streamFillGranule, fullChunks, nil)
	}
	if tail > 0 {
		s.vault.Read(st.filledUntil-tail, int(tail))
	}
	return true
}

// PopFills reports whether the next n-byte Pop on stream i would issue
// at least one DRAM fill. It has no side effects.
func (s *StreamBufferSet) PopFills(i, n int) bool {
	if i < 0 || i >= len(s.streams) {
		panic(fmt.Sprintf("hmc: stream %d not configured", i))
	}
	st := &s.streams[i]
	return st.filledUntil < st.end && st.filledUntil-(st.next+int64(n)) < StreamBufferBytes
}

// remaining returns how many bytes stream i still holds (including data
// not yet prefetched).
func (s *StreamBufferSet) remaining(i int) int64 {
	st := &s.streams[i]
	return st.end - st.next
}

// Done reports whether every configured stream is fully consumed
// (all_stream_buffer_done in Fig. 4b).
func (s *StreamBufferSet) Done() bool {
	for i := range s.streams {
		if s.streams[i].next < s.streams[i].end {
			return false
		}
	}
	return true
}
