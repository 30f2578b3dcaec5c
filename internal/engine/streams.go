package engine

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// StreamReader consumes one region's tuples in order. On Mondrian units
// the reads flow through the hardware stream buffers (binding prefetch —
// the core never stalls, and DRAM fill traffic accrues as vault busy
// time); on cache-backed units they are ordinary demand reads, which the
// L1 and its next-line prefetcher filter.
type StreamReader struct {
	u      *Unit
	r      *Region
	pos    int
	stream int // stream-buffer slot, or -1 for demand reads
}

// OpenStreams ties the given regions to the unit's stream buffers
// (prefetch_in_str_buf, Fig. 4b) and returns one reader per region. At
// most Streams.Buffers() regions (hmc.NumStreamBuffers by default; see
// engine.Config.StreamBuffers) can stream simultaneously on Mondrian
// units; cache-backed units accept any count.
func (u *Unit) OpenStreams(regions ...*Region) ([]*StreamReader, error) {
	readers := make([]*StreamReader, len(regions))
	if u.Streams == nil {
		for i, r := range regions {
			readers[i] = &StreamReader{u: u, r: r, stream: -1}
		}
		return readers, nil
	}
	ranges := make([]hmc.Range, len(regions))
	for i, r := range regions {
		if r.Vault != u.Vault {
			return nil, fmt.Errorf("engine: region in vault %d streamed from unit %d (vault %d)",
				r.Vault.ID, u.ID, u.Vault.ID)
		}
		ranges[i] = hmc.Range{Start: r.Addr, End: r.addrOf(len(r.Tuples))}
		readers[i] = &StreamReader{u: u, r: r, stream: i}
	}
	if err := u.Streams.Configure(ranges); err != nil {
		return nil, err
	}
	return readers, nil
}

// Peek returns the tuple at the head of the stream without consuming it.
// Peeks are free: the head entry already sits in the stream buffer (or
// was loaded by the preceding Next's cache fill).
func (s *StreamReader) Peek() (tuple.Tuple, bool) {
	if s.pos >= len(s.r.Tuples) {
		return tuple.Tuple{}, false
	}
	return s.r.Tuples[s.pos], true
}

// Next consumes and returns the head tuple (read_stream_heads +
// pop_input_stream in Fig. 4b).
func (s *StreamReader) Next() (tuple.Tuple, bool) {
	if s.pos >= len(s.r.Tuples) {
		return tuple.Tuple{}, false
	}
	t := s.r.Tuples[s.pos]
	if s.stream >= 0 {
		if !s.u.Streams.Pop(s.stream, tuple.Size) {
			panic("engine: stream buffer out of sync with region")
		}
	} else {
		s.u.ReadBytes(s.r.addrOf(s.pos), tuple.Size)
	}
	s.pos++
	return t, true
}

// NextRun consumes the next n tuples as one sequential run and returns
// them (a view into the region — callers must not mutate it). The charged
// traffic is byte-identical to n Next calls: on stream-buffer units the
// refill sequence is a deterministic function of the pop sequence, and on
// cache-backed units the demand reads batch through ReadRunBytes.
func (s *StreamReader) NextRun(n int) []tuple.Tuple {
	if n <= 0 {
		return nil
	}
	if s.pos+n > len(s.r.Tuples) {
		panic(fmt.Sprintf("engine: stream run of %d past %d remaining", n, len(s.r.Tuples)-s.pos))
	}
	ts := s.r.Tuples[s.pos : s.pos+n]
	if s.stream >= 0 {
		if !s.u.Streams.PopRun(s.stream, tuple.Size, n) {
			panic("engine: stream buffer out of sync with region")
		}
	} else {
		s.u.ReadRunBytes(s.r.addrOf(s.pos), tuple.Size, n)
	}
	s.pos += n
	return ts
}

// Streamed reports whether the reader consumes through the vault's
// stream buffers (pops are free; only granule refills touch DRAM) as
// opposed to issuing a demand read per tuple.
func (s *StreamReader) Streamed() bool { return s.stream >= 0 }

// NextFills reports whether the next Next() would issue DRAM refill
// traffic. Only meaningful for streamed readers; it has no side effects.
func (s *StreamReader) NextFills() bool {
	return s.u.Streams.PopFills(s.stream, tuple.Size)
}

// Remaining returns how many tuples are left.
func (s *StreamReader) Remaining() int { return len(s.r.Tuples) - s.pos }

// Done reports whether the stream is exhausted.
func (s *StreamReader) Done() bool { return s.pos >= len(s.r.Tuples) }
