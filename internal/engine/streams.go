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
	for i, r := range regions {
		readers[i] = &StreamReader{u: u, r: r, stream: -1}
	}
	if _, err := u.bindStreams(readers, nil); err != nil {
		return nil, err
	}
	return readers, nil
}

// bindStreams gives readers[i] stream buffer i on stream-buffer units and
// leaves them demand readers on cache-backed ones. ranges is scratch
// storage for the stream ranges, returned for reuse.
func (u *Unit) bindStreams(readers []*StreamReader, ranges []hmc.Range) ([]hmc.Range, error) {
	if u.Streams == nil {
		return ranges, nil
	}
	if cap(ranges) < len(readers) {
		ranges = make([]hmc.Range, 0, len(readers))
	}
	ranges = ranges[:0]
	for i, s := range readers {
		if s.r.Vault != u.Vault {
			return ranges, fmt.Errorf("engine: region in vault %d streamed from unit %d (vault %d)",
				s.r.Vault.ID, u.ID, u.Vault.ID)
		}
		ranges = append(ranges, hmc.Range{Start: s.r.Addr, End: s.r.addrOf(len(s.r.Tuples))})
		s.stream = i
	}
	return ranges, u.Streams.Configure(ranges)
}

// StreamGroup is a reusable OpenStreams over views of regions. It keeps
// the views, readers and stream ranges that OpenStreams allocates per
// call, so a merge pass that opens one group per run group allocates
// nothing once warm. Each unit owns one group (Unit.StreamGroup); the
// storage is host scratch, and the views are dropped at Engine.Reset.
type StreamGroup struct {
	u       *Unit
	views   []Region
	readers []StreamReader
	ptrs    []*StreamReader
	ranges  []hmc.Range
}

// StreamGroup returns the unit's stream group, emptied for a new set of
// views. It invalidates the readers of the group's previous Open.
func (u *Unit) StreamGroup() *StreamGroup {
	g := &u.group
	g.u = u
	g.views = g.views[:0]
	return g
}

// AddView adds tuples [start, end) of r as the group's next stream: the
// region r.View(start, end) returns, without allocating it.
func (g *StreamGroup) AddView(r *Region, start, end int) {
	g.views = append(g.views, r.view(start, end))
}

// Open ties the added views to the unit's stream buffers, as OpenStreams
// would, and returns one reader per view in the group's storage.
func (g *StreamGroup) Open() ([]*StreamReader, error) {
	g.readers = g.readers[:0]
	g.ptrs = g.ptrs[:0]
	for i := range g.views {
		g.readers = append(g.readers, StreamReader{u: g.u, r: &g.views[i], stream: -1})
	}
	for i := range g.readers {
		g.ptrs = append(g.ptrs, &g.readers[i])
	}
	var err error
	g.ranges, err = g.u.bindStreams(g.ptrs, g.ranges)
	if err != nil {
		return nil, err
	}
	return g.ptrs, nil
}

// release drops the group's references to region storage, keeping its
// capacity.
func (g *StreamGroup) release() {
	clear(g.views[:cap(g.views)])
	clear(g.readers[:cap(g.readers)])
	g.views, g.readers, g.ptrs = g.views[:0], g.readers[:0], g.ptrs[:0]
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
