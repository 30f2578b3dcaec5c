// Package noc models the interconnects of the evaluated systems: the 2D
// mesh network-on-chip that links the 16 vaults inside one HMC cube, and
// the SerDes links that connect cubes to each other and to the CPU.
//
// Paper Table 3: NOC is a 2D mesh with 16 B links at 3 cycles/hop; the
// inter-HMC network uses SerDes links at 10 GHz providing 160 Gb/s per
// direction, arranged fully connected for the NMP systems and as a star
// (through the CPU) for the CPU-centric system. Table 4 gives NOC energy
// of 0.04 pJ/bit/mm and SerDes energy of 3 pJ/bit busy, 1 pJ/bit idle.
package noc

import "fmt"

// Mesh models one cube's 2D mesh NoC with XY routing.
type Mesh struct {
	Width, Height int
	linkBytes     int     // flit width in bytes (16 B in the paper)
	cyclesPerHop  int     // router+link latency per hop (3 in the paper)
	freqGHz       float64 // NoC clock (1 GHz, matching the logic layer)
	hopMM         float64 // physical length of one hop in millimetres

	stats MeshStats

	// hops[src*tiles+dst] caches the XY hop counts (the mesh is small —
	// 16 tiles — and Hops sits on the per-access simulation path).
	hops []uint8

	// costs[h] is what one costSize-byte message over h hops adds, for
	// every h up to the mesh diameter. Transfer recomputes the table when
	// the message size changes; the LLC's traffic is all one block size.
	costSize int
	costs    []hopCost
}

// hopCost is one message's latency and its additions to the link busy
// time and the bit-millimetre energy basis, computed by the same
// expressions, in the same order, as a per-call evaluation would.
type hopCost struct {
	lat, busyNs, bitMM float64
}

// MaxHopBucket bounds the per-hop message histogram in MeshStats; longer
// routes (impossible on the paper's 4×4 meshes, whose diameter is 6) fold
// into the last bucket.
const MaxHopBucket = 15

// MeshStats aggregates NoC activity for energy accounting.
type MeshStats struct {
	Messages uint64
	Bytes    uint64
	BitMM    float64 // Σ bits × millimetres traveled (energy basis)
	BusyNs   float64 // total link occupancy

	// HopCounts[h] counts messages that traveled h hops (h clamped to
	// MaxHopBucket) — the locality histogram behind the observability
	// layer's mesh_hops metric.
	HopCounts [MaxHopBucket + 1]uint64
}

// Merge folds another shard of statistics into s (plain field sums).
func (s *MeshStats) Merge(o MeshStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.BitMM += o.BitMM
	s.BusyNs += o.BusyNs
	for i, n := range o.HopCounts {
		s.HopCounts[i] += n
	}
}

func (s *MeshStats) countHops(hops int, n uint64) {
	if hops > MaxHopBucket {
		hops = MaxHopBucket
	}
	s.HopCounts[hops] += n
}

// NewMesh creates a w×h mesh with the paper's link parameters.
func NewMesh(w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	m := &Mesh{Width: w, Height: h, linkBytes: 16, cyclesPerHop: 3, freqGHz: 1, hopMM: 1,
		costs: make([]hopCost, w+h-1)}
	tiles := w * h
	m.hops = make([]uint8, tiles*tiles)
	for s := 0; s < tiles; s++ {
		for d := 0; d < tiles; d++ {
			m.hops[s*tiles+d] = uint8(abs(s%w-d%w) + abs(s/w-d/w))
		}
	}
	return m
}

// Tiles returns the number of mesh endpoints.
func (m *Mesh) Tiles() int { return m.Width * m.Height }

// Stats returns a snapshot of accumulated mesh statistics.
func (m *Mesh) Stats() MeshStats { return m.stats }

// ResetStats clears the accumulated statistics.
func (m *Mesh) ResetStats() { m.stats = MeshStats{} }

// Hops returns the XY-routing hop count between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	tiles := m.Tiles()
	if src < 0 || src >= tiles || dst < 0 || dst >= tiles {
		panic(fmt.Sprintf("noc: tile out of range (src=%d dst=%d tiles=%d)", src, dst, tiles))
	}
	return int(m.hops[src*tiles+dst])
}

// Transfer accounts for moving size bytes from src to dst and returns the
// latency in nanoseconds: per-hop pipeline latency plus serialization of
// the message over the flit-wide links.
func (m *Mesh) Transfer(src, dst, size int) float64 {
	if size <= 0 {
		panic("noc: transfer size must be positive")
	}
	hops := m.Hops(src, dst)
	if size != m.costSize {
		m.fillCosts(size)
	}
	c := &m.costs[hops]
	m.stats.Messages++
	m.stats.Bytes += uint64(size)
	m.stats.BitMM += c.bitMM
	m.stats.countHops(hops, 1)
	m.stats.BusyNs += c.busyNs
	return c.lat
}

// fillCosts computes the per-hop costs of a size-byte message.
func (m *Mesh) fillCosts(size int) {
	flits := (size + m.linkBytes - 1) / m.linkBytes
	cycleNs := 1.0 / m.freqGHz
	for hops := range m.costs {
		// Head latency: hops × cyclesPerHop; body streams behind at one
		// flit per cycle (wormhole routing).
		lat := float64(hops*m.cyclesPerHop)*cycleNs + float64(flits-1)*cycleNs
		if hops == 0 {
			lat = float64(flits-1) * cycleNs
		}
		m.costs[hops] = hopCost{
			lat:    lat,
			busyNs: float64(flits) * cycleNs * float64(max(hops, 1)),
			bitMM:  float64(size*8) * float64(hops) * m.hopMM,
		}
	}
	m.costSize = size
}

// RecordBulk accounts for n identical size-byte messages from src to dst
// without returning a latency. It is the aggregated-statistics path used
// by engine.Exchange, whose senders ignore per-message latency (the mesh
// model is stateless: Transfer's latency depends only on src, dst, size).
func (m *Mesh) RecordBulk(src, dst, size int, n uint64) {
	if n == 0 {
		return
	}
	if size <= 0 {
		panic("noc: transfer size must be positive")
	}
	hops := m.Hops(src, dst)
	m.stats.Messages += n
	m.stats.Bytes += uint64(size) * n
	m.stats.BitMM += float64(size*8) * float64(hops) * m.hopMM * float64(n)
	m.stats.countHops(hops, n)
	flits := (size + m.linkBytes - 1) / m.linkBytes
	cycleNs := 1.0 / m.freqGHz
	m.stats.BusyNs += float64(flits) * cycleNs * float64(max(hops, 1)) * float64(n)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
