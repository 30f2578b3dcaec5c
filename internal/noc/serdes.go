package noc

import "fmt"

// SerDesLink models one inter-device serial link direction pair. The paper
// uses SerDes links at 10 GHz with 160 Gb/s of bandwidth per direction.
type SerDesLink struct {
	BandwidthGbps float64 // per direction

	stats LinkStats
}

// LinkStats aggregates SerDes link activity.
type LinkStats struct {
	Messages uint64
	Bytes    uint64
	BusyNs   float64
}

// Merge folds another shard of statistics into s (plain field sums).
func (s *LinkStats) Merge(o LinkStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.BusyNs += o.BusyNs
}

// NewSerDesLink returns a link with the paper's 160 Gb/s bandwidth.
func NewSerDesLink() *SerDesLink { return &SerDesLink{BandwidthGbps: 160} }

// Stats returns a snapshot of the accumulated link statistics.
func (l *SerDesLink) Stats() LinkStats { return l.stats }

// ResetStats clears the accumulated link statistics.
func (l *SerDesLink) ResetStats() { l.stats = LinkStats{} }

// Transfer accounts for size bytes crossing the link in one direction and
// returns the serialization latency in nanoseconds.
func (l *SerDesLink) Transfer(size int) float64 {
	if size <= 0 {
		panic("noc: transfer size must be positive")
	}
	l.stats.Messages++
	l.stats.Bytes += uint64(size)
	ns := float64(size*8) / l.BandwidthGbps // bits / (Gb/s) = ns
	l.stats.BusyNs += ns
	return ns
}

// RecordBulk accounts for n identical size-byte transfers without
// returning a latency (the aggregated path of engine.Exchange; the link
// model is stateless, so the per-message latency is a pure function of
// size).
func (l *SerDesLink) RecordBulk(size int, n uint64) {
	if n == 0 {
		return
	}
	if size <= 0 {
		panic("noc: transfer size must be positive")
	}
	l.stats.Messages += n
	l.stats.Bytes += uint64(size) * n
	l.stats.BusyNs += float64(size*8) / l.BandwidthGbps * float64(n)
}

// Topology selects how cubes are wired to each other and to the CPU.
type Topology int

const (
	// Star wires every cube to the CPU only; cube↔cube traffic crosses
	// two links via the CPU. This is the CPU-centric system's topology.
	Star Topology = iota
	// FullyConnected wires every cube pair directly, plus each cube to
	// the CPU. This is the NMP systems' topology.
	FullyConnected
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Star:
		return "star"
	case FullyConnected:
		return "fully-connected"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// CPUNode is the node index representing the CPU in a Network.
const CPUNode = -1

// Network is the inter-device SerDes fabric over a set of cubes and a CPU.
// Every link is directional: the paper's SerDes links provide 160 Gb/s
// per direction, so opposing flows do not share bandwidth.
type Network struct {
	Topology Topology
	Cubes    int

	cpuTx, cpuRx []*SerDesLink   // CPU→cube i and cube i→CPU
	cubeLinks    [][]*SerDesLink // cubeLinks[src][dst], src≠dst
	links        []*SerDesLink   // every link, in Links order
}

// NewNetwork builds the SerDes network for the given topology.
func NewNetwork(topology Topology, cubes int) *Network {
	if cubes <= 0 {
		panic("noc: network needs at least one cube")
	}
	n := &Network{Topology: topology, Cubes: cubes}
	n.cpuTx = make([]*SerDesLink, cubes)
	n.cpuRx = make([]*SerDesLink, cubes)
	for i := 0; i < cubes; i++ {
		n.cpuTx[i] = NewSerDesLink()
		n.cpuRx[i] = NewSerDesLink()
	}
	if topology == FullyConnected {
		n.cubeLinks = make([][]*SerDesLink, cubes)
		for i := range n.cubeLinks {
			n.cubeLinks[i] = make([]*SerDesLink, cubes)
			for j := range n.cubeLinks[i] {
				if i != j {
					n.cubeLinks[i][j] = NewSerDesLink()
				}
			}
		}
	}
	n.links = append(n.links, n.cpuTx...)
	n.links = append(n.links, n.cpuRx...)
	for i, row := range n.cubeLinks {
		for j, l := range row {
			if i != j {
				n.links = append(n.links, l)
			}
		}
	}
	return n
}

// Links returns every distinct link direction in the network (for energy
// accounting and busy-time bounds): the CPU→cube links, the cube→CPU
// links, then the direct cube pairs of fully-connected topologies. The
// slice is the network's own, built once, so the per-step callers
// allocate nothing; callers must not modify it.
func (n *Network) Links() []*SerDesLink { return n.links }

// LinkNames returns a stable human-readable name for every link, aligned
// index-for-index with Links(): cpu_tx_<cube> (CPU→cube), cpu_rx_<cube>
// (cube→CPU), then cube_<src>_<dst> for the direct cube pairs of
// fully-connected topologies.
func (n *Network) LinkNames() []string {
	out := make([]string, 0, 2*len(n.cpuTx))
	for i := range n.cpuTx {
		out = append(out, fmt.Sprintf("cpu_tx_%d", i))
	}
	for i := range n.cpuRx {
		out = append(out, fmt.Sprintf("cpu_rx_%d", i))
	}
	if n.Topology == FullyConnected {
		for i := 0; i < n.Cubes; i++ {
			for j := 0; j < n.Cubes; j++ {
				if i != j {
					out = append(out, fmt.Sprintf("cube_%d_%d", i, j))
				}
			}
		}
	}
	return out
}

// Transfer moves size bytes between two nodes (cube index or CPUNode) and
// returns total serialization latency across the links crossed.
func (n *Network) Transfer(src, dst, size int) float64 {
	if src == dst {
		return 0
	}
	switch {
	case src == CPUNode:
		return n.cpuTx[n.check(dst)].Transfer(size)
	case dst == CPUNode:
		return n.cpuRx[n.check(src)].Transfer(size)
	case n.Topology == FullyConnected:
		return n.cubeLinks[n.check(src)][n.check(dst)].Transfer(size)
	default:
		// Star: cube → CPU → cube crosses two links.
		return n.cpuRx[n.check(src)].Transfer(size) + n.cpuTx[n.check(dst)].Transfer(size)
	}
}

// RecordBulk accounts for n identical size-byte transfers between two
// nodes, crossing the same links Transfer would, without returning a
// latency.
func (n *Network) RecordBulk(src, dst, size int, count uint64) {
	if src == dst || count == 0 {
		return
	}
	switch {
	case src == CPUNode:
		n.cpuTx[n.check(dst)].RecordBulk(size, count)
	case dst == CPUNode:
		n.cpuRx[n.check(src)].RecordBulk(size, count)
	case n.Topology == FullyConnected:
		n.cubeLinks[n.check(src)][n.check(dst)].RecordBulk(size, count)
	default:
		// Star: cube → CPU → cube crosses two links.
		n.cpuRx[n.check(src)].RecordBulk(size, count)
		n.cpuTx[n.check(dst)].RecordBulk(size, count)
	}
}

func (n *Network) check(cube int) int {
	if cube < 0 || cube >= n.Cubes {
		panic(fmt.Sprintf("noc: cube %d out of range [0,%d)", cube, n.Cubes))
	}
	return cube
}
