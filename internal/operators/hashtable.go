package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// hashTable is an open-addressing (linear probing) table materialized in a
// simulated memory region, used by the hash-based probe algorithms (the
// CPU-preferred path and NMP-rand). Every slot touch is a real 16-byte
// access to the region, so collisions, cache behaviour and DRAM row
// traffic all emerge from the actual probe sequence.
type hashTable struct {
	region   *engine.Region
	occupied []bool
	mask     uint64
	entries  int
}

// newHashTable allocates a table with ≥ 2× capacity slots (power of two)
// in the given vault.
func newHashTable(e *engine.Engine, vaultID, capacity int) (*hashTable, error) {
	slots := 4
	for slots < capacity*2 {
		slots <<= 1
	}
	r, err := e.AllocOut(vaultID, slots)
	if err != nil {
		return nil, err
	}
	r.Tuples = make([]tuple.Tuple, slots)
	return &hashTable{region: r, occupied: make([]bool, slots), mask: uint64(slots - 1)}, nil
}

// slotHash spreads keys over slots (Fibonacci hashing).
func (h *hashTable) slotHash(k tuple.Key) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15) >> 1 & h.mask
}

// insert stores one tuple, probing linearly for a free slot. u is charged
// one 16-byte access per probed slot plus the store.
func (h *hashTable) insert(u *engine.Unit, t tuple.Tuple) error {
	if h.entries >= len(h.occupied) {
		return fmt.Errorf("operators: hash table full (%d slots)", len(h.occupied))
	}
	i := h.slotHash(t.Key)
	for h.occupied[i] {
		u.LoadTuple(h.region, int(i))
		i = (i + 1) & h.mask
	}
	h.occupied[i] = true
	h.entries++
	u.StoreTuple(h.region, int(i), t)
	return nil
}

// lookup finds the tuple with the given key, charging one slot read per
// probe. It reports whether the key was present.
func (h *hashTable) lookup(u *engine.Unit, k tuple.Key) (tuple.Tuple, bool) {
	i := h.slotHash(k)
	for h.occupied[i] {
		t := u.LoadTuple(h.region, int(i))
		if t.Key == k {
			return t, true
		}
		i = (i + 1) & h.mask
	}
	// The miss still reads the empty slot that terminates the probe.
	u.LoadTuple(h.region, int(i))
	return tuple.Tuple{}, false
}

// aggTable is the Group-by aggregation table: per group a 48-byte record
// of running aggregates (count, sum, min, max, sum-of-squares share the
// record; avg derives from count and sum). Updates charge a 48-byte
// read-modify-write at the group's record, matching the random-access
// pattern of hash aggregation.
type aggTable struct {
	base   int64
	slots  uint64
	groups map[tuple.Key]*Aggregates
}

// Aggregates holds the paper's six Group-by aggregation functions
// (avg, count, min, max, sum, sum squared — §6).
type Aggregates struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
	SumSq uint64
}

// Avg returns the integer average (0 for empty groups).
func (a *Aggregates) Avg() uint64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / a.Count
}

// newAggTable allocates the aggregation records region in the given vault.
func newAggTable(e *engine.Engine, vaultID, expectedGroups int) (*aggTable, error) {
	slots := 4
	for slots < expectedGroups*2 {
		slots <<= 1
	}
	r, err := e.AllocOut(vaultID, slots*3) // 3 tuples = 48 B per record
	if err != nil {
		return nil, err
	}
	return &aggTable{base: r.Addr, slots: uint64(slots), groups: make(map[tuple.Key]*Aggregates, expectedGroups)}, nil
}

// update folds one tuple into its group's running aggregates.
func (a *aggTable) update(u *engine.Unit, t tuple.Tuple) {
	slot := (uint64(t.Key) * 0x9e3779b97f4a7c15) >> 1 % a.slots
	addr := a.base + int64(slot)*48
	u.ReadBytes(addr, 48)
	g, ok := a.groups[t.Key]
	if !ok {
		g = &Aggregates{Min: ^uint64(0)}
		a.groups[t.Key] = g
	}
	v := uint64(t.Val)
	g.Count++
	g.Sum += v
	g.SumSq += v * v
	if v < g.Min {
		g.Min = v
	}
	if v > g.Max {
		g.Max = v
	}
	u.WriteBytes(addr, 48)
}
