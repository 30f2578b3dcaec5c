// Package tuple defines the fundamental data representation used throughout
// the Mondrian Data Engine: fixed-size 16-byte key/value tuples and flat
// relations of such tuples.
//
// The paper (§6, "Evaluated operators") bases all experiments on 16-byte
// tuples comprising an 8-byte integer key and an 8-byte integer payload,
// "representing an in-memory columnar database". A []Tuple is exactly that
// memory layout: a densely packed array of 16-byte records, which is what
// the simulated memory system addresses.
package tuple

import (
	"fmt"
	"sort"
)

// Key is an 8-byte join/grouping key.
type Key uint64

// Value is an 8-byte payload carried alongside a key.
type Value uint64

// Size is the size of one Tuple in simulated memory, in bytes.
const Size = 16

// Tuple is a 16-byte key/value record, the unit of all operator processing.
type Tuple struct {
	Key Key
	Val Value
}

// String implements fmt.Stringer for debugging output.
func (t Tuple) String() string { return fmt.Sprintf("(%d,%d)", t.Key, t.Val) }

// Relation is a named, flat sequence of tuples. Relations are the inputs
// and outputs of every data operator.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// NewRelation returns an empty relation with capacity for n tuples. A
// negative n is treated as zero: capacity is a sizing hint, and turning it
// into a makeslice panic would let bad caller input crash the process.
func NewRelation(name string, n int) *Relation {
	if n < 0 {
		n = 0
	}
	return &Relation{Name: name, Tuples: make([]Tuple, 0, n)}
}

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.Tuples) }

// Bytes returns the relation's footprint in simulated memory.
func (r *Relation) Bytes() int64 { return int64(len(r.Tuples)) * Size }

// Append1 adds a single tuple.
func (r *Relation) Append1(t Tuple) { r.Tuples = append(r.Tuples, t) }

// IsSortedByKey reports whether tuples are in non-decreasing key order.
func (r *Relation) IsSortedByKey() bool {
	return sort.SliceIsSorted(r.Tuples, func(i, j int) bool { return r.Tuples[i].Key < r.Tuples[j].Key })
}

// SplitEven divides the relation into n contiguous chunks whose sizes differ
// by at most one tuple. It is used to distribute an input across memory
// partitions (vaults) before an operator runs.
//
// Chunks share the parent's Name: nothing on the placement path reads a
// per-chunk name, and formatting one per vault put a fmt.Sprintf (and
// its allocations) on every run's setup.
func (r *Relation) SplitEven(n int) []*Relation {
	if n <= 0 {
		panic("tuple: SplitEven requires n > 0")
	}
	out := make([]*Relation, n)
	for i := range out {
		out[i] = &Relation{Name: r.Name, Tuples: r.Chunk(i, n)}
	}
	return out
}

// Chunk returns the tuples of SplitEven's chunk i of n without building
// the chunks: the first len%n chunks hold one tuple more than the rest.
func (r *Relation) Chunk(i, n int) []Tuple {
	q, extra := len(r.Tuples)/n, len(r.Tuples)%n
	start := i*q + min(i, extra)
	if i < extra {
		return r.Tuples[start : start+q+1]
	}
	return r.Tuples[start : start+q]
}
