package tuple

import "math/bits"

// KeyTable maps keys to values of type V without a heap object per key.
// Records (key and value) are appended to fixed-size chunks in insertion
// order and never move, so a value's address stays valid for the table's
// lifetime; an open-addressing index of record numbers (linear probing,
// at most half full) finds them. When V holds no pointers, neither does
// anything the table allocates beyond its short list of chunks, so the
// garbage collector has nothing in it to scan.
//
// A Go map with pointer values costs one allocation per key and grows by
// Go's per-map random hash seed; this table allocates a few chunks and
// index generations whose sizes depend only on the hint and the number
// of distinct keys.
type KeyTable[V any] struct {
	index  []uint32 // record number + 1; 0 marks an empty slot
	shift  uint     // 64 - log2(len(index))
	chunks [][]keyRec[V]
	cshift uint // log2 of the chunk length
	n      int
}

type keyRec[V any] struct {
	key Key
	val V
}

// NewKeyTable returns an empty table sized for about hint keys: up to
// hint insertions never grow its index. hint 0 suits a stream of unknown
// length.
func NewKeyTable[V any](hint int) *KeyTable[V] {
	slots := 16
	for slots < 2*hint {
		slots <<= 1
	}
	// Chunks of about hint/16 records, at least 16 and at most 4096:
	// small tables waste little on their last chunk, large ones add a
	// chunk every few hundred kilobytes.
	chunk := 256
	if hint > 0 {
		chunk = 16
		for chunk < hint/16 && chunk < 4096 {
			chunk <<= 1
		}
	}
	return &KeyTable[V]{
		index:  make([]uint32, slots),
		shift:  uint(64 - bits.TrailingZeros(uint(slots))),
		cshift: uint(bits.TrailingZeros(uint(chunk))),
	}
}

// Len returns the number of distinct keys.
func (t *KeyTable[V]) Len() int { return t.n }

// slot is the home index slot of k (Fibonacci hashing).
func (t *KeyTable[V]) slot(k Key) uint64 {
	return uint64(k) * 0x9e3779b97f4a7c15 >> t.shift
}

func (t *KeyTable[V]) rec(r uint32) *keyRec[V] {
	return &t.chunks[r>>t.cshift][r&(1<<t.cshift-1)]
}

// Find returns the value stored for k, or nil.
func (t *KeyTable[V]) Find(k Key) *V {
	mask := uint64(len(t.index) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return nil
		}
		if r := t.rec(e - 1); r.key == k {
			return &r.val
		}
	}
}

// Upsert returns the value stored for k, adding a zero value first if k
// is new (added reports which).
func (t *KeyTable[V]) Upsert(k Key) (v *V, added bool) {
	mask := uint64(len(t.index) - 1)
	i := t.slot(k)
	for ; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			break
		}
		if r := t.rec(e - 1); r.key == k {
			return &r.val, false
		}
	}
	if 2*(t.n+1) > len(t.index) {
		t.grow()
		mask = uint64(len(t.index) - 1)
		for i = t.slot(k); t.index[i] != 0; i = (i + 1) & mask {
		}
	}
	clen := 1 << t.cshift
	if t.n == len(t.chunks)*clen {
		t.chunks = append(t.chunks, make([]keyRec[V], clen))
	}
	r := t.rec(uint32(t.n))
	r.key = k
	t.n++
	t.index[i] = uint32(t.n)
	return &r.val, true
}

// grow doubles the index and re-enters every record, in insertion order.
func (t *KeyTable[V]) grow() {
	t.index = make([]uint32, 2*len(t.index))
	t.shift--
	mask := uint64(len(t.index) - 1)
	for r := 0; r < t.n; r++ {
		i := t.slot(t.rec(uint32(r)).key)
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(r + 1)
	}
}

// At returns the i-th key inserted and its value, for 0 <= i < Len().
func (t *KeyTable[V]) At(i int) (Key, *V) {
	r := t.rec(uint32(i))
	return r.key, &r.val
}
