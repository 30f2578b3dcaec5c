package tuple

// Digest is an order-insensitive fingerprint of a multiset of tuples.
//
// The Mondrian partitioning phase deliberately permutes the placement of
// tuples inside a destination partition (data permutability, paper §4.1.2),
// so correctness of a shuffle cannot be checked with ordered equality.
// Digest combines commutative reductions (count, sum, xor of a per-tuple
// mix) so that two tuple sequences compare equal iff — with overwhelming
// probability — they contain the same tuples with the same multiplicities,
// in any order.
type Digest struct {
	Count uint64
	Sum   uint64
	Xor   uint64
}

// mix64 is a finalizer-style bijective mixer (splitmix64 variant) applied
// to each tuple so that structured inputs (e.g. sequential keys) still
// produce well-distributed digest components.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashTuple maps a tuple to a 64-bit value; key and payload both count.
func hashTuple(t Tuple) uint64 {
	return mix64(mix64(uint64(t.Key))*0x9e3779b97f4a7c15 + uint64(t.Val))
}

// Add folds one tuple into the digest.
func (d *Digest) Add(t Tuple) {
	h := hashTuple(t)
	d.Count++
	d.Sum += h
	d.Xor ^= h
}

// Equal reports whether two digests are identical.
func (d Digest) Equal(o Digest) bool { return d == o }

// DigestOf computes the multiset digest of a tuple slice.
func DigestOf(ts []Tuple) Digest {
	var d Digest
	for _, t := range ts {
		d.Add(t)
	}
	return d
}

// Seq is a tuple stream: calling it hands each tuple to yield, in order.
// A stream composed from other streams (a join's matches fed to a
// group-by) never holds its tuples all at once, as a slice would.
type Seq func(yield func(Tuple))

// SeqOf streams the tuples of a slice.
func SeqOf(ts []Tuple) Seq {
	return func(yield func(Tuple)) {
		for _, t := range ts {
			yield(t)
		}
	}
}

// DigestOfSeq is DigestOf over a stream.
func DigestOfSeq(s Seq) Digest {
	var d Digest
	s(d.Add)
	return d
}

// SameMultiset reports whether a and b hold the same tuples irrespective
// of order (probabilistically, via digests).
func SameMultiset(a, b []Tuple) bool {
	return DigestOf(a).Equal(DigestOf(b))
}
