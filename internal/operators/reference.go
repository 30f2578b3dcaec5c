package operators

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Reference implementations: plain-Go oracles the simulated operators are
// verified against in tests and in simulate's cross-checks.
//
// The stream constructors (Ref*Seq) are kept out of line: a closure built
// by an inlined function is named after the caller, and perfbench
// attributes host time to output checking by the Ref* names.

// RefScan returns the tuples matching the needle.
func RefScan(in []tuple.Tuple, needle tuple.Key) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range in {
		if t.Key == needle {
			out = append(out, t)
		}
	}
	return out
}

// RefSort returns a key-sorted copy of the input.
func RefSort(in []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(in))
	copy(out, in)
	tuple.SortSliceByKey(out)
	return out
}

// RefGroupBy computes the six aggregates per group.
func RefGroupBy(in []tuple.Tuple) map[tuple.Key]*Aggregates {
	groups := RefGroupBySeq(tuple.SeqOf(in))
	out := make(map[tuple.Key]*Aggregates, groups.Len())
	for i := 0; i < groups.Len(); i++ {
		k, a := groups.At(i)
		out[k] = a
	}
	return out
}

// RefGroupBySeq is RefGroupBy over a tuple stream, so a composed
// reference (a join's matches) feeds the group table without being built
// as a slice. The groups sit in a flat key table, in first-seen order.
//
//go:noinline
func RefGroupBySeq(in tuple.Seq) *tuple.KeyTable[Aggregates] {
	groups := tuple.NewKeyTable[Aggregates](0)
	in(func(t tuple.Tuple) {
		g, added := groups.Upsert(t.Key)
		if added {
			g.Min = ^uint64(0)
		}
		g.fold(uint64(t.Val))
	})
	return groups
}

// RefGroupByTuples renders RefGroupBy in the operator's output encoding
// (six tuples per group in AggKind order) for multiset comparison.
func RefGroupByTuples(in []tuple.Tuple) []tuple.Tuple {
	groups := RefGroupBySeq(tuple.SeqOf(in))
	out := make([]tuple.Tuple, 0, groups.Len()*int(numAggs))
	RefAggSeq(groups)(func(t tuple.Tuple) { out = append(out, t) })
	return out
}

// RefAggSeq streams groups in the operator's output encoding (six tuples
// per group in AggKind order), in the table's insertion order.
//
//go:noinline
func RefAggSeq(groups *tuple.KeyTable[Aggregates]) tuple.Seq {
	return func(yield func(tuple.Tuple)) {
		for i := 0; i < groups.Len(); i++ {
			k, a := groups.At(i)
			vals := [numAggs]uint64{a.Count, a.Sum, a.Min, a.Max, a.Avg(), a.SumSq}
			for _, v := range vals {
				yield(tuple.Tuple{Key: k, Val: tuple.Value(v)})
			}
		}
	}
}

// RefJoin computes R ⋈ S with a nested-loop join (via a hash table for
// speed), producing the operator's output encoding.
func RefJoin(r, s []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	RefJoinSeq(r, tuple.SeqOf(s))(func(t tuple.Tuple) { out = append(out, t) })
	return out
}

// RefJoinSeq streams RefJoin's output for a probe stream s, in the same
// order, without building it: one join's matches can feed the next join
// or the group table directly. Of R tuples sharing a key, the last one
// joins.
//
//go:noinline
func RefJoinSeq(r []tuple.Tuple, s tuple.Seq) tuple.Seq {
	return func(yield func(tuple.Tuple)) {
		rByKey := tuple.NewKeyTable[tuple.Value](len(r))
		for _, t := range r {
			v, _ := rByKey.Upsert(t.Key)
			*v = t.Val
		}
		s(func(st tuple.Tuple) {
			if rv := rByKey.Find(st.Key); rv != nil {
				yield(combine(tuple.Tuple{Key: st.Key, Val: *rv}, st))
			}
		})
	}
}

// Gather flattens operator output regions into one tuple slice.
func Gather(regions []*engine.Region) []tuple.Tuple {
	n := 0
	for _, r := range regions {
		n += r.Len()
	}
	if n == 0 {
		return nil
	}
	out := make([]tuple.Tuple, 0, n)
	for _, r := range regions {
		out = append(out, r.Tuples...)
	}
	return out
}

// GatherDigest is tuple.DigestOf(Gather(regions)), computed where the
// tuples lie instead of on a copy.
func GatherDigest(regions []*engine.Region) tuple.Digest {
	var d tuple.Digest
	for _, r := range regions {
		for _, t := range r.Tuples {
			d.Add(t)
		}
	}
	return d
}
