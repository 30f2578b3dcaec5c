package simulate

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// outputCheck is how one run's output is verified: the regions the run
// left in the vaults are digested where they lie and compared with the
// digest of the reference output, which is streamed rather than built.
type outputCheck struct {
	out  []*engine.Region
	want tuple.Digest
	// ordered marks a run whose final stage is a Sort: sorted, its sorted
	// buckets in range order, must be key-ordered and hold the reference
	// output as well.
	ordered bool
	sorted  []*engine.Region
	// miscount marks a Scan whose own match count disagreed with the
	// reference's.
	miscount bool
}

// verifyOutput reports whether a run's output passes its check.
func verifyOutput(c *outputCheck) bool {
	if c.miscount || operators.GatherDigest(c.out) != c.want {
		return false
	}
	return !c.ordered || verifyOrdered(c.sorted, c.want)
}

// verifyOrdered checks bucket-local sortedness, global range order, and
// multiset equality with the expected output, for a Sort's or a plan's
// sorted buckets.
func verifyOrdered(sorted []*engine.Region, want tuple.Digest) bool {
	if sorted == nil {
		return false
	}
	var last tuple.Key
	seen := false
	for _, b := range sorted {
		for i := 1; i < b.Len(); i++ {
			if b.Tuples[i].Key < b.Tuples[i-1].Key {
				return false
			}
		}
		if b.Len() == 0 {
			continue
		}
		if seen && b.Tuples[0].Key < last {
			return false
		}
		last, seen = b.Tuples[b.Len()-1].Key, true
	}
	return operators.GatherDigest(sorted) == want
}

// refGroupByDigest is the digest of the group-by reference output over a
// tuple stream.
func refGroupByDigest(in tuple.Seq) tuple.Digest {
	return tuple.DigestOfSeq(operators.RefAggSeq(operators.RefGroupBySeq(in)))
}
