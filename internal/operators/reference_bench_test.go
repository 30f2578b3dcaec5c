package operators

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// refSizes are the relation sizes of the two benchmark workloads:
// query-plans (|S| = 128 Ki, |R| = 64 Ki) and paper-matrix (|S| = 512 Ki,
// |R| = 256 Ki), with DefaultParams' key space and group size.
var refSizes = []struct {
	name string
	s, r int
}{
	{"query-plans", 1 << 17, 1 << 16},
	{"paper-matrix", 1 << 19, 1 << 18},
}

// refSink keeps the benchmarked digests live.
var refSink tuple.Digest

// benchRef runs digest once per iteration over inputs built per size.
func benchRef(b *testing.B, digest func(s, r int) func() tuple.Digest) {
	for _, sz := range refSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := digest(sz.s, sz.r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refSink = f()
			}
		})
	}
}

// BenchmarkRefGroupBy is the Group-by output check: the reference groups
// of the Group-by input, digested.
func BenchmarkRefGroupBy(b *testing.B) {
	benchRef(b, func(s, _ int) func() tuple.Digest {
		rel, err := workload.GroupBy(workload.Config{Seed: 1, Tuples: s, KeySpace: 1 << 24}, 4)
		if err != nil {
			b.Fatal(err)
		}
		return func() tuple.Digest {
			return tuple.DigestOfSeq(RefAggSeq(RefGroupBySeq(tuple.SeqOf(rel.Tuples))))
		}
	})
}

// BenchmarkRefJoin is the Join output check: the reference join of the
// foreign-key pair, digested.
func BenchmarkRefJoin(b *testing.B) {
	benchRef(b, func(s, r int) func() tuple.Digest {
		rRel, sRel, err := workload.FKPair(workload.Config{Seed: 1, Tuples: s}, r)
		if err != nil {
			b.Fatal(err)
		}
		return func() tuple.Digest { return tuple.DigestOfSeq(RefJoinSeq(rRel.Tuples, tuple.SeqOf(sRel.Tuples))) }
	})
}

// BenchmarkRefJoinAgg is the join-agg plan's output check: the reference
// groups of the reference join's matches, digested.
func BenchmarkRefJoinAgg(b *testing.B) {
	benchRef(b, func(s, r int) func() tuple.Digest {
		rRel, sRel, err := workload.FKPair(workload.Config{Seed: 1, Tuples: s}, r)
		if err != nil {
			b.Fatal(err)
		}
		return func() tuple.Digest {
			return tuple.DigestOfSeq(RefAggSeq(RefGroupBySeq(RefJoinSeq(rRel.Tuples, tuple.SeqOf(sRel.Tuples)))))
		}
	})
}
