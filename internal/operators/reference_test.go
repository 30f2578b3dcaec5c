package operators

import (
	"math/rand"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// randomTuples draws n tuples with keys in [0, keys) and random payloads.
func randomTuples(rng *rand.Rand, n, keys int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(keys)), Val: tuple.Value(rng.Uint64())}
	}
	return ts
}

// Property: the in-place region digest equals the digest of the gathered
// copy, for any split of any tuples into regions (empty ones included).
func TestGatherDigestMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := newEngine(t, testVariants()[5].cfg)
	for trial := 0; trial < 200; trial++ {
		regions := make([]*engine.Region, rng.Intn(6))
		for i := range regions {
			ts := randomTuples(rng, rng.Intn(4)*rng.Intn(50), 1+rng.Intn(100))
			r, err := e.Place(rng.Intn(e.NumVaults()), ts)
			if err != nil {
				t.Fatal(err)
			}
			regions[i] = r
		}
		got, want := GatherDigest(regions), tuple.DigestOf(Gather(regions))
		if got != want {
			t.Fatalf("trial %d: GatherDigest %+v, DigestOf(Gather) %+v", trial, got, want)
		}
		if n := len(Gather(regions)); uint64(n) != got.Count {
			t.Fatalf("trial %d: Gather holds %d tuples, digest counts %d", trial, n, got.Count)
		}
	}
}

// Property: the streamed references digest exactly like the slices the
// exported references build, composed the way the plan checks compose
// them (a join fed into a join, a join fed into the group map).
func TestStreamedReferencesMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	groupDigest := func(in tuple.Seq) tuple.Digest {
		return tuple.DigestOfSeq(RefAggSeq(RefGroupBySeq(in)))
	}
	for trial := 0; trial < 100; trial++ {
		keys := 1 + rng.Intn(64)
		r := randomTuples(rng, rng.Intn(80), keys)
		d := randomTuples(rng, rng.Intn(80), keys)
		s := randomTuples(rng, rng.Intn(300), 2*keys)

		join := RefJoinSeq(r, tuple.SeqOf(s))
		if got, want := tuple.DigestOfSeq(join), tuple.DigestOf(RefJoin(r, s)); got != want {
			t.Fatalf("trial %d: join digest %+v, want %+v", trial, got, want)
		}
		if got, want := groupDigest(tuple.SeqOf(s)), tuple.DigestOf(RefGroupByTuples(s)); got != want {
			t.Fatalf("trial %d: group-by digest %+v, want %+v", trial, got, want)
		}
		if got, want := groupDigest(join), tuple.DigestOf(RefGroupByTuples(RefJoin(r, s))); got != want {
			t.Fatalf("trial %d: join-agg digest %+v, want %+v", trial, got, want)
		}
		star := RefJoinSeq(r, RefJoinSeq(d, tuple.SeqOf(s)))
		if got, want := groupDigest(star), tuple.DigestOf(RefGroupByTuples(RefJoin(r, RefJoin(d, s)))); got != want {
			t.Fatalf("trial %d: star-join-agg digest %+v, want %+v", trial, got, want)
		}
	}
}
