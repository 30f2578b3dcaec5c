package operators

import (
	"encoding/binary"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

const fuzzKeySpace = 1 << 16

// fuzzTuples decodes arbitrary fuzzer bytes into tuples with keys bounded
// by fuzzKeySpace (the HighBits partitioner requires keys < KeySpace).
// Capped at 1024 tuples to bound per-input runtime.
func fuzzTuples(data []byte) []tuple.Tuple {
	n := len(data) / 16
	if n > 1024 {
		n = 1024
	}
	ts := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, tuple.Tuple{
			Key: tuple.Key(binary.LittleEndian.Uint64(data[i*16:]) % fuzzKeySpace),
			Val: tuple.Value(binary.LittleEndian.Uint64(data[i*16+8:])),
		})
	}
	return ts
}

// fuzzSeeds registers a shared seed corpus: empty input, uniform keys,
// all-identical keys, total skew to one bucket, and reverse-sorted keys.
// Under plain `go test` these run as regression cases.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	uniform := make([]byte, 16*64)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(uniform[i*16:], uint64(i)*2654435761)
		binary.LittleEndian.PutUint64(uniform[i*16+8:], uint64(i))
	}
	f.Add(uniform)
	same := make([]byte, 16*32)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint64(same[i*16:], 12345)
		binary.LittleEndian.PutUint64(same[i*16+8:], uint64(i))
	}
	f.Add(same)
	skew := make([]byte, 16*48) // keys ≡ 0 (mod 8): all tuples hit vault 0
	for i := 0; i < 48; i++ {
		binary.LittleEndian.PutUint64(skew[i*16:], uint64(i)*8*64)
		binary.LittleEndian.PutUint64(skew[i*16+8:], uint64(i))
	}
	f.Add(skew)
	rev := make([]byte, 16*40)
	for i := 0; i < 40; i++ {
		binary.LittleEndian.PutUint64(rev[i*16:], uint64(4000-100*i))
		binary.LittleEndian.PutUint64(rev[i*16+8:], uint64(i))
	}
	f.Add(rev)
}

// nmpFuzzEngine builds a fresh 8-vault NMP engine (permutable or not).
func nmpFuzzEngine(t *testing.T, perm bool) *engine.Engine {
	t.Helper()
	for _, v := range testVariants() {
		if (perm && v.name == "NMP-perm") || (!perm && v.name == "NMP-rand") {
			return newEngine(t, v.cfg)
		}
	}
	t.Fatal("test variant not found")
	return nil
}

// placeEven spreads tuples across vaults like the simulation harness does.
func placeEven(t *testing.T, e *engine.Engine, ts []tuple.Tuple) []*engine.Region {
	t.Helper()
	rel := &tuple.Relation{Name: "fuzz", Tuples: ts}
	return place(t, e, rel)
}

// FuzzPartitionRoundTrip feeds arbitrary key distributions through the
// real NMP partitioning phase (both the permutable and conventional
// distribution paths) and asserts the shuffle invariants: every tuple
// lands in its key's bucket, and partition-then-concatenate is a multiset
// identity. Pure Partitioner properties (range, HighBits monotonicity)
// are checked on the same input.
func FuzzPartitionRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTuples(data)

		// Pure bucket-function properties at several bucket counts.
		for _, nb := range []int{1, 3, 8, 64} {
			mod := Partitioner{Buckets: nb}
			high := Partitioner{Buckets: nb, KeySpace: fuzzKeySpace, HighBits: true}
			prevHigh := -1
			for k := uint64(0); k < fuzzKeySpace; k += 977 {
				if b := mod.Bucket(tuple.Key(k)); b < 0 || b >= nb {
					t.Fatalf("mod bucket %d out of range [0,%d)", b, nb)
				}
				hb := high.Bucket(tuple.Key(k))
				if hb < 0 || hb >= nb {
					t.Fatalf("high bucket %d out of range [0,%d)", hb, nb)
				}
				if hb < prevHigh {
					t.Fatalf("HighBits not monotonic: key %d → bucket %d after %d", k, hb, prevHigh)
				}
				prevHigh = hb
			}
		}

		// Engine round-trip through both distribution paths.
		for _, perm := range []bool{false, true} {
			e := nmpFuzzEngine(t, perm)
			inputs := placeEven(t, e, ts)
			part := Partitioner{Buckets: e.NumVaults()}
			pr, err := PartitionPhase(e, Config{Costs: DefaultCosts(), KeySpace: fuzzKeySpace}, inputs, part)
			if err != nil {
				t.Fatalf("perm=%v: %v", perm, err)
			}
			var got []tuple.Tuple
			for b, r := range pr.Buckets {
				for _, tp := range r.Tuples {
					if part.Bucket(tp.Key) != b {
						t.Fatalf("perm=%v: tuple %v in bucket %d, want %d", perm, tp, b, part.Bucket(tp.Key))
					}
				}
				got = append(got, r.Tuples...)
			}
			if !tuple.SameMultiset(got, ts) {
				t.Fatalf("perm=%v: partition lost or invented tuples (%d in, %d out)", perm, len(ts), len(got))
			}
		}
	})
}

// FuzzRadixRoundTrip runs the LSD radix sort over arbitrary inputs and
// asserts it produces a sorted permutation of its input.
func FuzzRadixRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTuples(data)
		e := nmpFuzzEngine(t, false)
		r, err := e.Place(0, ts)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := e.AllocOut(0, max(len(ts), 1))
		if err != nil {
			t.Fatal(err)
		}
		e.BeginStep(engine.StepProfile{Name: "radix-fuzz", DepIPC: 1.2, InstPerAccess: 3})
		sorted, err := radixSortLocal(e.UnitForVault(0), DefaultCosts(), r, scratch, fuzzKeySpace, false)
		e.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < sorted.Len(); i++ {
			if sorted.Tuples[i].Key < sorted.Tuples[i-1].Key {
				t.Fatalf("not sorted at %d: %v > %v", i, sorted.Tuples[i-1], sorted.Tuples[i])
			}
		}
		if !tuple.SameMultiset(sorted.Tuples, ts) {
			t.Fatalf("radix sort is not a permutation (%d in, %d out)", len(ts), sorted.Len())
		}
	})
}
