package tuple

import (
	"math/rand"
	"testing"
)

// TestKeyTableMatchesMap drives the key table and a Go map with the same
// random upserts and lookups, from a hint of 0 (the index grows many
// times) and from a hint near the key count: keys repeat, key 0 and the
// largest key occur, every lookup agrees, At visits each key once in
// first-seen order, and a digest over (key, value) pairs does not depend
// on the order either side iterates in.
func TestKeyTableMatchesMap(t *testing.T) {
	for _, tc := range []struct{ hint, ops, keys int }{
		{0, 5000, 1500},
		{1000, 5000, 1000},
		{64, 20000, 5},
		{0, 40000, 30000},
	} {
		rng := rand.New(rand.NewSource(int64(tc.ops + tc.keys)))
		tab := NewKeyTable[uint64](tc.hint)
		oracle := map[Key]uint64{}
		var order []Key
		key := func() Key {
			switch rng.Intn(20) {
			case 0:
				return 0
			case 1:
				return ^Key(0)
			}
			return Key(rng.Intn(tc.keys)) << (rng.Intn(3) * 20)
		}
		for i := 0; i < tc.ops; i++ {
			k := key()
			if rng.Intn(3) == 0 {
				got := tab.Find(k)
				want, ok := oracle[k]
				if (got != nil) != ok || (ok && *got != want) {
					t.Fatalf("%+v op %d: Find(%d) = %v, want %d/%v", tc, i, k, got, want, ok)
				}
				continue
			}
			v, added := tab.Upsert(k)
			if _, ok := oracle[k]; added == ok {
				t.Fatalf("%+v op %d: Upsert(%d) added %v, key present %v", tc, i, k, added, ok)
			}
			if added {
				order = append(order, k)
			}
			*v += uint64(i) + 1
			oracle[k] += uint64(i) + 1
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("%+v: Len %d, want %d", tc, tab.Len(), len(oracle))
		}
		var got, want Digest
		for i := 0; i < tab.Len(); i++ {
			k, v := tab.At(i)
			if k != order[i] {
				t.Fatalf("%+v: At(%d) key %d, want %d (first-seen order)", tc, i, k, order[i])
			}
			if *v != oracle[k] {
				t.Fatalf("%+v: At(%d) value %d, want %d", tc, i, *v, oracle[k])
			}
			got.Add(Tuple{Key: k, Val: Value(*v)})
		}
		for k, v := range oracle {
			want.Add(Tuple{Key: k, Val: Value(v)})
		}
		if got != want {
			t.Fatalf("%+v: table digest %v, map digest %v", tc, got, want)
		}
	}
}

// TestKeyTableValuesStayPut: a value's address survives later inserts and
// index growth (records live in chunks that never move).
func TestKeyTableValuesStayPut(t *testing.T) {
	tab := NewKeyTable[int](0)
	first, _ := tab.Upsert(7)
	*first = 42
	for k := Key(100); k < 10000; k++ {
		tab.Upsert(k)
	}
	if v := tab.Find(7); v != first || *v != 42 {
		t.Fatalf("Find(7) = %p (%d), want %p (42)", v, *v, first)
	}
}
