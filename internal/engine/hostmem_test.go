package engine

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Host tuple storage is sized from counts the simulator already knows,
// and engines keep none of it across Reset.

// TestShuffleBeginReservesExactHostStorage checks that the histogram
// exchange sizes every destination's host storage to its exact inbound
// count, that a destination outgrowing its share reallocates instead of
// spilling into its neighbour, and that a re-armed destination with room
// keeps its storage.
func TestShuffleBeginReservesExactHostStorage(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	nv := e.NumVaults()
	dests, err := e.MallocPermutable(64)
	if err != nil {
		t.Fatal(err)
	}
	perSource := make([][]int64, nv)
	for s := range perSource {
		perSource[s] = make([]int64, nv)
		for d := range perSource[s] {
			perSource[s][d] = int64((s + d) % 3)
		}
	}
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}
	for d, r := range dests {
		want := 0
		for s := range perSource {
			want += int(perSource[s][d])
		}
		if r.Len() != 0 || cap(r.Tuples) != want {
			t.Fatalf("dest %d: len %d cap %d, want an empty region with room for exactly %d", d, r.Len(), cap(r.Tuples), want)
		}
	}

	// Fill destination 0 past its share: destination 1 must not change.
	r0, r1 := dests[0], dests[1]
	r1.Tuples = append(r1.Tuples, tuple.Tuple{Key: 7, Val: 7})
	for n := cap(r0.Tuples); n >= 0; n-- {
		r0.Tuples = append(r0.Tuples, tuple.Tuple{Key: 99, Val: 99})
	}
	if r1.Tuples[0] != (tuple.Tuple{Key: 7, Val: 7}) {
		t.Fatalf("destination 0 spilled into destination 1: %+v", r1.Tuples[0])
	}
	e.ShuffleEnd(dests)

	// Re-arm with fewer tuples: destinations that have the room keep it.
	for _, r := range dests {
		r.Reset()
	}
	before := &r1.Tuples[:1][0]
	for s := range perSource {
		for d := range perSource[s] {
			perSource[s][d] = 0
		}
	}
	perSource[0][1] = 1
	if err := e.ShuffleBegin(dests, perSource); err != nil {
		t.Fatal(err)
	}
	if &r1.Tuples[:1][0] != before {
		t.Fatal("ShuffleBegin replaced the storage of a destination that had the room")
	}
}

// TestExchangeStagesAtAnnouncedCounts checks that every staging list
// starts with exactly the room its histogram entry announced, so an
// honest exchange never grows one, and that the conventional Flush lands
// every tuple at its slot.
func TestExchangeStagesAtAnnouncedCounts(t *testing.T) {
	for _, perm := range []bool{false, true} {
		cfg := nmpConfig(perm)
		e := mustEngine(t, cfg)
		nv := e.NumVaults()
		inputs := make([][]tuple.Tuple, nv)
		perSource := make([][]int64, nv)
		for s := range inputs {
			perSource[s] = make([]int64, nv)
			for i := 0; i < 40+s; i++ {
				tp := tuple.Tuple{Key: tuple.Key(s*1000 + i), Val: tuple.Value(i)}
				inputs[s] = append(inputs[s], tp)
				perSource[s][int(tp.Key)%nv]++
			}
		}
		dests, err := e.MallocPermutable(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ShuffleBegin(dests, perSource); err != nil {
			t.Fatal(err)
		}
		e.BeginStep(StepProfile{Name: "dist", DepIPC: 1, InstPerAccess: 4})
		x := e.NewExchange(dests, perSource)
		for s, ts := range inputs {
			for _, tp := range ts {
				if err := x.Outbox(s).Send(int(tp.Key)%nv, tp); err != nil {
					t.Fatal(err)
				}
			}
		}
		for s, box := range x.boxes {
			for d, l := range box.perDst {
				if len(l) != int(perSource[s][d]) || cap(l) != len(l) {
					t.Fatalf("perm=%v: staging %d→%d holds %d with cap %d, announced %d", perm, s, d, len(l), cap(l), perSource[s][d])
				}
			}
		}
		if err := x.Flush(); err != nil {
			t.Fatal(err)
		}
		e.EndStep()
		e.ShuffleEnd(dests)
		var all []tuple.Tuple
		for _, ts := range inputs {
			all = append(all, ts...)
		}
		var got []tuple.Tuple
		for d, r := range dests {
			for _, tp := range r.Tuples {
				if int(tp.Key)%nv != d {
					t.Fatalf("perm=%v: tuple %+v landed in vault %d", perm, tp, d)
				}
			}
			got = append(got, r.Tuples...)
		}
		if !tuple.SameMultiset(got, all) {
			t.Fatalf("perm=%v: the exchange changed the multiset", perm)
		}
	}
}

// TestEnsureLenExtendsOnceWithinCapacity checks ensureLen: one step, new
// slots zeroed even over stale storage, growth at least doubling but never
// past the region's capacity.
func TestEnsureLenExtendsOnceWithinCapacity(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	r, err := e.AllocOut(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	ensureLen(r, 10)
	if r.Len() != 10 || cap(r.Tuples) != 10 {
		t.Fatalf("first extension: len %d cap %d, want 10/10", r.Len(), cap(r.Tuples))
	}
	ensureLen(r, 11)
	if r.Len() != 11 || cap(r.Tuples) != 20 {
		t.Fatalf("growth: len %d cap %d, want 11/20", r.Len(), cap(r.Tuples))
	}
	ensureLen(r, 60)
	ensureLen(r, 61)
	if cap(r.Tuples) != 100 {
		t.Fatalf("growth past the region capacity: cap %d, want 100", cap(r.Tuples))
	}
	for i := range r.Tuples {
		r.Tuples[i] = tuple.Tuple{Key: 5, Val: 5}
	}
	r.Reset()
	ensureLen(r, 30)
	for i, tp := range r.Tuples {
		if tp != (tuple.Tuple{}) {
			t.Fatalf("slot %d kept stale %+v", i, tp)
		}
	}
}

// TestResetDropsStreamGroupViews checks that a pooled engine keeps no
// reference to region storage in its units' stream groups across Reset.
func TestResetDropsStreamGroupViews(t *testing.T) {
	e := mustEngine(t, mondrianConfig())
	r, err := e.Place(0, make([]tuple.Tuple, 64))
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	g := u.StreamGroup()
	g.AddView(r, 0, 32)
	g.AddView(r, 32, 64)
	readers, err := g.Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 2 || readers[1].Remaining() != 32 {
		t.Fatalf("group opened %d readers", len(readers))
	}
	e.Reset()
	for i, v := range u.group.views[:cap(u.group.views)] {
		if v.Tuples != nil {
			t.Fatalf("view %d still references region storage after Reset", i)
		}
	}
	for i, rd := range u.group.readers[:cap(u.group.readers)] {
		if rd.r != nil {
			t.Fatalf("reader %d still references a view after Reset", i)
		}
	}
}
