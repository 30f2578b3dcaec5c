package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/hmc"
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
	e.shuffleEnd(dests)

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
// honest exchange never grows one, and that the conventional flush lands
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
		x := e.newExchange(dests, perSource)
		for s, ts := range inputs {
			for _, tp := range ts {
				if err := x.boxes[s].Send(int(tp.Key)%nv, tp); err != nil {
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
		if err := x.flush(); err != nil {
			t.Fatal(err)
		}
		e.EndStep()
		e.shuffleEnd(dests)
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
	if len(readers) != 2 || readers[1].r.Len() != 32 {
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

// TestNMPRunTrafficBoundedByPage checks that a long bulk run on a
// cache-backed vault unit retires one page at a time: the unit's reusable
// L1 traffic list never holds more than one page of blocks' traffic (a
// demand fetch, its prefetches and as many writebacks per block), so a
// pooled engine does not keep a list sized by its longest run.
func TestNMPRunTrafficBoundedByPage(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	r, err := e.AllocOut(0, (1<<20)/tuple.Size)
	if err != nil {
		t.Fatal(err)
	}
	u := e.UnitForVault(0)
	e.BeginStep(StepProfile{Name: "write", DepIPC: 1, InstPerAccess: 4})
	u.WriteRunBytes(r.Addr, tuple.Size, r.Cap())
	e.EndStep()
	l1 := cache.L1D32K()
	bound := pageBytes / l1.BlockBytes * (2 + 2*l1.PrefetchDegree)
	if c := cap(u.runRes.Ops); c > bound {
		t.Fatalf("a 1 MB run left a traffic list of capacity %d, want at most one page's %d", c, bound)
	}
}

// recordingTracer keeps every traced access in order.
type recordingTracer struct{ events []traceEvent }

func (r *recordingTracer) Access(unit int, kind AccessKind, addr int64, size int, write bool) {
	r.events = append(r.events, traceEvent{unit: unit, kind: kind, addr: addr, size: size, write: write})
}

// TestFlushMatchesComparisonSort is a randomized differential of
// the exchange flush against the arrival order it must reproduce: every
// destination applies its staged tuples sorted by (per-source sequence,
// source). Sources send uneven amounts, some nothing, with a bias towards
// destination 0. Conventional destinations place each source's tuples in
// its prefix-sum slot range; permutable ones append in arrival order. With
// a tracer, the write events (and so the DRAM row traffic) must come in
// the same order at the same addresses; without one, permutable
// destinations retire as one run and must hold the same layout.
func TestFlushMatchesComparisonSort(t *testing.T) {
	if n := unsafe.Sizeof(arrival{}); n > 8 {
		t.Fatalf("an arrival is %d B, want at most 8", n)
	}
	type msg struct {
		seq, src int
		t        tuple.Tuple
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, perm := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/perm=%v/traced=%v", seed, perm, traced)
				cfg := nmpConfig(perm)
				cfg.Parallelism = 2
				e := mustEngine(t, cfg)
				nv := e.NumVaults()
				rng := rand.New(rand.NewSource(seed))
				perSource := make([][]int64, nv)
				sends := make([][]int, nv) // destination of each send, per source
				for s := range perSource {
					perSource[s] = make([]int64, nv)
					n := rng.Intn(80)
					if rng.Intn(4) == 0 {
						n = 0
					}
					for i := 0; i < n; i++ {
						d := rng.Intn(nv)
						if rng.Intn(3) == 0 {
							d = 0
						}
						sends[s] = append(sends[s], d)
						perSource[s][d]++
					}
				}
				dests, err := e.MallocPermutable(nv * 80)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ShuffleBegin(dests, perSource); err != nil {
					t.Fatal(err)
				}
				e.BeginStep(StepProfile{Name: "dist", DepIPC: 1, InstPerAccess: 4})
				x := e.newExchange(dests, perSource)
				want := make([][]msg, nv)
				for s, ds := range sends {
					for i, d := range ds {
						tp := tuple.Tuple{Key: tuple.Key(s<<20 | i), Val: tuple.Value(rng.Uint64())}
						if err := x.boxes[s].Send(d, tp); err != nil {
							t.Fatal(err)
						}
						want[d] = append(want[d], msg{seq: i, src: s, t: tp})
					}
				}
				tr := &recordingTracer{}
				if traced {
					e.SetTracer(tr)
				}
				if err := x.flush(); err != nil {
					t.Fatal(err)
				}
				e.EndStep()
				e.shuffleEnd(dests)

				var events []traceEvent
				for d, ms := range want {
					sort.Slice(ms, func(i, j int) bool {
						if ms[i].seq != ms[j].seq {
							return ms[i].seq < ms[j].seq
						}
						return ms[i].src < ms[j].src
					})
					dst := dests[d]
					if len(dst.Tuples) != len(ms) {
						t.Fatalf("%s: destination %d holds %d tuples, want %d", name, d, len(dst.Tuples), len(ms))
					}
					// Conventional slots: source s's k-th tuple for d lands
					// after every lower source's tuples for d.
					slot := make([]int, nv)
					for s := 1; s < nv; s++ {
						slot[s] = slot[s-1] + int(perSource[s-1][d])
					}
					for k, m := range ms {
						at, kind := k, TracePermuted
						if !perm {
							at, kind = slot[m.src], TraceShuffle
							slot[m.src]++
						}
						if dst.Tuples[at] != m.t {
							t.Fatalf("%s: destination %d slot %d holds %+v, want %+v", name, d, at, dst.Tuples[at], m.t)
						}
						events = append(events, traceEvent{unit: m.src, kind: kind, addr: dst.addrOf(at), size: tuple.Size, write: true})
					}
				}
				if !traced {
					continue
				}
				if len(tr.events) != len(events) {
					t.Fatalf("%s: %d write events traced, want %d", name, len(tr.events), len(events))
				}
				for i := range events {
					if tr.events[i] != events[i] {
						t.Fatalf("%s: write event %d is %+v, want %+v", name, i, tr.events[i], events[i])
					}
				}
			}
		}
	}
}

// TestPerVaultStateFillsCacheLines pins the size of the per-vault state
// that workers write per tuple inside parallel sections to whole 64 B
// cache lines. Each is allocated once per vault in a loop, so without the
// padding neighbouring vaults' copies share a line and every append or
// push from one worker invalidates the line under another (false sharing:
// NMP-seq spent a third more CPU at Parallelism 2 than at 1).
func TestPerVaultStateFillsCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"engine.Region":       unsafe.Sizeof(Region{}),
		"engine.Outbox":       unsafe.Sizeof(Outbox{}),
		"hmc.ObjectBuffer":    unsafe.Sizeof(hmc.ObjectBuffer{}),
		"hmc.StreamBufferSet": unsafe.Sizeof(hmc.StreamBufferSet{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d B, want a multiple of 64", name, size)
		}
	}
}
