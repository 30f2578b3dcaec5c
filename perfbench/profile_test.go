package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// protoBuf builds protobuf messages for a synthetic profile.
type protoBuf []byte

func (b protoBuf) varint(x uint64) protoBuf {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b protoBuf) uint(num int, x uint64) protoBuf {
	return b.varint(uint64(num) << 3).varint(x)
}

func (b protoBuf) bytes(num int, data []byte) protoBuf {
	b = b.varint(uint64(num)<<3 | 2).varint(uint64(len(data)))
	return append(b, data...)
}

func (b protoBuf) packed(num int, xs ...uint64) protoBuf {
	var p protoBuf
	for _, x := range xs {
		p = p.varint(x)
	}
	return b.bytes(num, p)
}

// synthProfile encodes a CPU profile whose samples have the given stacks
// (innermost first), each worth 10 ms and labelled with its cell. The
// first two functions of every stack share one location, as the inlined
// callee and its caller, the way the runtime records inlining.
func synthProfile(t *testing.T, stacks [][]string, cells []string) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "cell"}
	index := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		strs = append(strs, s)
		index[s] = uint64(len(strs) - 1)
		return index[s]
	}
	var msg protoBuf
	msg = msg.bytes(1, protoBuf(nil).uint(1, 1).uint(2, 2))
	msg = msg.bytes(1, protoBuf(nil).uint(1, 3).uint(2, 4))
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		msg = msg.bytes(5, protoBuf(nil).uint(1, id).uint(2, str(name)))
		return id
	}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); {
			locID++
			loc := protoBuf(nil).uint(1, locID)
			n := 1
			if j == 0 && len(stack) > 1 {
				n = 2
			}
			for _, f := range stack[j : j+n] {
				loc = loc.bytes(4, protoBuf(nil).uint(1, fn(f)).uint(2, 7))
			}
			msg = msg.bytes(4, loc)
			locs = append(locs, locID)
			j += n
		}
		s := protoBuf(nil).packed(1, locs...).packed(2, 1, 10e6)
		if cells[i] != "" {
			s = s.bytes(3, protoBuf(nil).uint(1, str("cell")).uint(2, str(cells[i])))
		}
		msg = msg.bytes(2, s)
	}
	for _, s := range strs {
		msg = msg.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const mod = "github.com/ecocloud-go/mondrian/internal/"

func TestAttributeSyntheticProfile(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{mod + "cache.(*Cache).lookup", mod + "engine.(*Unit).access", "main.main"}, "cache"},
		{[]string{"runtime.memmove", mod + "operators.partitionRun", mod + "simulate.Run"}, "operators"},
		{[]string{"runtime.mallocgc", "runtime.growslice", mod + "cache.New"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1", mod + "operators.(*hashTable).probe"}, "operators"},
		{[]string{"slices.pdqsortCmpFunc[go.shape.struct { Key uint64 }]", "slices.SortFunc[go.shape.[]github.com/x/y.T]", mod + "tuple.SortSliceByKey"}, "tuple"},
		{[]string{"math/rand.(*rngSource).Int63", "math/rand.(*Rand).Int63", mod + "workload.Uniform"}, "workload"},
		{[]string{mod + "tuple.(*Digest).Add", mod + "tuple.SameMultiset", mod + "simulate.runOn"}, "verify"},
		{[]string{mod + "operators.RefJoin", mod + "simulate.runOn"}, "verify"},
		{[]string{mod + "simulate.verifySorted", mod + "simulate.runOn"}, "verify"},
		{[]string{mod + "plan.materialize", mod + "simulate.runPlanOn"}, "plan"},
		{[]string{"sync.(*Mutex).lockSlow", mod + "serve.(*Scheduler).Submit"}, "runtime"},
		{[]string{mod + "serve.(*Scheduler).execute", "runtime.goexit"}, "serve"},
		{[]string{"runtime/pprof.profileWriter", "runtime.goexit"}, "bench"},
		{[]string{"encoding/json.Marshal", "main.(result).fingerprint"}, "bench"},
		{[]string{"sort.insertionSort", "sort.Sort"}, "unattributed"},
		{[]string{mod + "bsp.Run"}, "unattributed"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}

	stacks := [][]string{
		{mod + "cache.(*Cache).lookup", mod + "engine.(*Unit).access", mod + "operators.Sort"},
		{mod + "cache.(*Cache).lookup", mod + "engine.(*Unit).access", mod + "operators.Sort"},
		{"runtime.memmove", mod + "operators.partitionRun"},
		{"runtime.mallocgc", mod + "engine.New"},
		{"sort.insertionSort", "sort.Sort"},
	}
	cells := []string{"CPU/sort", "CPU/sort", "CPU/sort", "NMP/scan", ""}
	samples, err := decodeProfile(synthProfile(t, stacks, cells))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] || s.ticks != 1 || s.cpuNs != 10e6 {
			t.Errorf("sample %d = %+v, want stack %v worth 10 ms", i, s, stacks[i])
		}
	}
	a := attribute(samples, "cell")
	if a.samples != 5 || a.totalNs != 50e6 {
		t.Fatalf("attributed %d samples, %d ns; want 5, 50e6", a.samples, a.totalNs)
	}
	for layer, want := range map[string]float64{"cache": 0.4, "operators": 0.2, "runtime": 0.2, "unattributed": 0.2, "engine": 0} {
		if got := a.share(layer); got != want {
			t.Errorf("share(%s) = %v, want %v", layer, got, want)
		}
	}
	if got := a.byCell["CPU/sort"]; got["cache"] != 20e6 || got["operators"] != 10e6 || len(got) != 2 {
		t.Errorf("CPU/sort cell = %v", got)
	}
	if got := a.byCell["NMP/scan"]; got["runtime"] != 10e6 || len(got) != 1 {
		t.Errorf("NMP/scan cell = %v", got)
	}
	if len(a.byCell) != 2 {
		t.Errorf("cells = %v, want the two labelled ones", a.byCell)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f}) // a field claiming 127 bytes of a 0-byte body
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
}
