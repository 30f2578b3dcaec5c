package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the buckets host CPU time is attributed to, in report order.
// Most are the simulator's own packages. verify gathers output checking
// (operators.Ref*, operators.Gather, the tuple multiset digests and
// simulate's verify* helpers); runtime is garbage collection, allocation
// and goroutine scheduling; bench is this harness and the profiler itself.
var layers = []string{
	"cache", "engine", "dram", "noc", "hmc", "cores", "operators", "tuple",
	"plan", "verify", "workload", "serve", "simulate", "obs", "runtime",
	"bench", "unattributed",
}

const modulePath = "github.com/ecocloud-go/mondrian"

// funcPackage returns the import path of a profiled function name such as
// "github.com/x/y/internal/cache.(*Cache).Access" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// runtimeHelpers are runtime functions that do the caller's own work
// (copying, clearing, comparing, hashing, map access) rather than garbage
// collection, allocation or scheduling, so their time goes to the caller.
var runtimeHelpers = []string{
	"memmove", "memclr", "memequal", "mapaccess", "mapassign", "mapdelete",
	"mapiter", "mapclear", "aeshash", "memhash", "strhash", "interhash",
	"nilinterhash", "typehash", "efaceeq", "ifaceeq", "cmpstring",
	"concatstring", "slicebytetostring", "stringtoslice", "intstring",
	"duffcopy", "duffzero",
}

// frameLayer returns the layer a single frame belongs to, or "" for a
// frame that is transparent: standard-library code and runtime helpers,
// whose time belongs to whichever caller invoked them.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	name := strings.TrimPrefix(fn[len(pkg):], ".")
	switch {
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		switch sub := strings.TrimPrefix(pkg, modulePath+"/internal/"); sub {
		case "operators":
			if strings.HasPrefix(name, "Ref") || strings.HasPrefix(name, "Gather") {
				return "verify"
			}
			return sub
		case "tuple":
			if strings.HasPrefix(name, "SameMultiset") || strings.HasPrefix(name, "DigestOf") ||
				strings.HasPrefix(name, "(*Digest)") || strings.HasPrefix(name, "Digest.") {
				return "verify"
			}
			return sub
		case "simulate":
			if strings.HasPrefix(name, "verify") {
				return "verify"
			}
			return sub
		case "energy", "trace":
			return "engine"
		case "cache", "engine", "dram", "noc", "hmc", "cores", "plan", "workload", "serve", "obs":
			return sub
		}
		return "unattributed"
	case pkg == "main" || pkg == "runtime/pprof":
		return "bench"
	case pkg == "runtime":
		for _, h := range runtimeHelpers {
			if strings.HasPrefix(name, h) {
				return ""
			}
		}
		return "runtime"
	case pkg == "internal/runtime/maps" || pkg == "internal/runtime/atomic" ||
		pkg == "sync/atomic" || pkg == "internal/bytealg":
		return ""
	case pkg == "sync" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// stackLayer attributes one sample: the innermost frame that is not
// transparent decides, so time in sort.Slice called from an operator is
// the operator's, while time in runtime.mallocgc is the runtime's whoever
// allocated.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "unattributed"
}

// attribution is host CPU time per layer, overall and per labelled cell.
type attribution struct {
	samples int64 // profiling ticks
	totalNs int64
	byLayer map[string]int64
	byCell  map[string]map[string]int64
}

// attribute buckets samples into layers, and into cells by the value of
// the given pprof label.
func attribute(samples []sample, cellLabel string) attribution {
	a := attribution{byLayer: map[string]int64{}, byCell: map[string]map[string]int64{}}
	for _, s := range samples {
		l := stackLayer(s.stack)
		a.samples += s.ticks
		a.totalNs += s.cpuNs
		a.byLayer[l] += s.cpuNs
		if c := s.labels[cellLabel]; c != "" {
			m := a.byCell[c]
			if m == nil {
				m = map[string]int64{}
				a.byCell[c] = m
			}
			m[l] += s.cpuNs
		}
	}
	return a
}

// share returns a layer's fraction of all sampled CPU time.
func (a attribution) share(layer string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.byLayer[layer]) / float64(a.totalNs)
}

// writeTable prints where the host time goes: every layer's share and CPU
// seconds, then each cell's CPU seconds and its three largest layers.
func (a attribution) writeTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "where the host time goes: %s (%d samples, %.2f CPU-s)\n",
		workload, a.samples, float64(a.totalNs)/1e9)
	for _, l := range layers {
		if ns := a.byLayer[l]; ns > 0 {
			fmt.Fprintf(w, "  %-13s %6.1f%% %9.3f s\n", l, 100*a.share(l), float64(ns)/1e9)
		}
	}
	cells := make([]string, 0, len(a.byCell))
	for c := range a.byCell {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		m := a.byCell[c]
		var total int64
		top := make([]string, 0, len(m))
		for l, ns := range m {
			total += ns
			top = append(top, l)
		}
		sort.Slice(top, func(i, j int) bool {
			if m[top[i]] != m[top[j]] {
				return m[top[i]] > m[top[j]]
			}
			return top[i] < top[j]
		})
		if len(top) > 3 {
			top = top[:3]
		}
		parts := make([]string, len(top))
		for i, l := range top {
			parts[i] = fmt.Sprintf("%s %.0f%%", l, 100*float64(m[l])/float64(total))
		}
		fmt.Fprintf(w, "  cell %-28s %8.3f s  %s\n", c, float64(total)/1e9, strings.Join(parts, ", "))
	}
}
