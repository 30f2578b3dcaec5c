package simulate

// The system registry: every evaluated configuration is one declarative
// Spec row — a name, an engine identity template, and the probe
// algorithm selector. The paper's seven systems are builtin rows; new
// variants (sensitivity sweeps, what-if systems) register at runtime and
// run through Run and RunPlan exactly like the builtins. See DESIGN.md
// §11 for how the registry layers over engine.Config.Arch.

import (
	"fmt"
	"strings"
	"sync"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

// System identifies one registered configuration — an index into the
// spec registry. The seven paper systems occupy the fixed low indices;
// Register appends further ones at runtime.
type System int

// The evaluated systems (§6 "Evaluated configurations").
const (
	CPU System = iota
	NMP
	NMPPerm
	NMPRand
	NMPSeq
	MondrianNoPerm
	Mondrian
	numSystems // builtin count; runtime registrations continue from here
)

// Spec is one row of the system table: the name the CLIs parse, the
// engine identity template (architecture, core model, topology, caches —
// everything that makes the system *itself*), and the probe-algorithm
// selector. Quantitative experiment parameters (DRAM geometry, dataset
// sizes, parallelism) are owned by Params and merged in at EngineConfig
// time.
type Spec struct {
	Name string
	// Engine is the identity template. EngineConfig copies it and fills
	// the Params-owned fields: Cubes, VaultsPer, Geometry, Timing,
	// ObjectSize, BarrierNs, Parallelism, NoBulk and Obs —
	// plus CPUCores on the CPU architecture.
	Engine engine.Config
	// SortProbe selects the sort-based probe algorithms (§6: NMP-seq
	// and the Mondrian variants); false selects the hash algorithms.
	SortProbe bool
}

var (
	regMu   sync.RWMutex
	regList []Spec
	regName = make(map[string]System) // lower-cased name → index
)

func init() {
	for _, sp := range builtinSpecs() {
		if _, err := Register(sp); err != nil {
			panic(err)
		}
	}
}

// builtinSpecs returns the seven paper rows in System-constant order.
// The four NMP variants share one constructor — they differ only in
// permutability and probe algorithm — as do the two Mondrian variants.
func builtinSpecs() []Spec {
	nmp := func(name string, permutable, sortProbe bool) Spec {
		return Spec{
			Name:      name,
			SortProbe: sortProbe,
			Engine: engine.Config{
				Arch:       engine.NMP,
				Core:       cores.Krait400(),
				Topology:   noc.FullyConnected,
				L1:         cache.L1D32K(),
				Permutable: permutable,
			},
		}
	}
	mondrian := func(name string, permutable bool) Spec {
		return Spec{
			Name:      name,
			SortProbe: true,
			Engine: engine.Config{
				Arch:       engine.Mondrian,
				Core:       cores.CortexA35Mondrian(),
				Topology:   noc.FullyConnected,
				Permutable: permutable,
			},
		}
	}
	return []Spec{
		{
			Name: "CPU",
			Engine: engine.Config{
				Arch:     engine.CPU,
				Core:     cores.CortexA57(),
				Topology: noc.Star,
				L1:       cache.L1D32K(),
				LLC:      cache.LLC4M(),
			},
		},
		nmp("NMP", false, false),
		nmp("NMP-perm", true, false),
		nmp("NMP-rand", false, false),
		nmp("NMP-seq", false, true),
		mondrian("Mondrian-noperm", false),
		mondrian("Mondrian", true),
	}
}

// Register adds a system spec to the registry and returns its handle.
// Names are case-insensitive, unique, and non-empty. Registered systems
// run through Run and RunPlan exactly like the builtin seven; Systems()
// still enumerates only the paper's matrix.
func Register(sp Spec) (System, error) {
	if sp.Name == "" {
		return 0, fmt.Errorf("simulate: Register: empty system name")
	}
	key := strings.ToLower(sp.Name)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := regName[key]; ok {
		return 0, fmt.Errorf("simulate: Register: system %q already registered as %q",
			sp.Name, regList[prev].Name)
	}
	s := System(len(regList))
	regList = append(regList, sp)
	regName[key] = s
	return s, nil
}

// ParseSystem resolves a system name (case-insensitive) to its handle.
func ParseSystem(name string) (System, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if s, ok := regName[strings.ToLower(name)]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("simulate: unknown system %q (want one of %s)",
		name, strings.Join(systemNamesLocked(), ", "))
}

// SystemNames returns every registered name in registration order (the
// seven builtins first) — the source of truth for CLI help text.
func SystemNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return systemNamesLocked()
}

func systemNamesLocked() []string {
	out := make([]string, len(regList))
	for i, sp := range regList {
		out[i] = sp.Name
	}
	return out
}

// SpecOf returns the registered spec behind a System handle.
func SpecOf(s System) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if s < 0 || int(s) >= len(regList) {
		return Spec{}, false
	}
	return regList[s], true
}

// registeredSystems returns the current registry size.
func registeredSystems() int {
	regMu.RLock()
	defer regMu.RUnlock()
	return len(regList)
}

// Systems lists the paper's seven configurations — the evaluation matrix.
// Runtime-registered systems are not included; run them individually.
func Systems() []System {
	out := make([]System, numSystems)
	for i := range out {
		out[i] = System(i)
	}
	return out
}

// String implements fmt.Stringer via the registry.
func (s System) String() string {
	if sp, ok := SpecOf(s); ok {
		return sp.Name
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// ParseOperator resolves an operator name (case-insensitive; "groupby"
// and "group-by" are both accepted).
func ParseOperator(name string) (Operator, error) {
	switch strings.ToLower(name) {
	case "scan":
		return OpScan, nil
	case "sort":
		return OpSort, nil
	case "groupby", "group-by":
		return OpGroupBy, nil
	case "join":
		return OpJoin, nil
	}
	return 0, fmt.Errorf("simulate: unknown operator %q (want one of %s)",
		name, strings.Join(OperatorNames(), ", "))
}

// OperatorNames returns the CLI spellings of the four operators.
func OperatorNames() []string { return []string{"scan", "sort", "groupby", "join"} }
