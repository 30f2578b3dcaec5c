package engine

import "fmt"

// This file is the declarative system-description layer: a SystemSpec
// names the memory path a system's accesses take and the per-unit
// hardware each compute unit carries, and New assembles engines from it
// without any architecture switches. The three paper architectures are
// the rows of archRows.

// PathKind names a registered memory-path implementation (mempath.go).
type PathKind int

// The built-in memory paths.
const (
	// PathCPU walks TLB → L1 → NUCA mesh → LLC → SerDes → vault: the
	// cache-coherent host-processor hierarchy.
	PathCPU PathKind = iota
	// PathCachedVault walks a per-unit L1 → home/remote vault: the
	// cache-backed near-memory core.
	PathCachedVault
	// PathStream goes straight at the vault with no cache in between:
	// the cacheless Mondrian unit (stream buffers carry the reads that
	// must not stall).
	PathStream
)

// String implements fmt.Stringer.
func (k PathKind) String() string {
	switch k {
	case PathCPU:
		return "cpu"
	case PathCachedVault:
		return "cached-vault"
	case PathStream:
		return "stream"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// memPaths is the registry of memory-path implementations, keyed by
// PathKind. Config.Validate rejects a spec whose Path has no entry here,
// so a mis-assembled system fails at construction instead of panicking
// mid-run.
var memPaths = map[PathKind]memPath{
	PathCPU:         cpuPath{},
	PathCachedVault: cachedVaultPath{},
	PathStream:      streamPath{},
}

// SystemSpec declaratively describes a system's composition: which
// memory path every access takes and which hardware each compute unit is
// assembled with. The quantitative parameters the composition refers to
// (core model, cache geometries, SerDes topology, cube/vault counts)
// stay in Config; the spec says how they are wired together.
type SystemSpec struct {
	// Path selects the memory-path implementation units access through.
	Path PathKind
	// HostCores builds Config.CPUCores host-side cores that share the
	// LLC and chip mesh, instead of one unit per vault.
	HostCores bool
	// TLB gives each unit two-level address-translation hardware (host
	// cores translate virtual addresses; vault units access physically).
	TLB bool
	// UnitL1 gives each unit a private L1 cache (Config.L1).
	UnitL1 bool
	// SharedLLC builds the shared last-level cache (Config.LLC) behind
	// the chip mesh.
	SharedLLC bool
	// ObjectBuf gives each unit an object buffer (permutable sends).
	ObjectBuf bool
	// StreamBufs gives each vault-resident unit a stream-buffer set of
	// Config.StreamBuffers buffers.
	StreamBufs bool
}

// validate checks the composition's internal consistency: the generic
// constraints here, the path-specific ones via memPath.check.
func (sp SystemSpec) validate() error {
	path, ok := memPaths[sp.Path]
	if !ok {
		return fmt.Errorf("engine: spec has no registered memory path for %v", sp.Path)
	}
	if sp.StreamBufs && sp.HostCores {
		return fmt.Errorf("engine: stream buffers need vault-resident units")
	}
	return path.check(sp)
}

// archRow maps a legacy Arch identifier to its canonical composition
// plus the feature flags that historically toggled per-unit buffers.
type archRow struct {
	spec SystemSpec
	// permObjBuf adds an object buffer per unit when Config.Permutable
	// is set (the NMP-perm composition).
	permObjBuf bool
	// streamToggle adds stream-buffer sets when Config.UseStreams is
	// set (the Mondrian composition).
	streamToggle bool
}

// archRows is the declarative form of the three evaluated architectures
// (paper Table 3): the Arch constants stay as convenient shorthand, and
// this table defines what each one means.
var archRows = map[Arch]archRow{
	CPU: {spec: SystemSpec{
		Path: PathCPU, HostCores: true, TLB: true, UnitL1: true, SharedLLC: true,
	}},
	NMP: {spec: SystemSpec{
		Path: PathCachedVault, UnitL1: true,
	}, permObjBuf: true},
	Mondrian: {spec: SystemSpec{
		Path: PathStream, ObjectBuf: true,
	}, streamToggle: true},
}

// resolveSpec produces the composition New assembles from: the archRows
// row for Config.Arch with the historical feature toggles applied.
func (c Config) resolveSpec() (SystemSpec, error) {
	row, ok := archRows[c.Arch]
	if !ok {
		return SystemSpec{}, fmt.Errorf("engine: unknown architecture %v", c.Arch)
	}
	sp := row.spec
	if row.permObjBuf && c.Permutable {
		sp.ObjectBuf = true
	}
	if row.streamToggle && c.UseStreams {
		sp.StreamBufs = true
	}
	return sp, sp.validate()
}

// Spec returns the resolved composition the engine was assembled from.
func (e *Engine) Spec() SystemSpec { return e.spec }

// sharedUnits reports whether compute units share simulated state (the
// LLC and chip mesh of host-core systems), which makes their accesses
// order-dependent and forces serial evaluation.
func (e *Engine) sharedUnits() bool { return e.spec.HostCores || e.spec.SharedLLC }
