// Package engine implements the Mondrian Data Engine's execution model —
// the paper's primary contribution (§5). An Engine instance couples the
// simulated memory fabric (HMC cubes, NoC, SerDes) with one compute unit
// per vault (NMP/Mondrian) or a cache-backed multicore CPU, and exposes
// the programming model of Fig. 4:
//
//   - MallocPermutable / ShuffleBegin / ShuffleEnd toggle hardware data
//     permutability during the partitioning phase (§5.3, §5.4);
//   - object buffers keep data objects within single memory messages;
//   - stream buffers feed Mondrian units with binding prefetches (§5.2).
//
// Operators execute *functionally* on real tuples through Unit accessors;
// every access is routed through the architecture's memory path (caches,
// mesh, SerDes, DRAM row buffers) so that timing and energy emerge from
// the same models the paper's arguments are built on. Work is divided
// into steps (histogram build, data distribution, sort passes, ...); each
// step's runtime is the barrier-synchronized maximum over compute-unit
// times and memory/link busy times.
package engine

import (
	"fmt"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/cores"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/hmc"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Arch identifies the three evaluated architectures.
type Arch int

const (
	// CPU is the CPU-centric baseline: 16 OoO cores, cache hierarchy,
	// passive cubes behind a star SerDes topology.
	CPU Arch = iota
	// NMP is the baseline near-memory system: one OoO core per vault.
	NMP
	// Mondrian is the co-designed system: in-order SIMD units with
	// stream buffers and permutable-write vault controllers.
	Mondrian
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case CPU:
		return "CPU"
	case NMP:
		return "NMP"
	case Mondrian:
		return "Mondrian"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Config assembles one evaluated system (paper Table 3).
type Config struct {
	// Arch selects one of the three canonical compositions (archRows in
	// spec.go). Ignored when Spec is set.
	Arch Arch
	// Spec, when non-nil, declares the system composition directly —
	// the extension point for variants the Arch shorthand cannot
	// express (see SystemSpec).
	Spec       *SystemSpec
	Core       cores.Model
	CPUCores   int  // host-core compositions only
	Permutable bool // vault controllers honor permutable stores
	UseStreams bool // compute units read via stream buffers
	// StreamBuffers sizes each unit's stream-buffer set (0 selects the
	// architectural default, hmc.NumStreamBuffers).
	StreamBuffers int
	Cubes         int
	VaultsPer     int
	Topology      noc.Topology
	Geometry      dram.Geometry
	Timing        dram.Timing
	ObjectSize    int // permutability granularity (tuple size by default)
	L1            cache.Config
	LLC           cache.Config // CPU only
	// BarrierNs is the fixed cost of one all-to-all MSI notification
	// (ShuffleBegin/ShuffleEnd synchronization, §5.4).
	BarrierNs float64
	// Parallelism bounds the host worker pool that executes independent
	// per-vault work (0 = GOMAXPROCS, 1 = serial). It affects wall-clock
	// time only: simulated results are bit-identical at every setting.
	// Host-core specs evaluate their cores in order (they share the LLC
	// and chip mesh); there, 2 or more runs the shared-memory walk on a
	// second goroutine during steps (llcstage.go).
	Parallelism int
	// NoBulk disables the batched run-based access fast path: operators
	// fall back to their per-tuple reference loops and the run accessors
	// degrade to per-element accesses. Simulated results are byte-identical
	// either way (the differential tests assert it); only host wall-clock
	// time changes. Intended for debugging and the differential suite.
	NoBulk bool
	// Obs, when non-nil, enables the observability layer: phase tracking
	// (BeginPhase/EndPhase), exchange summaries, and post-run metric
	// harvesting via CollectObs/BuildSpans. The metrics are collected from
	// deterministic simulation state at serial points, so they are
	// byte-identical at every Parallelism. nil (the default) is the
	// near-zero-cost disabled path.
	Obs *obs.Registry
	// SkewAware enables deterministic work stealing in the host worker
	// pool: weighted parallel sections (ForEachVaultWeighted /
	// ForEachTaskWeighted) dispatch tasks heaviest-first (LPT order), so
	// idle workers drain a straggler vault's queue instead of idling
	// behind it. The dispatch permutation is a pure function of the task
	// weights — independent of worker count — and parallel sections touch
	// only index-owned state, so simulated results stay byte-identical to
	// a skew-unaware run; only host wall-clock time and the skew_* obs
	// metrics change. Ignored on shared-unit (host-core) specs, whose
	// accesses are order-dependent.
	SkewAware bool
}

// Validate checks internal consistency, including that the resolved
// system spec names a registered memory path — a mis-declared spec is an
// error here, never a panic mid-run.
func (c Config) Validate() error {
	sp, err := c.resolveSpec()
	if err != nil {
		return err
	}
	if c.Cubes <= 0 || c.VaultsPer <= 0 {
		return fmt.Errorf("engine: need cubes and vaults, got %d×%d", c.Cubes, c.VaultsPer)
	}
	if sp.HostCores && c.CPUCores <= 0 {
		return fmt.Errorf("engine: host-core systems (the CPU architecture) need CPUCores > 0")
	}
	if c.ObjectSize <= 0 || c.ObjectSize > hmc.ObjectBufferBytes {
		return fmt.Errorf("engine: object size %d outside (0,%d]", c.ObjectSize, hmc.ObjectBufferBytes)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("engine: negative Parallelism %d (want 0 for GOMAXPROCS or a positive worker count)", c.Parallelism)
	}
	if c.BarrierNs < 0 {
		return fmt.Errorf("engine: negative BarrierNs %v", c.BarrierNs)
	}
	if c.StreamBuffers < 0 {
		return fmt.Errorf("engine: negative StreamBuffers %d (want 0 for the architectural default)", c.StreamBuffers)
	}
	return nil
}

// Region is a contiguous tuple array resident in one vault. Tuples holds
// the functional contents; Addr locates it in the simulated address space.
type Region struct {
	Vault  *hmc.Vault
	Addr   int64
	Tuples []tuple.Tuple
	cap    int
}

// Cap returns the region's capacity in tuples.
func (r *Region) Cap() int { return r.cap }

// Len returns the region's current tuple count.
func (r *Region) Len() int { return len(r.Tuples) }

// EndAddr returns the first address past the region's capacity.
func (r *Region) EndAddr() int64 { return r.Addr + int64(r.cap)*tuple.Size }

// addrOf returns the address of tuple idx.
func (r *Region) addrOf(idx int) int64 { return r.Addr + int64(idx)*tuple.Size }

// View returns a read-only sub-region covering tuples [start, end) of r.
// Views share r's backing storage and address range; they exist so merge
// passes can tie individual sorted runs to stream buffers.
func (r *Region) View(start, end int) *Region {
	v := r.view(start, end)
	return &v
}

func (r *Region) view(start, end int) Region {
	if start < 0 || end > len(r.Tuples) || start > end {
		panic(fmt.Sprintf("engine: view [%d,%d) of region with %d tuples", start, end, len(r.Tuples)))
	}
	return Region{
		Vault:  r.Vault,
		Addr:   r.addrOf(start),
		Tuples: r.Tuples[start:end:end],
		cap:    end - start,
	}
}

// Reset empties the region (its capacity and address are unchanged), so a
// scratch region can be reused across merge passes.
func (r *Region) Reset() { r.Tuples = r.Tuples[:0] }

// Reserve makes room in r's host storage for n more tuples with one
// exact-size allocation, so the appends that follow never reallocate. A
// region that already has the room is left as it is. Simulated state is
// untouched: host storage is not simulated memory.
func (r *Region) Reserve(n int) {
	if cap(r.Tuples)-len(r.Tuples) >= n {
		return
	}
	grown := make([]tuple.Tuple, len(r.Tuples), len(r.Tuples)+n)
	copy(grown, r.Tuples)
	r.Tuples = grown
}

// reserveAll is Reserve(need[i]) for every regions[i], carved from one
// allocation. Each region gets a full slice expression, so a region that
// outgrows its reservation reallocates instead of spilling into its
// neighbour's share.
func reserveAll(regions []*Region, need []int) {
	total := 0
	for i, r := range regions {
		if cap(r.Tuples)-len(r.Tuples) < need[i] {
			total += len(r.Tuples) + need[i]
		}
	}
	if total == 0 {
		return
	}
	backing := make([]tuple.Tuple, total)
	for i, r := range regions {
		n := len(r.Tuples) + need[i]
		if cap(r.Tuples) >= n {
			continue
		}
		grown := backing[:len(r.Tuples):n]
		copy(grown, r.Tuples)
		r.Tuples = grown
		backing = backing[n:]
	}
}

// AccessKind classifies traced memory accesses.
type AccessKind int

// The traced access classes.
const (
	// TraceDemand is a compute unit's demand load/store.
	TraceDemand AccessKind = iota
	// TraceShuffle is a partitioning-phase store arriving at its
	// destination vault at its software-computed address.
	TraceShuffle
	// TracePermuted is a permutable store at the address the vault
	// controller chose.
	TracePermuted
)

// Tracer observes the engine's memory accesses (see internal/trace).
type Tracer interface {
	Access(unit int, kind AccessKind, addr int64, size int, write bool)
}

// RunTracer is an optional Tracer extension for run-length-encoded
// observation: one AccessRun call stands for count accesses of size bytes
// at addr, addr+stride, addr+2·stride, … . Tracers that do not implement
// it receive the expanded per-access calls instead, so either way the
// observed access stream is identical.
type RunTracer interface {
	Tracer
	AccessRun(unit int, kind AccessKind, addr int64, size, stride, count int, write bool)
}

// Engine is one configured system instance.
type Engine struct {
	cfg    Config
	spec   SystemSpec // resolved composition (spec.go)
	path   memPath    // the units' memory-path implementation
	Sys    *hmc.System
	llc    *cache.Cache // shared LLC (host-core specs only)
	mesh   *noc.Mesh    // host-side tile mesh (host-core specs only)
	tracer Tracer

	// llcq is the second stage of the host-core memory path
	// (llcstage.go), built on first use.
	llcq *llcStage

	// Shift/mask form of the block-interleaved NUCA bank hash
	// (addr/blockBytes mod tiles), valid when both are powers of two;
	// nucaShift==0 means "use the divide path".
	nucaShift uint
	nucaMask  int64

	units []*Unit

	// Step state.
	inStep  bool
	profile StepProfile
	snap    snapshot

	// Accumulated run accounting.
	steps      []StepTiming
	totalNs    float64
	barrierCnt int

	// Observability state (obs.go); populated only when cfg.Obs != nil.
	phaseOpen   bool
	phasePrefix string
	curPhase    PhaseTiming
	phaseSnap   obsTotals
	phaseWall   time.Time
	phaseSeen   map[string]int
	phases      []PhaseTiming
	stepUnits   [][]float64 // per-step per-unit TimeNs, aligned with steps
	exchanges   []exchangeRecord

	// Skew-aware accounting (obs.go / parallel.go); all updated at serial
	// points, so deterministic at every parallelism level.
	stolenTasks uint64
	splitKeys   uint64
	skewStats   []skewStat
}

// New builds an engine from a configuration: the system spec (Config.Spec,
// or the canonical composition of Config.Arch) is resolved once, and the
// units are assembled from it declaratively — each feature flag adds one
// piece of per-unit hardware, with no per-architecture construction code.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := cfg.resolveSpec()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		spec: spec,
		path: memPaths[spec.Path],
		Sys:  hmc.NewSystem(cfg.Cubes, cfg.VaultsPer, cfg.Topology, cfg.Geometry, cfg.Timing),
	}
	if spec.SharedLLC {
		e.llc = cache.New(cfg.LLC)
	}
	if spec.HostCores {
		e.mesh = noc.NewMesh(4, 4) // 16-tile host chip (Fig. 5)
		if bb, tiles := cfg.L1.BlockBytes, e.mesh.Tiles(); bb > 0 && bb&(bb-1) == 0 && tiles&(tiles-1) == 0 {
			for b := bb; b > 1; b >>= 1 {
				e.nucaShift++
			}
			e.nucaMask = int64(tiles - 1)
		}
	}
	n := cfg.CPUCores
	if !spec.HostCores {
		n = e.Sys.NumVaults()
	}
	for i := 0; i < n; i++ {
		u := &Unit{ID: i, engine: e, path: e.path}
		if spec.HostCores {
			u.tile = i % e.mesh.Tiles()
		} else {
			u.Vault = e.Sys.Vault(i)
		}
		if spec.UnitL1 {
			u.L1 = cache.New(cfg.L1)
		}
		if spec.TLB {
			// 64-entry L1 TLB and 1024-entry L2 TLB over 4 KB pages
			// (Cortex-A57-class translation hardware).
			u.tlbL1 = cache.New(cache.Config{SizeBytes: 64 * pageBytes, Ways: 4, BlockBytes: pageBytes})
			u.tlbL2 = cache.New(cache.Config{SizeBytes: 1024 * pageBytes, Ways: 8, BlockBytes: pageBytes})
		}
		if spec.ObjectBuf {
			b, err := hmc.NewObjectBuffer(cfg.ObjectSize)
			if err != nil {
				return nil, err
			}
			u.ObjBuf = b
		}
		if spec.StreamBufs {
			u.Streams = hmc.NewStreamBufferSetN(u.Vault, cfg.StreamBuffers)
		}
		e.units = append(e.units, u)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Units returns the compute units (16 CPU cores or one per vault).
func (e *Engine) Units() []*Unit { return e.units }

// NumVaults returns the vault count of the memory fabric.
func (e *Engine) NumVaults() int { return e.Sys.NumVaults() }

// Place loads tuples into a vault as pre-existing data. Placement models
// the initial dataset residency and is not charged to any phase (the
// paper measures operators on memory-resident data).
func (e *Engine) Place(vaultID int, ts []tuple.Tuple) (*Region, error) {
	return e.allocRegion(vaultID, ts, len(ts))
}

// AllocOut reserves an (initially empty) output region of capTuples in the
// given vault — e.g. the CPU-provisioned destination buffers of the
// partitioning phase (§5.3).
func (e *Engine) AllocOut(vaultID, capTuples int) (*Region, error) {
	return e.allocRegion(vaultID, nil, capTuples)
}

func (e *Engine) allocRegion(vaultID int, ts []tuple.Tuple, capTuples int) (*Region, error) {
	v := e.Sys.Vault(vaultID)
	if capTuples < len(ts) {
		capTuples = len(ts)
	}
	n := int64(capTuples) * tuple.Size
	if n == 0 {
		n = tuple.Size // keep zero-capacity regions addressable
	}
	addr, err := v.Alloc(n, int64(e.cfg.Geometry.RowBytes))
	if err != nil {
		return nil, err
	}
	r := &Region{Vault: v, Addr: addr, cap: capTuples}
	if ts != nil {
		r.Tuples = append(r.Tuples, ts...)
	}
	return r, nil
}

// UnitForVault returns the compute unit co-located with vault v
// (vault-resident specs — the NMP and Mondrian architectures).
func (e *Engine) UnitForVault(v int) *Unit {
	if e.spec.HostCores {
		panic("engine: host cores are not vault-resident")
	}
	return e.units[v]
}

// SetTracer installs (or, with nil, removes) a memory-access observer.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// TotalNs returns the accumulated runtime of all completed steps.
func (e *Engine) TotalNs() float64 { return e.totalNs }

// Steps returns the timing of every completed step.
func (e *Engine) Steps() []StepTiming { return e.steps }

// LLC returns the shared last-level cache (nil on specs without one),
// with every pending request retired.
func (e *Engine) LLC() *cache.Cache {
	e.drainLLC()
	return e.llc
}

// DRAMStats returns cumulative DRAM statistics across all vaults.
func (e *Engine) DRAMStats() dram.Stats {
	e.drainLLC()
	return e.Sys.TotalDRAMStats()
}
