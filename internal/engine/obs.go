package engine

// Observability integration: phase tracking, post-run metric harvesting,
// and span-tree construction for internal/obs.
//
// Determinism is the governing constraint (the manifest must be
// byte-identical across host parallelism levels), so the engine does NOT
// instrument its concurrent hot paths. Instead it snapshots the
// simulation's own deterministic statistics — cache/TLB/LLC stats, DRAM
// row counters, NoC/SerDes occupancy, stream/object-buffer tallies, all
// of which PR 1 already made shard-mergeable and order-independent — at
// serial points: phase boundaries (BeginPhase/EndPhase, called by the
// operators between parallel sections) and the end of the run
// (CollectObs). The only always-on additions to the hot loops are the
// nil-checks at those phase boundaries, pinned at zero allocations by the
// engine's AllocsPerRun tests.

import (
	"fmt"
	"strconv"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cache"
	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/obs"
)

// PhaseTiming is one operator phase (partition, probe, ...) on the
// simulated clock, plus the host wall time spent inside it. StartNs/EndNs
// and the step range are deterministic; WallNs is host-dependent and is
// stripped from manifests before golden comparison.
type PhaseTiming struct {
	Name      string  `json:"name"`
	StartNs   float64 `json:"start_ns"`
	EndNs     float64 `json:"end_ns"`
	WallNs    int64   `json:"wall_ns,omitempty"`
	StepStart int     `json:"step_start"`
	StepEnd   int     `json:"step_end"`

	instructions float64
	deltas       obsTotals // activity attributable to this phase
}

// SimulatedNs returns the phase's simulated duration.
func (p PhaseTiming) SimulatedNs() float64 { return p.EndNs - p.StartNs }

// obsTotals freezes every deterministic activity counter the engine can
// observe, so phase boundaries can attribute deltas.
type obsTotals struct {
	insts    float64
	accesses uint64

	l1, tlb1, tlb2, llc cache.Stats
	dram                dram.Stats
	mesh                noc.MeshStats
	serdesMsgs          uint64
	serdesBytes         uint64
	streamFill          uint64
	objPushes           uint64
	objFlushes          uint64
	permWrites          uint64
}

func (e *Engine) obsSnapshot() obsTotals {
	e.drainLLC()
	var t obsTotals
	for _, u := range e.units {
		t.insts += u.instTotal
		t.accesses += u.accessTotal + u.accesses // closed steps + the open one
		if u.L1 != nil {
			addCache(&t.l1, u.L1.Stats())
		}
		if u.tlbL1 != nil {
			addCache(&t.tlb1, u.tlbL1.Stats())
		}
		if u.tlbL2 != nil {
			addCache(&t.tlb2, u.tlbL2.Stats())
		}
		if u.Streams != nil {
			t.streamFill += u.Streams.FillBytes
		}
		if u.ObjBuf != nil {
			t.objPushes += u.ObjBuf.Pushes
			t.objFlushes += u.ObjBuf.Flushes
		}
	}
	if e.llc != nil {
		t.llc = e.llc.Stats()
	}
	t.dram = e.Sys.TotalDRAMStats()
	for _, c := range e.Sys.Cubes {
		t.mesh.Merge(c.Mesh.Stats())
	}
	if e.mesh != nil {
		t.mesh.Merge(e.mesh.Stats())
	}
	for _, l := range e.Sys.Net.Links() {
		s := l.Stats()
		t.serdesMsgs += s.Messages
		t.serdesBytes += s.Bytes
	}
	for _, v := range e.Sys.Vaults() {
		t.permWrites += v.PermutedWrites
	}
	return t
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.DirtyEvictions += s.DirtyEvictions
	dst.PrefetchIssued += s.PrefetchIssued
	dst.PrefetchHits += s.PrefetchHits
}

func subCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:       a.Accesses - b.Accesses,
		Hits:           a.Hits - b.Hits,
		Misses:         a.Misses - b.Misses,
		DirtyEvictions: a.DirtyEvictions - b.DirtyEvictions,
		PrefetchIssued: a.PrefetchIssued - b.PrefetchIssued,
		PrefetchHits:   a.PrefetchHits - b.PrefetchHits,
	}
}

func (t obsTotals) sub(b obsTotals) obsTotals {
	d := obsTotals{
		insts:       t.insts - b.insts,
		accesses:    t.accesses - b.accesses,
		l1:          subCache(t.l1, b.l1),
		tlb1:        subCache(t.tlb1, b.tlb1),
		tlb2:        subCache(t.tlb2, b.tlb2),
		llc:         subCache(t.llc, b.llc),
		serdesMsgs:  t.serdesMsgs - b.serdesMsgs,
		serdesBytes: t.serdesBytes - b.serdesBytes,
		streamFill:  t.streamFill - b.streamFill,
		objPushes:   t.objPushes - b.objPushes,
		objFlushes:  t.objFlushes - b.objFlushes,
		permWrites:  t.permWrites - b.permWrites,
	}
	d.dram = t.dram
	d.dram.Reads -= b.dram.Reads
	d.dram.Writes -= b.dram.Writes
	d.dram.ReadBytes -= b.dram.ReadBytes
	d.dram.WriteBytes -= b.dram.WriteBytes
	d.dram.Activations -= b.dram.Activations
	d.dram.RowHits -= b.dram.RowHits
	d.dram.RowColdMisses -= b.dram.RowColdMisses
	d.dram.RowConflicts -= b.dram.RowConflicts
	d.dram.BusNs = t.dram.BusNs - b.dram.BusNs
	d.mesh.Messages = t.mesh.Messages - b.mesh.Messages
	d.mesh.Bytes = t.mesh.Bytes - b.mesh.Bytes
	d.mesh.BitMM = t.mesh.BitMM - b.mesh.BitMM
	d.mesh.BusyNs = t.mesh.BusyNs - b.mesh.BusyNs
	for i := range d.mesh.HopCounts {
		d.mesh.HopCounts[i] = t.mesh.HopCounts[i] - b.mesh.HopCounts[i]
	}
	return d
}

// BeginPhase opens a named operator phase (partition, probe, ...). All
// simulated time, steps and hardware activity until the matching EndPhase
// are attributed to it. Phases must not nest; repeated names get a "#n"
// suffix (Join runs two partition phases). A no-op when observability is
// disabled — the nil-check is the hook's entire disabled-path cost.
func (e *Engine) BeginPhase(name string) {
	if e.cfg.Obs == nil {
		return
	}
	if e.phaseOpen {
		panic(fmt.Sprintf("engine: BeginPhase(%q) while phase %q is open", name, e.curPhase.Name))
	}
	if e.phasePrefix != "" {
		name = e.phasePrefix + "/" + name
	}
	e.phaseOpen = true
	if n := e.phaseSeen[name]; n > 0 {
		e.phaseSeen[name] = n + 1
		name = fmt.Sprintf("%s#%d", name, n+1)
	} else {
		if e.phaseSeen == nil {
			e.phaseSeen = make(map[string]int)
		}
		e.phaseSeen[name] = 1
	}
	e.curPhase = PhaseTiming{Name: name, StartNs: e.totalNs, StepStart: len(e.steps)}
	e.phaseSnap = e.obsSnapshot()
	e.phaseWall = time.Now()
}

// SetPhasePrefix labels the phases of subsequent BeginPhase calls with a
// stage prefix ("join" turns the operator's "partition" phase into
// "join/partition"), so multi-operator plans attribute every phase to the
// plan stage that ran it. The empty prefix (the default) leaves phase
// names exactly as the operators report them. Prefixed names feed the
// same "#n" de-duplication as plain ones, so repeated stages stay
// distinguishable. Callers set the prefix at serial points only.
func (e *Engine) SetPhasePrefix(prefix string) { e.phasePrefix = prefix }

// EndPhase closes the open phase. A no-op when observability is disabled.
func (e *Engine) EndPhase() {
	if e.cfg.Obs == nil {
		return
	}
	if !e.phaseOpen {
		panic("engine: EndPhase without BeginPhase")
	}
	e.phaseOpen = false
	p := e.curPhase
	p.EndNs = e.totalNs
	p.StepEnd = len(e.steps)
	p.WallNs = time.Since(e.phaseWall).Nanoseconds()
	p.deltas = e.obsSnapshot().sub(e.phaseSnap)
	p.instructions = p.deltas.insts
	e.phases = append(e.phases, p)
}

// Phases returns the completed phases in execution order (nil when
// observability is disabled).
func (e *Engine) Phases() []PhaseTiming { return e.phases }

// exchangeRecord summarizes one exchange flush for the span tree and the
// exchange_* counters. Recorded serially at the end of the flush, so it is
// deterministic at every parallelism level.
type exchangeRecord struct {
	step       int // index the enclosing step will get (== len(steps) at the flush)
	tuples     uint64
	messages   uint64
	bytes      uint64
	permWrites uint64
	convWrites uint64
	nearMisses uint64 // destinations ≥90% full after the flush
}

func (x *exchange) recordObs(msgSize int) {
	e := x.e
	if e.cfg.Obs == nil {
		return
	}
	rec := exchangeRecord{step: len(e.steps)}
	for _, box := range x.boxes {
		for d, n := range box.netCnt {
			rec.messages += n
			rec.tuples += uint64(len(box.perDst[d]))
		}
	}
	rec.bytes = rec.messages * uint64(msgSize)
	if x.perm {
		rec.permWrites = rec.tuples
	} else {
		rec.convWrites = rec.tuples
	}
	for _, dst := range x.dests {
		if dst.cap > 0 && uint64(len(dst.Tuples))*10 >= uint64(dst.cap)*9 {
			rec.nearMisses++
		}
	}
	e.exchanges = append(e.exchanges, rec)
}

// skewStat is one phase's skew observation: the exact destination-load
// spread from the histogram exchange. Recorded serially between steps.
type skewStat struct {
	phase    string
	maxLoad  float64
	meanLoad float64
}

// RecordSkew stores one skew observation for the currently open phase (or
// unattributed when no phase is open / observability is disabled). Called
// by the partition phase on skew-aware runs; the values come from the
// exact exchanged histograms, so they are deterministic at every
// parallelism level.
func (e *Engine) RecordSkew(maxLoad, meanLoad float64) {
	phase := ""
	if e.phaseOpen {
		phase = e.curPhase.Name
	}
	e.skewStats = append(e.skewStats, skewStat{phase: phase, maxLoad: maxLoad, meanLoad: meanLoad})
}

// Histogram bucket bounds for CollectObs. Hop bounds cover the 4×4 mesh
// diameter; step bounds span µs-to-ms simulated step durations.
var (
	hopBounds  = []float64{0, 1, 2, 3, 4, 5, 6, 8}
	stepBounds = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
)

// CollectObs harvests every deterministic run statistic into reg: totals,
// per-unit and per-vault counters (in unit- and vault-ID order), per-link
// SerDes traffic, hop and step-duration histograms, exchange summaries,
// and per-phase attribution. Call after the run completes; a nil registry
// is a no-op.
func (e *Engine) CollectObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t := e.obsSnapshot()

	reg.Gauge("sim_total_ns").Set(e.totalNs)
	reg.Counter("steps_total").Add(uint64(len(e.steps)))
	reg.Counter("barriers_total").Add(uint64(e.barrierCnt))
	reg.Gauge("instructions_total").Set(t.insts)
	reg.Counter("accesses_total").Add(t.accesses)
	if e.totalNs > 0 && len(e.units) > 0 {
		reg.Gauge("run_ipc").Set(t.insts / (e.totalNs * e.cfg.Core.FreqGHz) / float64(len(e.units)))
	}

	recordCacheStats(reg, "l1", t.l1)
	recordCacheStats(reg, "tlb_l1", t.tlb1)
	recordCacheStats(reg, "tlb_l2", t.tlb2)
	recordCacheStats(reg, "llc", t.llc)
	recordDRAMStats(reg, "dram", t.dram)

	reg.Counter("mesh_messages").Add(t.mesh.Messages)
	reg.Counter("mesh_bytes").Add(t.mesh.Bytes)
	reg.Gauge("mesh_busy_ns").Set(t.mesh.BusyNs)
	hops := reg.Histogram("mesh_hops", hopBounds)
	for h, n := range t.mesh.HopCounts {
		hops.ObserveN(float64(h), n)
	}

	reg.Counter("serdes_messages").Add(t.serdesMsgs)
	reg.Counter("serdes_bytes").Add(t.serdesBytes)
	names := e.Sys.Net.LinkNames()
	for i, l := range e.Sys.Net.Links() {
		s := l.Stats()
		reg.Counter(obs.Label("serdes_link_bytes", "link", names[i])).Add(s.Bytes)
		reg.Counter(obs.Label("serdes_link_messages", "link", names[i])).Add(s.Messages)
	}

	reg.Counter("stream_fill_bytes").Add(t.streamFill)
	reg.Counter("objbuf_pushes").Add(t.objPushes)
	reg.Counter("objbuf_flushes").Add(t.objFlushes)
	reg.Counter("permuted_writes").Add(t.permWrites)

	var ex exchangeRecord
	for _, r := range e.exchanges {
		ex.tuples += r.tuples
		ex.messages += r.messages
		ex.bytes += r.bytes
		ex.permWrites += r.permWrites
		ex.convWrites += r.convWrites
		ex.nearMisses += r.nearMisses
	}
	reg.Counter("exchange_flushes").Add(uint64(len(e.exchanges)))
	reg.Counter("exchange_tuples").Add(ex.tuples)
	reg.Counter("exchange_messages").Add(ex.messages)
	reg.Counter("exchange_bytes").Add(ex.bytes)
	reg.Counter("exchange_permutable_writes").Add(ex.permWrites)
	reg.Counter("exchange_conventional_writes").Add(ex.convWrites)
	reg.Counter("exchange_overflow_near_misses").Add(ex.nearMisses)

	stepHist := reg.Histogram("step_ns", stepBounds)
	for _, st := range e.steps {
		stepHist.Observe(st.Ns)
	}

	for i, u := range e.units {
		id := strconv.Itoa(i)
		reg.Gauge(obs.Label("unit_busy_ns", "unit", id)).Set(u.busyNs)
		reg.Gauge(obs.Label("unit_instructions", "unit", id)).Set(u.instTotal)
		reg.Counter(obs.Label("unit_accesses", "unit", id)).Add(u.accessTotal + u.accesses)
	}

	for _, v := range e.Sys.Vaults() {
		id := strconv.Itoa(v.ID)
		ds := v.DRAM.Stats()
		reg.Counter(obs.Label("vault_dram_row_hits", "vault", id)).Add(ds.RowHits)
		reg.Counter(obs.Label("vault_dram_activations", "vault", id)).Add(ds.Activations)
		reg.Counter(obs.Label("vault_dram_bytes", "vault", id)).Add(ds.TotalBytes())
		if v.PermutedWrites > 0 {
			reg.Counter(obs.Label("vault_permuted_writes", "vault", id)).Add(v.PermutedWrites)
		}
	}

	// Only skew-aware partition phases record skew observations, so
	// manifests of skew-unaware runs carry no load gauges.
	for _, s := range e.skewStats {
		lbl := func(name string) string { return obs.Label(name, "phase", s.phase) }
		reg.Gauge(lbl("phase_load_max")).Set(s.maxLoad)
		reg.Gauge(lbl("phase_load_mean")).Set(s.meanLoad)
	}

	for _, p := range e.phases {
		lbl := func(name string) string { return obs.Label(name, "phase", p.Name) }
		d := p.deltas
		reg.Gauge(lbl("phase_sim_ns")).Set(p.SimulatedNs())
		reg.Gauge(lbl("phase_instructions")).Set(d.insts)
		reg.Counter(lbl("phase_accesses")).Add(d.accesses)
		reg.Counter(lbl("phase_l1_misses")).Add(d.l1.Misses)
		reg.Counter(lbl("phase_dram_row_hits")).Add(d.dram.RowHits)
		reg.Counter(lbl("phase_dram_row_conflicts")).Add(d.dram.RowConflicts)
		reg.Counter(lbl("phase_dram_bytes")).Add(d.dram.TotalBytes())
		reg.Counter(lbl("phase_mesh_bytes")).Add(d.mesh.Bytes)
		reg.Counter(lbl("phase_serdes_bytes")).Add(d.serdesBytes)
		reg.Counter(lbl("phase_stream_fill_bytes")).Add(d.streamFill)
		reg.Counter(lbl("phase_permuted_writes")).Add(d.permWrites)
		if dur := p.SimulatedNs(); dur > 0 && len(e.units) > 0 {
			reg.Gauge(lbl("phase_ipc")).Set(d.insts / (dur * e.cfg.Core.FreqGHz) / float64(len(e.units)))
		}
	}
}

func recordCacheStats(reg *obs.Registry, prefix string, s cache.Stats) {
	reg.Counter(prefix + "_accesses").Add(s.Accesses)
	reg.Counter(prefix + "_hits").Add(s.Hits)
	reg.Counter(prefix + "_misses").Add(s.Misses)
	reg.Counter(prefix + "_dirty_evictions").Add(s.DirtyEvictions)
	reg.Counter(prefix + "_prefetch_issued").Add(s.PrefetchIssued)
	reg.Counter(prefix + "_prefetch_hits").Add(s.PrefetchHits)
}

func recordDRAMStats(reg *obs.Registry, prefix string, s dram.Stats) {
	reg.Counter(prefix + "_reads").Add(s.Reads)
	reg.Counter(prefix + "_writes").Add(s.Writes)
	reg.Counter(prefix + "_read_bytes").Add(s.ReadBytes)
	reg.Counter(prefix + "_write_bytes").Add(s.WriteBytes)
	reg.Counter(prefix + "_activations").Add(s.Activations)
	reg.Counter(prefix + "_row_hits").Add(s.RowHits)
	reg.Counter(prefix + "_row_cold_misses").Add(s.RowColdMisses)
	reg.Counter(prefix + "_row_conflicts").Add(s.RowConflicts)
	reg.Gauge(prefix + "_bus_busy_ns").Set(s.BusNs)
}

// BuildSpans constructs the simulated-time span tree: run → phase → step
// → per-unit task / exchange round. All inputs are deterministic engine
// state, so the tree is identical at every parallelism level. Returns nil
// when observability is disabled.
func (e *Engine) BuildSpans() *obs.Span {
	if e.cfg.Obs == nil {
		return nil
	}
	root := &obs.Span{Name: "run", StartNs: 0, EndNs: e.totalNs}

	// Cumulative step start offsets on the simulated clock.
	starts := make([]float64, len(e.steps)+1)
	for i, st := range e.steps {
		starts[i+1] = starts[i] + st.Ns
	}

	// Exchange records grouped by enclosing step.
	exByStep := make(map[int][]exchangeRecord, len(e.exchanges))
	for _, r := range e.exchanges {
		exByStep[r.step] = append(exByStep[r.step], r)
	}

	buildStep := func(parent *obs.Span, i int) {
		st := e.steps[i]
		s := parent.Child(st.Name, starts[i], starts[i]+st.Ns)
		if st.Instructions > 0 {
			s.SetAttr("instructions", st.Instructions)
		}
		if st.MemNs > 0 {
			s.SetAttr("mem_ns", st.MemNs)
		}
		if st.NetNs > 0 {
			s.SetAttr("net_ns", st.NetNs)
		}
		for _, r := range exByStep[i] {
			x := s.Child("exchange", s.StartNs, s.EndNs)
			x.SetAttr("tuples", float64(r.tuples))
			x.SetAttr("messages", float64(r.messages))
			x.SetAttr("bytes", float64(r.bytes))
			if r.nearMisses > 0 {
				x.SetAttr("overflow_near_misses", float64(r.nearMisses))
			}
		}
		if i < len(e.stepUnits) {
			for uid, ns := range e.stepUnits[i] {
				if ns > 0 {
					s.Child("unit_"+strconv.Itoa(uid), s.StartNs, s.StartNs+ns)
				}
			}
		}
	}

	next := 0 // first step not yet attached
	for _, p := range e.phases {
		for ; next < p.StepStart; next++ {
			buildStep(root, next)
		}
		ps := root.Child(p.Name, p.StartNs, p.EndNs)
		ps.SetAttr("instructions", p.instructions)
		// Phase-delta attribution (same deltas CollectObs exports as
		// phase_* counters), so a Chrome trace of the run carries the
		// byte/miss breakdown on each phase slice without a registry.
		d := p.deltas
		if d.accesses > 0 {
			ps.SetAttr("accesses", float64(d.accesses))
		}
		if d.l1.Misses > 0 {
			ps.SetAttr("l1_misses", float64(d.l1.Misses))
		}
		if b := d.dram.TotalBytes(); b > 0 {
			ps.SetAttr("dram_bytes", float64(b))
		}
		if d.mesh.Bytes > 0 {
			ps.SetAttr("mesh_bytes", float64(d.mesh.Bytes))
		}
		if d.serdesBytes > 0 {
			ps.SetAttr("serdes_bytes", float64(d.serdesBytes))
		}
		for ; next < p.StepEnd; next++ {
			buildStep(ps, next)
		}
	}
	for ; next < len(e.steps); next++ {
		buildStep(root, next)
	}
	return root
}
