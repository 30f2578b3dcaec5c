package simulate

import "github.com/ecocloud-go/mondrian/internal/engine"

// The package-level engine pool behind Run, RunPlan and Suite
// (DESIGN.md §16): one pool for the whole process, so concurrent runs —
// the serving layer's workers, parallel tests, repeated sweeps — share
// constructed engines instead of rebuilding caches, TLBs, meshes and
// stream buffers per run. Pooling is a host-execution choice only: an
// acquired engine is reset to pristine state, so report JSON is
// byte-identical to a fresh-engine run (TestResetEquivalence).
// Params.NoPool restores the build-per-run lifecycle, the reference the
// pool tests compare against.
var enginePool = engine.NewPool(0)

// acquireEngine returns an engine for the run plus its release hook.
// Pooled engines are returned to the pool on release; NoPool engines are
// dropped to the garbage collector. The release hook is intentionally not
// meant for defer inside the recovery boundary: callers invoke it only on
// normal (result or error) returns, so an engine abandoned mid-panic is
// discarded rather than recycled in an unknowable state.
func acquireEngine(p Params, s System) (*engine.Engine, func(), error) {
	cfg := p.EngineConfig(s)
	if p.NoPool {
		e, err := engine.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return e, func() {}, nil
	}
	e, err := enginePool.Acquire(cfg)
	if err != nil {
		return nil, nil, err
	}
	return e, func() { enginePool.Release(e) }, nil
}

// PoolStats returns the shared engine pool's traffic counters (hits,
// misses, discards) — the amortization evidence perfbench reports as
// simulate.pool_hit_ratio.
func PoolStats() engine.PoolStats { return enginePool.Stats() }
