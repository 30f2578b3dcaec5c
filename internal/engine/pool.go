package engine

import (
	"runtime"
	"sync"
)

// Pool recycles constructed engines across runs (DESIGN.md §16). Engines
// are keyed by their full identity — every configuration field that
// shapes construction or simulated behaviour —
// so an acquired engine is guaranteed interchangeable with a fresh
// New(cfg): Release resets the engine to pristine state (Engine.Reset)
// before parking it, and the reset contract makes reuse invisible in
// report JSON.
//
// The observability registry is deliberately excluded from the key: it is
// a per-run output binding, not part of the system's identity, and is
// re-pointed on every Acquire.
//
// Idle lists are bounded per key (PerKey); releases beyond the bound
// discard the engine to the garbage collector, so a burst of concurrent
// runs cannot pin an unbounded amount of construction state. A Pool is
// safe for concurrent use.
type Pool struct {
	perKey int

	mu    sync.Mutex
	idle  map[Config][]*Engine
	stats PoolStats
}

// PoolStats counts pool traffic: Hits are acquisitions served from the
// idle list, Misses fell through to New, Discards are releases dropped
// because the key's idle list was full.
type PoolStats struct {
	Hits     uint64
	Misses   uint64
	Discards uint64
}

// NewPool creates a pool holding at most perKey idle engines per
// configuration key. perKey <= 0 selects the default, GOMAXPROCS — one
// engine per potential concurrent worker.
func NewPool(perKey int) *Pool {
	if perKey <= 0 {
		perKey = runtime.GOMAXPROCS(0)
	}
	return &Pool{perKey: perKey, idle: make(map[Config][]*Engine)}
}

// poolKey canonicalizes a configuration into the pool's map key: the
// config with its one pointer field, Obs (a per-run binding), zeroed.
// Every remaining Config field is a comparable value, so the config
// itself is the key. Building it allocates nothing: a formatted key went
// through fmt's printer cache, which the garbage collector empties, so
// the allocations of a run depended on when collections fell.
func poolKey(cfg Config) Config {
	cfg.Obs = nil
	return cfg
}

// Acquire returns a pristine engine for cfg: a reset idle engine when one
// is parked under cfg's key, a fresh New(cfg) otherwise. The caller owns
// the engine until Release.
func (p *Pool) Acquire(cfg Config) (*Engine, error) {
	key := poolKey(cfg)
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		e := list[len(list)-1]
		list[len(list)-1] = nil
		p.idle[key] = list[:len(list)-1]
		p.stats.Hits++
		p.mu.Unlock()
		// Key equality guarantees cfg differs from the engine's own config
		// at most in the pointer fields; adopt the caller's wholesale so
		// the run binds to its registry.
		e.cfg = cfg
		return e, nil
	}
	p.stats.Misses++
	p.mu.Unlock()
	return New(cfg)
}

// Release resets e and parks it for reuse (or discards it when the key's
// idle list is full). The caller must be done with every region, reader
// and result slice the run handed out — Reset invalidates them. Release
// of nil is a no-op.
func (p *Pool) Release(e *Engine) {
	if e == nil {
		return
	}
	key := poolKey(e.cfg)
	e.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) >= p.perKey {
		p.stats.Discards++
		return
	}
	p.idle[key] = append(p.idle[key], e)
}

// Stats returns a snapshot of the pool's traffic counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
