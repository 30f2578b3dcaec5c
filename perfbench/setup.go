package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/simulate"
	gen "github.com/ecocloud-go/mondrian/internal/workload"
)

// setupRounds is how many times set-up is repeated; the median is
// reported, so one round slowed by the host does not move the figure.
const setupRounds = 15

// setupTimes are the medians over setupRounds of building one engine per
// system shape with engine.New, and of resetting each after use.
type setupTimes struct {
	totalS  float64 // all shapes' engine.New, the workload's set-up
	newMs   float64 // one engine.New, mean over shapes
	resetUs float64 // one Engine.Reset of a used engine, mean over shapes
}

// measureSetup builds, uses and resets an engine for every system. Each
// engine is used by a small scan first, so Reset has state to clear.
func measureSetup(p simulate.Params) (setupTimes, error) {
	systems := simulate.Systems()
	rel := gen.Uniform("setup", gen.Config{Seed: p.Seed, Tuples: 4096, KeySpace: p.KeySpace})
	needle, _ := gen.ScanTarget(rel, p.Seed)
	var totals, resets []float64
	for round := 0; round < setupRounds; round++ {
		runtime.GC()
		var newNs, resetNs int64
		for _, s := range systems {
			t0 := time.Now()
			e, err := engine.New(p.EngineConfig(s))
			newNs += time.Since(t0).Nanoseconds()
			if err != nil {
				return setupTimes{}, fmt.Errorf("set-up: %v: %w", s, err)
			}
			parts := rel.SplitEven(e.NumVaults())
			regions := make([]*engine.Region, len(parts))
			for v, part := range parts {
				if regions[v], err = e.Place(v, part.Tuples); err != nil {
					return setupTimes{}, fmt.Errorf("set-up: %v: %w", s, err)
				}
			}
			if _, err := operators.Scan(e, p.OperatorConfig(s), regions, needle); err != nil {
				return setupTimes{}, fmt.Errorf("set-up: %v: %w", s, err)
			}
			t1 := time.Now()
			e.Reset()
			resetNs += time.Since(t1).Nanoseconds()
		}
		totals = append(totals, float64(newNs))
		resets = append(resets, float64(resetNs))
	}
	n := float64(len(systems))
	return setupTimes{
		totalS:  median(totals) / 1e9,
		newMs:   median(totals) / n / 1e6,
		resetUs: median(resets) / n / 1e3,
	}, nil
}
