// Skewstudy quantifies the behaviour the paper defers to future work
// (§5.4): skewed key distributions. It runs Group-by over uniform and
// increasingly skewed Zipf datasets for every registered system, twice
// each:
//
//   - skew-UNAWARE: the paper's best-effort path. Destination buffers are
//     overprovisioned by a uniform factor; when a skewed shuffle would
//     overflow a vault, the controller raises an exception and the
//     CPU-side handler doubles the estimate and relaunches — the §5.4
//     retry loop. Every overflow is an "overflow near-miss": a full
//     partition attempt thrown away.
//
//   - skew-AWARE (Params.SkewAware): exact provisioning. The partition
//     phase sizes each destination from the histogram exchange it already
//     runs, so it never overflows. One attempt, no retries — and
//     byte-identical simulated results wherever the unaware path also
//     completes.
//
// The table prints, per (system, skew): the inbound load imbalance
// (max/mean vault load), the retry count and final overprovision factor
// the unaware path needed, both host wall times, and the resulting
// skew-aware speedup. The speedup grows with skew because retries are
// proportional to how far the hottest vault outruns the mean.
//
//	go run ./examples/skewstudy
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	mondrian "github.com/ecocloud-go/mondrian"
)

// study is one (dataset skew) column of the experiment.
type study struct {
	name  string
	zipfS float64 // 0 = uniform
}

var studies = []study{
	{"uniform", 0},
	{"zipf s=1.1", 1.1},
	{"zipf s=1.5", 1.5},
	{"zipf s=2.0", 2.0},
}

// unawareResult is what the §5.4 retry loop cost.
type unawareResult struct {
	res       *mondrian.Result
	retries   int
	finalOver float64
	wall      time.Duration
}

// runUnaware is the CPU-side exception handler of §5.4: on overflow it
// doubles the overprovisioning estimate and relaunches the operator from
// scratch. The wall time accumulates over every attempt — the real cost
// of best-effort provisioning under skew.
func runUnaware(sys mondrian.System, p mondrian.Params) (*unawareResult, error) {
	out := &unawareResult{finalOver: 2}
	p.SkewAware = false
	start := time.Now()
	for attempt := 0; attempt < 10; attempt++ {
		p.Overprovision = out.finalOver
		res, err := mondrian.RunExperiment(sys, mondrian.OperatorGroupBy, p)
		switch {
		case err == nil:
			out.res = res
			out.wall = time.Since(start)
			return out, nil
		case errors.Is(err, mondrian.ErrPartitionOverflow):
			out.retries++
			out.finalOver *= 2
		default:
			return nil, err
		}
	}
	return nil, fmt.Errorf("skew too extreme: gave up after %d retries", out.retries)
}

// imbalance reports the max/mean inbound vault load for the modulo
// placement the partition phase uses.
func imbalance(rel *mondrian.Relation, vaults int) float64 {
	counts := make([]int, vaults)
	for _, t := range rel.Tuples {
		counts[int(uint64(t.Key)%uint64(vaults))]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / (float64(rel.Len()) / float64(vaults))
}

func main() {
	log.SetFlags(0)
	base := mondrian.DefaultParams()
	base.STuples = 1 << 15
	base.KeySpace = 1 << 20
	// The paper's fixed 2^16 CPU partition count exceeds this dataset's
	// cardinality: the per-bucket estimate truncates to zero and no
	// overprovision factor can rescue the unaware path. Scale it down to
	// the dataset like the operator's auto-sizing would.
	base.CPUBuckets = 1 << 8
	vaults := base.Cubes * base.VaultsPer

	fmt.Println("Group-by under key skew: §5.4 retry loop vs skew-aware execution")
	fmt.Printf("(%d tuples over %d vaults; wall times are host-side)\n\n", base.STuples, vaults)

	for _, st := range studies {
		p := base
		p.ZipfS = st.zipfS

		// The dataset is regenerated identically inside every run; this
		// copy only feeds the imbalance column.
		rel, err := datasetFor(p)
		if err != nil {
			log.Fatalf("%s: %v", st.name, err)
		}
		fmt.Printf("%-11s  inbound imbalance ×%.2f\n", st.name, imbalance(rel, vaults))

		for _, sys := range mondrian.Systems() {
			// Min of three timed repetitions keeps scheduler and GC noise
			// out of the speedup column.
			const reps = 3
			var un *unawareResult
			for r := 0; r < reps; r++ {
				u, err := runUnaware(sys, p)
				if err != nil {
					log.Fatalf("%s/%v unaware: %v", st.name, sys, err)
				}
				if un == nil || u.wall < un.wall {
					un = u
				}
			}

			q := p
			q.SkewAware = true
			var aw *mondrian.Result
			var awWall time.Duration
			for r := 0; r < reps; r++ {
				awStart := time.Now()
				res, err := mondrian.RunExperiment(sys, mondrian.OperatorGroupBy, q)
				if err != nil {
					log.Fatalf("%s/%v skew-aware: %v", st.name, sys, err)
				}
				if w := time.Since(awStart); aw == nil || w < awWall {
					aw, awWall = res, w
				}
			}

			status := "✓"
			if !un.res.Verified || !aw.Verified {
				status = "✗"
			}
			speedup := float64(un.wall) / float64(awWall)
			fmt.Printf("  %-16s retries %d (final overprovision ×%-3.0f)  sim %8.1f µs  wall %8.2f→%-8.2f ms  speedup ×%.2f  %s\n",
				sys, un.retries, un.finalOver, aw.TotalNs/1e3,
				float64(un.wall)/1e6, float64(awWall)/1e6, speedup, status)
		}
		fmt.Println()
	}

	fmt.Println("Takeaway: the paper's uniform-distribution assumption hides a real")
	fmt.Println("cost. Under skew the best-effort path burns whole partition attempts")
	fmt.Println("on overflow near-misses, while the exact histogram the exchange")
	fmt.Println("already computes provisions every destination in one shot — and the")
	fmt.Println("differential suite proves the simulated results stay byte-identical.")
}

// datasetFor regenerates the experiment's Group-by input for the
// imbalance column, mirroring the simulate layer's workload routing.
func datasetFor(p mondrian.Params) (*mondrian.Relation, error) {
	c := mondrian.WorkloadConfig{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	if p.ZipfS > 0 {
		return mondrian.ZipfRelation("groupby-in", c, p.ZipfS)
	}
	return mondrian.GroupByRelation(c, p.GroupSize)
}
