package operators

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// ScanResult reports a Scan run.
type ScanResult struct {
	// Matches is the number of tuples whose key equals the needle.
	Matches int
	// Out holds the matching tuples (one region per participating unit).
	Out []*engine.Region
	// ProbeNs is the operator's runtime (Scan has no partitioning phase).
	ProbeNs float64
	Steps   []engine.StepTiming
}

// Scan searches every input partition in parallel for tuples matching the
// needle key (§6: "each input data partition is scanned in parallel, and
// each tuple is compared to the searched value"). Scan is the one
// operator without a partitioning phase (Table 2).
func Scan(e *engine.Engine, cfg Config, inputs []*engine.Region, needle tuple.Key) (*ScanResult, error) {
	if err := checkInputs(e, inputs); err != nil {
		return nil, err
	}
	cm := cfg.Costs
	insts := cm.ScanInsts
	if isSIMD(e) {
		insts /= cm.SIMDScanFactor
	}

	res := &ScanResult{}
	t0 := e.TotalNs()
	e.BeginPhase("probe")
	defer e.EndPhase()

	// Output regions: matches are appended locally by whoever scans the
	// partition. Capacity is bounded by the partition size.
	outs := make([]*engine.Region, len(inputs))
	for v, in := range inputs {
		r, err := e.AllocOut(v, max(in.Len(), 1))
		if err != nil {
			return nil, err
		}
		outs[v] = r
	}
	res.Out = outs

	e.BeginStep(scanProfile(e, cm))
	if e.Config().Arch == engine.CPU {
		// Cores sweep the vault partitions round-robin over the star
		// network; the sequential stream is prefetch-friendly but every
		// byte crosses the CPU's SerDes links.
		for v, in := range inputs {
			u := e.Units()[v%len(e.Units())]
			if u.Bulk() {
				// Bulk path: peek ahead in the functional data to find the
				// next match, then retire the whole stretch up to and
				// including it as one run — identical charged access order.
				ts := in.Tuples
				for pos := 0; pos < len(ts); {
					m := pos
					for m < len(ts) && ts[m].Key != needle {
						m++
					}
					n := m - pos
					if m < len(ts) {
						n++ // include the matching tuple in the run
					}
					u.LoadRun(in, pos, n)
					u.ChargeRun(insts, n)
					if m < len(ts) {
						u.AppendLocal(outs[v], ts[m])
						res.Matches++
					}
					pos += n
				}
				continue
			}
			// Reference per-tuple path.
			for i := 0; i < in.Len(); i++ {
				t := u.LoadTuple(in, i)
				u.Charge(insts)
				if t.Key == needle {
					u.AppendLocal(outs[v], t)
					res.Matches++
				}
			}
		}
	} else {
		matches := make([]int, len(inputs))
		if err := e.ForEachVault(func(v int, u *engine.Unit) error {
			readers, err := u.OpenStreams(inputs[v])
			if err != nil {
				return err
			}
			if u.Bulk() {
				ts := inputs[v].Tuples
				for pos := 0; pos < len(ts); {
					m := pos
					for m < len(ts) && ts[m].Key != needle {
						m++
					}
					n := m - pos
					if m < len(ts) {
						n++
					}
					readers[0].NextRun(n)
					u.ChargeRun(insts, n)
					if m < len(ts) {
						u.AppendLocal(outs[v], ts[m])
						matches[v]++
					}
					pos += n
				}
				return nil
			}
			// Reference per-tuple path.
			for {
				t, ok := readers[0].Next()
				if !ok {
					return nil
				}
				u.Charge(insts)
				if t.Key == needle {
					u.AppendLocal(outs[v], t)
					matches[v]++
				}
			}
		}); err != nil {
			return nil, err
		}
		for _, m := range matches {
			res.Matches += m
		}
	}
	res.Steps = append(res.Steps, e.EndStep())
	res.ProbeNs = e.TotalNs() - t0
	return res, nil
}
