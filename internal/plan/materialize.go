package plan

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
)

// Materialize compacts arbitrary operator-output regions into the
// canonical one-region-per-vault input layout. Data does not move between
// vaults — each vault's fragments are concatenated locally, one fragment
// at a time as a sequential read run followed by a sequential write run,
// charged to the vault's unit. The run-based bulk access path retires
// each fragment in two calls; the engine's NoBulk mode expands them into
// the per-tuple reference loop with the same access order, so the two
// modes charge identical simulated work (the bulk-vs-reference
// differential suite pins this).
func Materialize(e *engine.Engine, outs []*engine.Region) ([]*engine.Region, error) {
	nv := e.NumVaults()
	byVault := make([][]*engine.Region, nv)
	for _, r := range outs {
		byVault[r.Vault.ID] = append(byVault[r.Vault.ID], r)
	}
	result := make([]*engine.Region, nv)
	e.BeginPhase("materialize")
	defer e.EndPhase()
	e.BeginStep(engine.StepProfile{Name: "materialize", DepIPC: 2, InstPerAccess: 4,
		StreamFed: e.Config().UseStreams})
	for v := 0; v < nv; v++ {
		total := 0
		for _, r := range byVault[v] {
			total += r.Len()
		}
		dst, err := e.AllocOut(v, maxInt(total, 1))
		if err != nil {
			return nil, err
		}
		dst.Reserve(total)
		u := unitFor(e, v)
		for _, r := range byVault[v] {
			n := r.Len()
			if n == 0 {
				continue
			}
			if u.Bulk() {
				ts := u.LoadRun(r, 0, n)
				u.ChargeRun(2, n)
				u.AppendRunLocal(dst, ts)
				continue
			}
			// Reference per-tuple path: the element-wise expansion of the
			// two runs above, in the same order.
			for i := 0; i < n; i++ {
				u.LoadTuple(r, i)
				u.Charge(2)
			}
			for i := 0; i < n; i++ {
				u.AppendLocal(dst, r.Tuples[i])
			}
		}
		result[v] = dst
	}
	e.EndStep()
	return result, nil
}

// unitFor picks the unit that compacts vault v's fragments.
func unitFor(e *engine.Engine, v int) *engine.Unit {
	if e.Config().Arch == engine.CPU {
		return e.Units()[v%len(e.Units())]
	}
	return e.UnitForVault(v)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
