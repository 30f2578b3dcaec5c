package plan

import (
	"github.com/ecocloud-go/mondrian/internal/engine"
)

// Materialize compacts arbitrary operator-output regions into the
// canonical one-region-per-vault input layout. Data does not move between
// vaults — each vault's fragments are concatenated locally, one fragment
// at a time as a sequential read run followed by a sequential write run,
// charged to the vault's unit. Each fragment retires in two run calls,
// and the engine's NoBulk mode expands each run call into its per-element
// accesses, so Materialize keeps no per-tuple loop of its own (the
// bulk-vs-reference differential suite pins the expansion).
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
		StreamFed: e.StreamFed()})
	for v := 0; v < nv; v++ {
		total := 0
		for _, r := range byVault[v] {
			total += r.Len()
		}
		dst, err := e.AllocOut(v, max(total, 1))
		if err != nil {
			return nil, err
		}
		dst.Reserve(total)
		u := unitFor(e, v)
		for _, r := range byVault[v] {
			ts := u.LoadRun(r, 0, r.Len())
			u.ChargeRun(2, len(ts))
			u.AppendRunLocal(dst, ts)
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
