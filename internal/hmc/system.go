package hmc

import (
	"fmt"
	"math"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/noc"
)

// Cube is one HMC device: a set of vaults interconnected by a 2D mesh on
// the logic layer, attached to the rest of the system by SerDes links.
type Cube struct {
	ID     int
	Vaults []*Vault
	Mesh   *noc.Mesh
}

// System is the memory fabric shared by all evaluated architectures: four
// 8 GB cubes of 16 vaults each in the paper's configuration, wired star
// (CPU-centric) or fully connected (NMP/Mondrian).
type System struct {
	Cubes    []*Cube
	Net      *noc.Network
	VaultCap int64

	vaults []*Vault // flat view, indexed by global vault ID

	// vaultShift is the shift form of the address→vault division, valid
	// when VaultCap is a power of two (every modeled configuration); 0
	// means "use the divide path".
	vaultShift uint
}

// NewSystem builds the memory fabric. vaultsPerCube must be a square so
// the mesh is square (16 vaults → 4×4 mesh).
func NewSystem(cubes, vaultsPerCube int, topo noc.Topology, geom dram.Geometry, tim dram.Timing) *System {
	if cubes <= 0 || vaultsPerCube <= 0 {
		panic("hmc: system needs at least one cube and vault")
	}
	side := int(math.Sqrt(float64(vaultsPerCube)))
	if side*side != vaultsPerCube {
		panic(fmt.Sprintf("hmc: vaultsPerCube %d is not a perfect square", vaultsPerCube))
	}
	s := &System{
		Net:      noc.NewNetwork(topo, cubes),
		VaultCap: geom.CapacityBytes,
	}
	if cap := geom.CapacityBytes; cap > 1 && cap&(cap-1) == 0 {
		for c := cap; c > 1; c >>= 1 {
			s.vaultShift++
		}
	}
	id := 0
	for c := 0; c < cubes; c++ {
		cube := &Cube{ID: c, Mesh: noc.NewMesh(side, side)}
		for t := 0; t < vaultsPerCube; t++ {
			v := NewVault(id, c, t, int64(id)*geom.CapacityBytes, geom, tim)
			cube.Vaults = append(cube.Vaults, v)
			s.vaults = append(s.vaults, v)
			id++
		}
		s.Cubes = append(s.Cubes, cube)
	}
	return s
}

// NumVaults returns the total vault count.
func (s *System) NumVaults() int { return len(s.vaults) }

// Vault returns the vault with the given global ID.
func (s *System) Vault(i int) *Vault {
	if i < 0 || i >= len(s.vaults) {
		panic(fmt.Sprintf("hmc: vault %d out of range [0,%d)", i, len(s.vaults)))
	}
	return s.vaults[i]
}

// Vaults returns the flat vault list.
func (s *System) Vaults() []*Vault { return s.vaults }

// VaultOf maps a global physical address to its owning vault.
func (s *System) VaultOf(addr int64) *Vault {
	var idx int64
	if s.vaultShift > 0 {
		idx = addr >> s.vaultShift
	} else {
		idx = addr / s.VaultCap
	}
	if addr < 0 || idx >= int64(len(s.vaults)) {
		panic(fmt.Sprintf("hmc: address %#x outside the %d-vault space", addr, len(s.vaults)))
	}
	return s.vaults[idx]
}

// CapacityBytes returns total system memory.
func (s *System) CapacityBytes() int64 {
	return int64(len(s.vaults)) * s.VaultCap
}

// TotalDRAMStats merges the per-vault DRAM shards in vault-ID order.
func (s *System) TotalDRAMStats() dram.Stats {
	var total dram.Stats
	for _, v := range s.vaults {
		total.Merge(v.DRAM.Stats())
	}
	return total
}

// ResetAll clears all statistics, busy times, allocations and row state.
func (s *System) ResetAll() {
	for _, v := range s.vaults {
		v.DRAM.ResetStats()
		v.DRAM.ResetBusy()
		v.DRAM.CloseAllRows()
		v.AllocReset()
		v.PermutedWrites = 0
		v.perm = PermRegion{}
	}
	for _, l := range s.Net.Links() {
		l.ResetStats()
	}
	for _, c := range s.Cubes {
		c.Mesh.ResetStats()
	}
}
