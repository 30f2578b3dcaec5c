package engine

import (
	"strings"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/cache"
)

// TestAssemblyFromArch pins the hardware New builds for each architecture:
// the CPU's host cores carry TLBs and L1s around a shared LLC; NMP's vault
// cores carry L1s, plus object buffers when permutable; Mondrian's units are
// cacheless, with object and stream buffers, and only they are stream-fed.
func TestAssemblyFromArch(t *testing.T) {
	cases := []struct {
		name                               string
		cfg                                Config
		l1, tlb, objBuf, streams, llc, fed bool
	}{
		{"cpu", cpuConfig(), true, true, false, false, true, false},
		{"nmp", nmpConfig(false), true, false, false, false, false, false},
		{"nmp+perm", nmpConfig(true), true, false, true, false, false, false},
		{"mondrian", mondrianConfig(), false, false, true, true, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.cfg)
			if got := e.LLC() != nil; got != tc.llc {
				t.Errorf("LLC present = %v, want %v", got, tc.llc)
			}
			if got := e.StreamFed(); got != tc.fed {
				t.Errorf("StreamFed() = %v, want %v", got, tc.fed)
			}
			for _, u := range e.Units() {
				got := [4]bool{u.L1 != nil, u.tlbL1 != nil && u.tlbL2 != nil, u.ObjBuf != nil, u.Streams != nil}
				if want := [4]bool{tc.l1, tc.tlb, tc.objBuf, tc.streams}; got != want {
					t.Errorf("unit %d has L1/TLB/object buffer/stream buffers %v, want %v", u.ID, got, want)
				}
				if (u.Vault == nil) != (tc.cfg.Arch == CPU) {
					t.Errorf("unit %d vault-resident = %v", u.ID, u.Vault != nil)
				}
			}
		})
	}
}

// TestSpecValidationErrors covers the Validate errors that stand between a
// system's specification and a panic in New: an unknown architecture,
// permutability on the CPU's passive cubes, and cache geometries the
// architecture builds but that hold no set.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"unknown arch", func() Config { c := nmpConfig(false); c.Arch = Arch(7); return c }, "unknown architecture"},
		{"cpu+perm", func() Config { c := cpuConfig(); c.Permutable = true; return c },
			"engine: Permutable needs vault-resident units (NMP or Mondrian)"},
		{"nmp zero L1", func() Config { c := nmpConfig(false); c.L1 = cache.Config{}; return c }, "engine: L1"},
		{"nmp sub-set L1", func() Config { c := nmpConfig(false); c.L1.SizeBytes = 100; return c }, "fewer than one set"},
		{"cpu sub-set L1", func() Config { c := cpuConfig(); c.L1.SizeBytes = 64; return c }, "engine: L1"},
		{"cpu zero LLC", func() Config { c := cpuConfig(); c.LLC = cache.Config{}; return c }, "engine: LLC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error = %v, want one containing %q", err, tc.want)
			}
		})
	}

	// Mondrian builds no cache, so it ignores the cache geometries.
	cfg := mondrianConfig()
	cfg.L1.SizeBytes = 100
	mustEngine(t, cfg)
}

// TestConfigRejectsNegativeKnobs pins the tightened Config validation:
// negative BarrierNs and StreamBuffers are construction-time errors.
func TestConfigRejectsNegativeKnobs(t *testing.T) {
	cfg := nmpConfig(false)
	cfg.BarrierNs = -1
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "BarrierNs") {
		t.Fatalf("BarrierNs=-1 New error = %v", err)
	}
	cfg = mondrianConfig()
	cfg.StreamBuffers = -4
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "StreamBuffers") {
		t.Fatalf("StreamBuffers=-4 New error = %v", err)
	}
}

// TestCustomSpecAssembly builds a Mondrian engine with a custom
// stream-buffer count and checks the assembled units: vault-resident and
// cacheless, with an object buffer and four stream buffers.
func TestCustomSpecAssembly(t *testing.T) {
	cfg := mondrianConfig()
	cfg.StreamBuffers = 4
	for _, u := range mustEngine(t, cfg).Units() {
		if u.L1 != nil || u.Streams == nil || u.ObjBuf == nil || u.Vault == nil {
			t.Fatalf("unit %d not assembled as a Mondrian unit", u.ID)
		}
		if u.Streams.Buffers() != 4 {
			t.Fatalf("unit %d has %d stream buffers, want 4", u.ID, u.Streams.Buffers())
		}
	}
}
