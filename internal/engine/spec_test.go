package engine

import (
	"strings"
	"testing"
)

func TestPathKindString(t *testing.T) {
	for k, want := range map[PathKind]string{
		PathCPU:         "cpu",
		PathCachedVault: "cached-vault",
		PathStream:      "stream",
		PathKind(42):    "PathKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("PathKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestResolveSpecFromArch pins the archRows table: each legacy Arch maps
// to its canonical composition, and the historical feature toggles apply
// only where they historically did.
func TestResolveSpecFromArch(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want SystemSpec
	}{
		{"cpu", cpuConfig(), SystemSpec{
			Path: PathCPU, HostCores: true, TLB: true, UnitL1: true, SharedLLC: true,
		}},
		// Permutability on the CPU must not grow object buffers: the host
		// shuffles through its cache hierarchy.
		{"cpu+perm", func() Config { c := cpuConfig(); c.Permutable = true; return c }(),
			SystemSpec{Path: PathCPU, HostCores: true, TLB: true, UnitL1: true, SharedLLC: true}},
		{"nmp", nmpConfig(false), SystemSpec{Path: PathCachedVault, UnitL1: true}},
		{"nmp+perm", nmpConfig(true), SystemSpec{Path: PathCachedVault, UnitL1: true, ObjectBuf: true}},
		// UseStreams is a Mondrian toggle; NMP ignores it.
		{"nmp+streams", func() Config { c := nmpConfig(false); c.UseStreams = true; return c }(),
			SystemSpec{Path: PathCachedVault, UnitL1: true}},
		{"mondrian", mondrianConfig(), SystemSpec{
			Path: PathStream, ObjectBuf: true, StreamBufs: true,
		}},
		{"mondrian-nostream", func() Config { c := mondrianConfig(); c.UseStreams = false; return c }(),
			SystemSpec{Path: PathStream, ObjectBuf: true}},
	}
	for _, tc := range cases {
		got, err := tc.cfg.resolveSpec()
		if err != nil {
			t.Errorf("%s: resolveSpec error %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: resolveSpec = %+v, want %+v", tc.name, got, tc.want)
		}
		if e := mustEngine(t, tc.cfg); e.Spec() != got {
			t.Errorf("%s: engine.Spec() = %+v, want resolved %+v", tc.name, e.Spec(), got)
		}
	}
}

// TestSpecValidationErrors covers every rejection path of the spec
// layer: unregistered memory paths, unknown architectures, and
// compositions the registered paths refuse.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec SystemSpec
		want string
	}{
		{"unregistered path", SystemSpec{Path: PathKind(99)}, "no registered memory path"},
		{"streams on host cores", SystemSpec{Path: PathCPU, HostCores: true, TLB: true, UnitL1: true, SharedLLC: true, StreamBufs: true}, "vault-resident"},
		{"cpu path without host cores", SystemSpec{Path: PathCPU, UnitL1: true, SharedLLC: true, TLB: true}, "cpu path needs host cores"},
		{"cached-vault path without L1", SystemSpec{Path: PathCachedVault}, "needs vault-resident units with an L1"},
		{"stream path with L1", SystemSpec{Path: PathStream, UnitL1: true}, "cacheless"},
	}
	for _, tc := range cases {
		if err := tc.spec.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	cfg := nmpConfig(false)
	cfg.Arch = Arch(7)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Errorf("unknown arch: New error = %v", err)
	}
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
// stream-buffer count and checks the assembled units match the resolved
// composition: cacheless, with an object buffer and four stream buffers.
func TestCustomSpecAssembly(t *testing.T) {
	cfg := mondrianConfig()
	cfg.StreamBuffers = 4
	e := mustEngine(t, cfg)
	want := SystemSpec{Path: PathStream, ObjectBuf: true, StreamBufs: true}
	if e.Spec() != want {
		t.Fatalf("engine.Spec() = %+v, want %+v", e.Spec(), want)
	}
	for _, u := range e.Units() {
		if u.L1 != nil || u.Streams == nil || u.ObjBuf == nil || u.Vault == nil {
			t.Fatalf("unit %d not assembled per spec", u.ID)
		}
		if u.Streams.Buffers() != 4 {
			t.Fatalf("unit %d has %d stream buffers, want 4", u.ID, u.Streams.Buffers())
		}
	}
}
