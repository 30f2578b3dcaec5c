package simulate

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestValidateAcceptsShippedParams pins the contract that the stock
// configurations are valid — Validate must never reject what DefaultParams
// and TestParams produce.
func TestValidateAcceptsShippedParams(t *testing.T) {
	for _, p := range []Params{DefaultParams(), TestParams()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("shipped params rejected: %v", err)
		}
	}
}

// TestValidateFieldTable drives every field through accept and reject
// cases. Each reject case must come back as a *ParamError naming the
// mutated field.
func TestValidateFieldTable(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(*Params)
		wantField string // "" = accept
	}{
		{"cubes 1 ok", func(p *Params) { p.Cubes = 1 }, ""},
		{"cubes 0", func(p *Params) { p.Cubes = 0 }, "Cubes"},
		{"cubes negative", func(p *Params) { p.Cubes = -1 }, "Cubes"},
		{"cubes absurd", func(p *Params) { p.Cubes = 1 << 20 }, "Cubes"},
		{"vaults 9 ok", func(p *Params) { p.VaultsPer = 9 }, ""},
		{"vaults 0", func(p *Params) { p.VaultsPer = 0 }, "VaultsPer"},
		{"vaults not square", func(p *Params) { p.VaultsPer = 6 }, "VaultsPer"},
		{"vaults absurd", func(p *Params) { p.VaultsPer = 1 << 20 }, "VaultsPer"},
		{"too many total vaults", func(p *Params) { p.Cubes = 1024; p.VaultsPer = 1024 }, "VaultsPer"},
		{"cpu cores 1 ok", func(p *Params) { p.CPUCores = 1 }, ""},
		{"cpu cores 0", func(p *Params) { p.CPUCores = 0 }, "CPUCores"},
		{"vault cap 0", func(p *Params) { p.VaultCapBytes = 0 }, "VaultCapBytes"},
		{"vault cap negative", func(p *Params) { p.VaultCapBytes = -4096 }, "VaultCapBytes"},
		{"vault cap absurd", func(p *Params) { p.VaultCapBytes = 1 << 50 }, "VaultCapBytes"},
		{"s-tuples 1 ok", func(p *Params) { p.STuples = 1 }, ""},
		{"s-tuples 0", func(p *Params) { p.STuples = 0 }, "STuples"},
		{"s-tuples negative", func(p *Params) { p.STuples = -5 }, "STuples"},
		{"s-tuples beyond memory", func(p *Params) { p.STuples = math.MaxInt64 / 32 }, "STuples"},
		{"r-tuples 0", func(p *Params) { p.RTuples = 0 }, "RTuples"},
		{"r-tuples negative", func(p *Params) { p.RTuples = -1 }, "RTuples"},
		{"r-tuples beyond memory", func(p *Params) { p.RTuples = math.MaxInt64 / 32 }, "RTuples"},
		{"group size 1 ok", func(p *Params) { p.GroupSize = 1 }, ""},
		{"group size 0", func(p *Params) { p.GroupSize = 0 }, "GroupSize"},
		{"group size negative", func(p *Params) { p.GroupSize = -4 }, "GroupSize"},
		{"keyspace pow2 ok", func(p *Params) { p.KeySpace = 1 << 10 }, ""},
		{"keyspace 1 ok", func(p *Params) { p.KeySpace = 1 }, ""},
		{"keyspace 0", func(p *Params) { p.KeySpace = 0 }, "KeySpace"},
		{"keyspace non-pow2", func(p *Params) { p.KeySpace = 3 << 10 }, "KeySpace"},
		{"cpu buckets auto ok", func(p *Params) { p.CPUBuckets = 0 }, ""},
		{"cpu buckets pow2 ok", func(p *Params) { p.CPUBuckets = 1 << 8 }, ""},
		{"cpu buckets non-pow2", func(p *Params) { p.CPUBuckets = 1000 }, "CPUBuckets"},
		{"cpu buckets negative", func(p *Params) { p.CPUBuckets = -16 }, "CPUBuckets"},
		{"cpu buckets absurd", func(p *Params) { p.CPUBuckets = 1 << 22 }, "CPUBuckets"},
		{"parallelism 0 ok", func(p *Params) { p.Parallelism = 0 }, ""},
		{"parallelism negative", func(p *Params) { p.Parallelism = -3 }, "Parallelism"},
		{"barrier 0 ok", func(p *Params) { p.BarrierNs = 0 }, ""},
		{"barrier negative", func(p *Params) { p.BarrierNs = -1 }, "BarrierNs"},
		{"barrier NaN", func(p *Params) { p.BarrierNs = math.NaN() }, "BarrierNs"},
		{"barrier Inf", func(p *Params) { p.BarrierNs = math.Inf(1) }, "BarrierNs"},
		{"energy NaN", func(p *Params) { p.Energy.ActivationJ = math.NaN() }, "Energy.ActivationJ"},
		{"energy negative", func(p *Params) { p.Energy.CPUCoreW = -2 }, "Energy.CPUCoreW"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := TestParams()
			tc.mutate(&p)
			err := p.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("unexpected rejection: %v", err)
				}
				return
			}
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *ParamError", err, err)
			}
			if pe.Field != tc.wantField {
				t.Fatalf("rejected field %q, want %q (err: %v)", pe.Field, tc.wantField, pe)
			}
			if strings.ContainsRune(pe.Error(), '\n') {
				t.Fatalf("ParamError is not one line: %q", pe.Error())
			}
		})
	}
}

// TestRunRejectsCrashReproducers pins the four formerly-crashing inputs of
// the issue: each must come back as a typed one-line error from Run, with
// no panic escaping.
func TestRunRejectsCrashReproducers(t *testing.T) {
	cases := []struct {
		name      string
		op        Operator
		mutate    func(*Params)
		wantField string
	}{
		{"negative s-tuples", OpScan, func(p *Params) { p.STuples = -5 }, "STuples"},
		{"join r-tuples 0", OpJoin, func(p *Params) { p.RTuples = 0 }, "RTuples"},
		{"group size 0", OpGroupBy, func(p *Params) { p.GroupSize = 0 }, "GroupSize"},
		{"vault cap 0", OpScan, func(p *Params) { p.VaultCapBytes = 0 }, "VaultCapBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := TestParams()
			tc.mutate(&p)
			res, err := Run(Mondrian, tc.op, p)
			var pe *ParamError
			if !errors.As(err, &pe) || pe.Field != tc.wantField {
				t.Fatalf("Run = (%v, %v), want *ParamError on %s", res, err, tc.wantField)
			}
		})
	}
}

// TestRunRejectsBadSystemOperator covers the selector range checks.
func TestRunRejectsBadSystemOperator(t *testing.T) {
	p := TestParams()
	// Indices at or above the current registry size are invalid; use the
	// live boundary since tests may have registered systems of their own.
	for _, s := range []System{-1, System(registeredSystems()), 1 << 20} {
		if _, err := Run(s, OpScan, p); err == nil {
			t.Fatalf("system %d accepted", s)
		}
	}
	for _, op := range []Operator{-1, numOperators, 99} {
		if _, err := Run(Mondrian, op, p); err == nil {
			t.Fatalf("operator %d accepted", op)
		}
	}
}

// TestKeySpacePow2Contract is the regression for the documented "must be a
// power of two" requirement: a pow2 KeySpace runs verified through the
// range-partitioning sort (the path whose shift/mask math assumes it),
// while a non-pow2 one is rejected instead of silently accepted.
func TestKeySpacePow2Contract(t *testing.T) {
	p := TestParams()
	p.STuples = 1 << 13
	p.RTuples = 1 << 12
	p.KeySpace = 1 << 16

	res, err := Run(Mondrian, OpSort, p)
	if err != nil {
		t.Fatalf("pow2 KeySpace rejected: %v", err)
	}
	if !res.Verified {
		t.Fatal("pow2 KeySpace run did not verify")
	}

	p.KeySpace = 1<<16 - 1 // non-pow2, previously silently accepted
	var pe *ParamError
	if _, err := Run(Mondrian, OpSort, p); !errors.As(err, &pe) || pe.Field != "KeySpace" {
		t.Fatalf("non-pow2 KeySpace: err = %v, want *ParamError on KeySpace", err)
	}
}

// TestProtectConvertsPanics covers the recovery boundary directly.
func TestProtectConvertsPanics(t *testing.T) {
	err := Protect("test/op", func() error { panic("engine invariant broke") })
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Op != "test/op" || ie.Value != "engine invariant broke" {
		t.Fatalf("InternalError = %+v", ie)
	}
	if strings.ContainsRune(ie.Error(), '\n') {
		t.Fatalf("InternalError.Error is not one line: %q", ie.Error())
	}
	if !strings.Contains(ie.StackTrace(), "validate_test") {
		t.Fatalf("stack not captured:\n%s", ie.StackTrace())
	}
	if err := Protect("ok", func() error { return nil }); err != nil {
		t.Fatalf("Protect without panic returned %v", err)
	}
}

// TestProtectNamesOnlyOnPanic: the harness's recovery boundary builds the
// operation's name only when it has a panic to report, and the
// *InternalError carries that name.
func TestProtectNamesOnlyOnPanic(t *testing.T) {
	calls := 0
	op := func() string { calls++; return "Mondrian/Join" }
	if err := protect(op, func() error { return nil }); err != nil || calls != 0 {
		t.Fatalf("clean run: err = %v, name built %d times, want nil and 0", err, calls)
	}
	want := errors.New("operator failed")
	if err := protect(op, func() error { return want }); err != want || calls != 0 {
		t.Fatalf("failing run: err = %v, name built %d times, want %v and 0", err, calls, want)
	}
	err := protect(op, func() error { panic("engine invariant broke") })
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Op != "Mondrian/Join" || calls != 1 {
		t.Fatalf("panicking run: err = %v, name built %d times, want *InternalError for Mondrian/Join and 1", err, calls)
	}
}
