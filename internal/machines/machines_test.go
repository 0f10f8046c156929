package machines

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/iloc"
	"repro/internal/target"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"standard", "huge", "x86-64", "aarch64", "embedded-8"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q (registration order is the API order)", i, got[i], name)
		}
	}
	all := All()
	if len(all) != len(got) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(got))
	}
	for i, e := range all {
		if e.Name != got[i] || e.Machine == nil || e.Description == "" {
			t.Fatalf("All()[%d] = %+v: incomplete entry", i, e)
		}
	}
}

func TestLookupClonesAndValidates(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Lookup(%q) returned an invalid machine: %v", name, err)
		}
		// Lookup hands out clones: mutating one must not corrupt the zoo.
		m.Regs[0] = 2
		again, _ := Lookup(name)
		if again.Regs[0] == 2 {
			t.Fatalf("Lookup(%q) shares state between calls", name)
		}
	}
}

func TestLookupRegsSweep(t *testing.T) {
	m, err := Lookup("regs=24")
	if err != nil {
		t.Fatal(err)
	}
	if m.Regs[0] != 24 || m.K(iloc.Class(0)) != 23 {
		t.Fatalf("regs=24 resolved to %+v", m)
	}
	want := target.WithRegs(24)
	if ShapeKey(m) != ShapeKey(want) {
		t.Fatalf("regs=24 shape %s, want WithRegs shape %s", ShapeKey(m), ShapeKey(want))
	}

	// Degenerate sweep points fail with the validator's story, not a
	// misallocation downstream.
	// A bank above target.MaxRegs is rejected before anything sizes
	// per-color state by it.
	for _, bad := range []string{"regs=1", "regs=0", "regs=-3", "regs=x", "regs=1025", "regs=1073741824"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", bad)
		}
	}
	if _, err := Lookup("regs=1024"); err != nil {
		t.Errorf("Lookup(regs=1024) = %v, want the largest bank accepted", err)
	}
}

func TestLookupUnknownListsRegistry(t *testing.T) {
	_, err := Lookup("vax")
	var unknown *UnknownMachineError
	if !errors.As(err, &unknown) {
		t.Fatalf("Lookup(vax) err = %v, want *UnknownMachineError", err)
	}
	if unknown.Name != "vax" {
		t.Fatalf("unknown.Name = %q", unknown.Name)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered machine %q", err, name)
		}
	}
}

func TestRegisterRejectsCollisions(t *testing.T) {
	mustPanic := func(why string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register accepted %s", why)
			}
		}()
		f()
	}
	mustPanic("a duplicate name", func() {
		Register("again", target.Standard())
	})
	mustPanic("a duplicate shape under a new name", func() {
		m := target.Standard()
		m.Name = "standard-prime"
		Register("same shape as standard", m)
	})
	mustPanic("a reserved spelling", func() {
		m := target.WithRegs(20)
		m.Name = "regs=20"
		Register("parameterized spelling", m)
	})
	mustPanic("an invalid machine", func() {
		m := target.WithRegs(2)
		m.Name = "too-small"
		Register("fails Validate", m)
	})
	mustPanic("a nil machine", func() {
		Register("nil", nil)
	})
}

func TestStarvedVariantsValidate(t *testing.T) {
	for _, e := range All() {
		s := Starved(e.Machine)
		if err := s.Validate(); err != nil {
			t.Errorf("Starved(%s) = %+v does not validate: %v", e.Name, s, err)
		}
		if s.Name == e.Name {
			t.Errorf("Starved(%s) kept the original name", e.Name)
		}
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			if s.K(c) > 3 {
				t.Errorf("Starved(%s) class %s has %d colors, want <= 3", e.Name, c, s.K(c))
			}
		}
	}
}
