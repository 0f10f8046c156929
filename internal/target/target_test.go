package target

import (
	"strings"
	"testing"

	"repro/internal/iloc"
)

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []struct {
		name string
		m    *Machine
	}{
		{"zero regs", &Machine{Name: "z", Regs: [iloc.NumClasses]int{0, 0}, MemCycles: 2, OtherCycles: 1}},
		{"one reg (k=0)", &Machine{Name: "o", Regs: [iloc.NumClasses]int{1, 1}, MemCycles: 2, OtherCycles: 1}},
		{"negative regs", &Machine{Name: "n", Regs: [iloc.NumClasses]int{-4, -4}, MemCycles: 2, OtherCycles: 1}},
		{"two regs (k=1, spilled binops unusable)", WithRegs(2)},
		{"caller-save exceeds k", &Machine{Name: "cs", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: 4, MemCycles: 2, OtherCycles: 1}},
		{"negative caller-save", &Machine{Name: "ncs", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: -1, MemCycles: 2, OtherCycles: 1}},
		{"zero mem cycles", &Machine{Name: "mc", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: 1, OtherCycles: 1}},
		{"zero other cycles", &Machine{Name: "oc", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: 1, MemCycles: 2}},
		{"one class too small", &Machine{Name: "half", Regs: [iloc.NumClasses]int{16, 1}, CallerSave: 1, MemCycles: 2, OtherCycles: 1}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted an unusable machine", tc.name)
		}
	}
}

// TestValidateErrorsAreDescriptive pins the validator's error stories:
// a rejected machine must say which class is short, or that the
// partition breaks — not just "invalid" — because the serving layer
// forwards these messages verbatim to clients asking for regs=N sweep
// points.
func TestValidateErrorsAreDescriptive(t *testing.T) {
	cases := []struct {
		m    *Machine
		want string
	}{
		{&Machine{Name: "k0", Regs: [iloc.NumClasses]int{1, 1}, MemCycles: 2, OtherCycles: 1}, "no allocatable registers"},
		{&Machine{Name: "k1", Regs: [iloc.NumClasses]int{2, 2}, MemCycles: 2, OtherCycles: 1}, "single color"},
		{&Machine{Name: "part", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: 5, MemCycles: 2, OtherCycles: 1}, "callee-save partition"},
		{&Machine{Name: "ncs", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: -2, MemCycles: 2, OtherCycles: 1}, "negative caller-save"},
		{&Machine{Name: "cost", Regs: [iloc.NumClasses]int{4, 4}, CallerSave: 1}, "cycle costs"},
		{&Machine{Name: "big", Regs: [iloc.NumClasses]int{16, MaxRegs + 1}, CallerSave: 1, MemCycles: 2, OtherCycles: 1}, "exceeds the bound"},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.m.Name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.m.Name, err, tc.want)
		}
	}
}

// TestWithRegsDegenerate: degenerate register counts yield well-formed
// data that fails Validate — never a negative caller-save count that
// would corrupt partition arithmetic downstream.
func TestWithRegsDegenerate(t *testing.T) {
	for _, n := range []int{-4, -1, 0, 1, 2} {
		m := WithRegs(n)
		if m.CallerSave < 0 {
			t.Errorf("WithRegs(%d).CallerSave = %d, want >= 0", n, m.CallerSave)
		}
		if err := m.Validate(); err == nil {
			t.Errorf("WithRegs(%d) validated; k = %d", n, m.K(iloc.ClassInt))
		}
	}
}

func TestWithRegsRoundTripsThroughK(t *testing.T) {
	for _, n := range []int{3, 4, 6, 8, 16, 32, 128} {
		m := WithRegs(n)
		if err := m.Validate(); err != nil {
			t.Fatalf("WithRegs(%d): %v", n, err)
		}
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			if m.Regs[c] != n {
				t.Errorf("WithRegs(%d).Regs[%d] = %d", n, c, m.Regs[c])
			}
			// Register 0 of each bank is reserved (the int bank's is the
			// frame pointer), so n registers yield n-1 colors.
			if got := m.K(c); got != n-1 {
				t.Errorf("WithRegs(%d).K(%d) = %d, want %d", n, c, got, n-1)
			}
			if m.CallerSave+m.CalleeSave(c) != m.K(c) {
				t.Errorf("WithRegs(%d): caller %d + callee %d != k %d",
					n, m.CallerSave, m.CalleeSave(c), m.K(c))
			}
		}
		if m.CallerSave < 1 {
			t.Errorf("WithRegs(%d): no caller-save colors; call tests need at least one", n)
		}
	}
}

func TestPresetsConsistent(t *testing.T) {
	std, huge := Standard(), Huge()
	for name, m := range map[string]*Machine{"standard": std, "huge": huge} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("%s preset named %q", name, m.Name)
		}
		if m.String() != name {
			t.Errorf("%s String() = %q", name, m.String())
		}
		// The paper's cost model: memory operations cost two cycles,
		// everything else one.
		if m.MemCycles != 2 || m.OtherCycles != 1 {
			t.Errorf("%s cycles = %d/%d, want 2/1", name, m.MemCycles, m.OtherCycles)
		}
		if got := m.Cycles(iloc.OpLoadai); got != m.MemCycles {
			t.Errorf("%s Cycles(loadai) = %d, want %d", name, got, m.MemCycles)
		}
		if got := m.Cycles(iloc.OpAdd); got != m.OtherCycles {
			t.Errorf("%s Cycles(add) = %d, want %d", name, got, m.OtherCycles)
		}
	}
	if std.Regs[iloc.ClassInt] != 16 || std.Regs[iloc.ClassFlt] != 16 {
		t.Errorf("standard machine regs = %v, want 16 per class", std.Regs)
	}
	if std.K(iloc.ClassInt) != 15 {
		t.Errorf("standard K = %d, want 15", std.K(iloc.ClassInt))
	}
	if huge.Regs[iloc.ClassInt] != 128 {
		t.Errorf("huge machine regs = %v, want 128 per class", huge.Regs)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := Standard()
	c := m.Clone()
	c.Name = "mutant"
	c.Regs[iloc.ClassInt] = 3
	c.CallerSave = 1
	if m.Name != "standard" || m.Regs[iloc.ClassInt] != 16 {
		t.Errorf("mutating a clone changed the original: %+v", m)
	}
}
