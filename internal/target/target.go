// Package target describes the machine the allocator colors for: the
// sizes of the two ILOC register banks, the calling convention's
// caller-/callee-save partition, and the paper's two-tier cycle cost
// model (memory operations cost MemCycles, everything else OtherCycles).
//
// The paper evaluates its allocator on two machine shapes — a "test
// machine" with sixteen registers per class whose loads and stores cost
// two cycles, and a 128-register "huge" machine that never spills and so
// serves as the zero-spill baseline for Table 1. Standard and Huge
// return those; WithRegs(n) builds the intermediate points the
// register-sweep experiments walk through.
//
// Register 0 of each class is reserved (the integer bank's register 0 is
// the frame pointer), so a bank of Regs[c] registers exposes
// K(c) = Regs[c]-1 allocatable colors, numbered 1..K. A call clobbers
// the low CallerSave colors of each class; live ranges that cross a call
// must take one of the remaining CalleeSave(c) colors or spill.
package target

import (
	"fmt"

	"repro/internal/iloc"
)

// Machine describes one register machine: bank sizes, the calling
// convention's register partition, and the cycle cost model.
//
// Values are plain data and may be constructed directly; Validate
// reports whether a hand-built machine is one the allocator can color
// for. The presets returned by Standard, Huge and WithRegs always
// validate.
type Machine struct {
	// Name identifies the machine in stats output and test failures.
	Name string

	// Regs[class] is the size of the register bank, including the
	// reserved register 0. Allocatable colors are 1..Regs[class]-1.
	Regs [iloc.NumClasses]int

	// CallerSave is the number of low colors (1..CallerSave) of each
	// class that a call clobbers. Colors above CallerSave are preserved
	// across calls (callee-save).
	CallerSave int

	// MemCycles is the cost of a memory operation (load, store) and
	// OtherCycles the cost of everything else — the paper's model, in
	// which a reload costs MemCycles but rematerializing an ldi costs
	// only OtherCycles.
	MemCycles   int
	OtherCycles int
}

// K returns the number of allocatable colors of a class: the bank size
// minus the reserved register 0.
func (m *Machine) K(c iloc.Class) int { return m.Regs[c] - 1 }

// CalleeSave returns the number of colors of a class that survive a
// call.
func (m *Machine) CalleeSave(c iloc.Class) int { return m.K(c) - m.CallerSave }

// Cycles prices one operation under the machine's cost model.
func (m *Machine) Cycles(op iloc.Op) int {
	if op.IsMem() {
		return m.MemCycles
	}
	return m.OtherCycles
}

// String returns the machine's name.
func (m *Machine) String() string { return m.Name }

// Clone returns a copy of the machine, so callers can derive variants
// without mutating a shared preset.
func (m *Machine) Clone() *Machine {
	c := *m
	return &c
}

// MaxRegs bounds a register bank. The allocator sizes per-color state
// by the bank, so an unbounded bank would let a tiny request ("regs":
// 1<<30) allocate gigabytes; the largest shipped machine, Huge, has 128.
const MaxRegs = 1024

// Validate checks that the machine is one the allocator can actually
// color for. Spilled binary operations need two register operands alive
// at once, so each class must expose at least two colors; no bank may
// exceed MaxRegs; the caller-save count must leave the partition well
// formed (a negative callee-save remainder would let the allocator hand
// out colors that do not survive the calls they are live across).
func (m *Machine) Validate() error {
	if m.CallerSave < 0 {
		return fmt.Errorf("target: %s: negative caller-save count %d", m.Name, m.CallerSave)
	}
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		if m.Regs[c] > MaxRegs {
			return fmt.Errorf("target: %s: class %s bank of %d registers exceeds the bound of %d", m.Name, c, m.Regs[c], MaxRegs)
		}
		k := m.K(c)
		if k < 1 {
			return fmt.Errorf("target: %s: class %s has no allocatable registers (bank of %d leaves k = %d after the reserved register 0)", m.Name, c, m.Regs[c], k)
		}
		if k < 2 {
			return fmt.Errorf("target: %s: class %s has a single color; spilled code needs two registers at once", m.Name, c)
		}
		if m.CalleeSave(c) < 0 {
			return fmt.Errorf("target: %s: caller-save count %d exceeds the %d colors of class %s (callee-save partition would be %d)", m.Name, m.CallerSave, k, c, m.CalleeSave(c))
		}
	}
	if m.MemCycles <= 0 || m.OtherCycles <= 0 {
		return fmt.Errorf("target: %s: non-positive cycle costs (mem %d, other %d)", m.Name, m.MemCycles, m.OtherCycles)
	}
	return nil
}

// WithRegs returns a machine with n registers per class (n-1 colors; the
// register-sweep experiments walk n from tight to roomy). Half of each
// bank's colors are caller-save, mirroring a conventional convention's
// even scratch/preserved split.
//
// The result of a degenerate n is still well formed data — a bank too
// small to color (n < 3) fails Validate with a descriptive error rather
// than reaching the allocator, and a negative n never yields a negative
// caller-save count that would corrupt the partition arithmetic
// downstream.
func WithRegs(n int) *Machine {
	cs := (n - 1) / 2
	if cs < 0 {
		cs = 0
	}
	m := &Machine{
		Name:        fmt.Sprintf("regs-%d", n),
		CallerSave:  cs,
		MemCycles:   2,
		OtherCycles: 1,
	}
	for c := range m.Regs {
		m.Regs[c] = n
	}
	return m
}

// Standard returns the paper's test machine: sixteen registers per
// class, two-cycle memory operations.
func Standard() *Machine {
	m := WithRegs(16)
	m.Name = "standard"
	return m
}

// Huge returns the paper's 128-register baseline machine, on which no
// suite routine spills; Table 1 measures spill cost against it.
func Huge() *Machine {
	m := WithRegs(128)
	m.Name = "huge"
	return m
}
