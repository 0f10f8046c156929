package verify_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
	"repro/internal/verify"
)

// selfContained computes from constants and static data only, so the
// differential check runs on it.
const selfContained = `
routine k()
data out rw 1
entry:
    ldi r1, 5
    ldi r2, 7
    add r3, r1, r2
    lda r4, out
    store r3, r4
    retr r3
`

// loadHeavy defines more simultaneously-live non-rematerializable
// values (loads) than a 2-color machine holds, forcing store/reload
// spill code under the chaitin strategy.
const loadHeavy = `
routine k()
data a rw 8 = 1 2 3 4 5 6 7 8
entry:
    lda r1, a
    load r2, r1
    loadai r3, r1, 8
    loadai r4, r1, 16
    loadai r5, r1, 24
    loadai r6, r1, 32
    add r7, r2, r3
    add r7, r7, r4
    add r7, r7, r5
    add r7, r7, r6
    add r7, r7, r2
    retr r7
`

// acrossCall keeps a value live across a call, which the calling
// convention forces into a callee-save color.
const acrossCall = `
routine k()
entry:
    ldi r1, 7
    call g
    getret r2
    add r3, r1, r2
    retr r3
`

func allocate(t *testing.T, src string, opts core.Options) (input, allocated *iloc.Routine) {
	t.Helper()
	input = iloc.MustParse(src)
	res, err := core.Allocate(context.Background(), input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("test allocation degraded: %s", res.DegradeReason)
	}
	return input, res.Routine
}

// expectRule checks that the mutated allocation is rejected with a
// violation of the given rule.
func expectRule(t *testing.T, input, mutated *iloc.Routine, m *target.Machine, rule string) {
	t.Helper()
	err := verify.Check(input, mutated, m, verify.Options{Differential: true})
	if err == nil {
		t.Fatalf("mutation accepted; want a %s violation\n%s", rule, iloc.Print(mutated))
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("not a *verify.Error: %v", err)
	}
	for _, v := range ve.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %s violation in: %v", rule, err)
}

// findOp locates the first instruction with the op (and, when imm >= 0,
// that immediate) in the routine.
func findOp(t *testing.T, rt *iloc.Routine, op iloc.Op, imm int64) *iloc.Instr {
	t.Helper()
	var found *iloc.Instr
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if found == nil && in.Op == op && (imm < 0 || in.Imm == imm) {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("no %v instruction in\n%s", op, iloc.Print(rt))
	}
	return found
}

func TestAcceptsGoodAllocations(t *testing.T) {
	for _, src := range []string{selfContained, loadHeavy} {
		for _, m := range []*target.Machine{target.Standard(), target.WithRegs(3)} {
			for _, mode := range []string{"chaitin", "remat"} {
				input, alloc := allocate(t, src, core.Options{Machine: m, Strategy: mode})
				if err := verify.Check(input, alloc, m, verify.Options{Differential: true}); err != nil {
					t.Fatalf("%s %v: %v", m.Name, mode, err)
				}
			}
		}
	}
}

func TestRejectsUnallocatedFlag(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	alloc.Allocated = false
	expectRule(t, input, alloc, m, "structure")
}

func TestRejectsOutOfBankRegister(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	findOp(t, alloc, iloc.OpLdi, 5).Dst.N = int32(m.Regs[iloc.ClassInt]) // first color past the bank
	expectRule(t, input, alloc, m, "bounds")
}

// Clobbering a live register: redirecting the second constant's
// definition onto the color holding the first leaves the original
// target undefined on the path to its use.
func TestRejectsClobberedLiveRegister(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	five := findOp(t, alloc, iloc.OpLdi, 5)
	seven := findOp(t, alloc, iloc.OpLdi, 7)
	if five.Dst == seven.Dst {
		t.Fatal("test premise broken: both constants share a color")
	}
	seven.Dst = five.Dst
	expectRule(t, input, alloc, m, "use-before-def")
}

// A silent change of a computed value — one no dataflow rule can see —
// falls to the interpreter differential.
func TestDifferentialCatchesWrongConstant(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	findOp(t, alloc, iloc.OpLdi, 7).Imm = 8
	expectRule(t, input, alloc, m, "differential")
}

// Dropping a spill store leaves its reload reading a slot nothing
// wrote: the restore-without-save half of the classic spill bug.
func TestRejectsDroppedSpillStore(t *testing.T) {
	m := target.WithRegs(3)
	input, alloc := allocate(t, loadHeavy, core.Options{Machine: m, Strategy: "chaitin"})
	dropped := false
	for _, b := range alloc.Blocks {
		for i, in := range b.Instrs {
			if !dropped && in.IsSpill && in.Op == iloc.OpStoreai && in.Src[1].IsFP() {
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				dropped = true
				break
			}
		}
	}
	if !dropped {
		t.Fatalf("no spill store to drop in\n%s", iloc.Print(alloc))
	}
	expectRule(t, input, alloc, m, "spill-slots")
}

// A spill access outside the declared frame would alias the routine's
// locals or fall off the frame entirely.
func TestRejectsOutOfFrameSlot(t *testing.T) {
	m := target.WithRegs(3)
	input, alloc := allocate(t, loadHeavy, core.Options{Machine: m, Strategy: "chaitin"})
	findOp(t, alloc, iloc.OpStoreai, -1).Imm = int64(alloc.FrameWords)*8 + 64
	expectRule(t, input, alloc, m, "spill-slots")
}

// Moving a callee-save value into the caller-save band leaves it live
// across the call, where the callee may clobber it.
func TestRejectsCallerSaveViolation(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, acrossCall, core.Options{Machine: m, Strategy: "remat"})
	cs := findOp(t, alloc, iloc.OpLdi, 7).Dst.N
	if int(cs) <= m.CallerSave {
		t.Fatalf("test premise broken: value across call in caller-save color %d", cs)
	}
	// Retarget it to a caller-save color nothing else touches, so the
	// value genuinely stays live across the call in the mutant.
	used := map[int32]bool{}
	alloc.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Dst.Valid() && in.Dst.Class == iloc.ClassInt {
			used[in.Dst.N] = true
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			if in.Src[i].Class == iloc.ClassInt {
				used[in.Src[i].N] = true
			}
		}
	})
	victim := int32(0)
	for c := int32(1); int(c) <= m.CallerSave; c++ {
		if !used[c] {
			victim = c
			break
		}
	}
	if victim == 0 {
		t.Fatal("no free caller-save color to move the value into")
	}
	alloc.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Dst.Valid() && in.Dst.Class == iloc.ClassInt && in.Dst.N == cs {
			in.Dst.N = victim
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			if in.Src[i].Class == iloc.ClassInt && in.Src[i].N == cs {
				in.Src[i].N = victim
			}
		}
	})
	expectRule(t, input, alloc, m, "caller-save")
}

// A spill-phase instruction that neither touches a slot nor recomputes
// a never-killed value is not a legitimate rematerialization.
func TestRejectsRematTamper(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	findOp(t, alloc, iloc.OpAdd, -1).IsSpill = true
	expectRule(t, input, alloc, m, "remat")
}

// A remat-candidate op whose register operand is not the frame pointer
// is not always available at its reload points.
func TestRejectsRematWithUnavailableOperand(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	// Insert "addi cX, cX, 0" tagged as spill code right after cX's
	// definition: structurally sound, but its operand is a real
	// register, which a rematerialized value may not read.
	def := findOp(t, alloc, iloc.OpLdi, 5)
	tampered := &iloc.Instr{Op: iloc.OpAddi, Dst: def.Dst, Src: [2]iloc.Reg{def.Dst, iloc.NoReg}, IsSpill: true}
	for _, b := range alloc.Blocks {
		for i, in := range b.Instrs {
			if in == def {
				rest := append([]*iloc.Instr{tampered}, b.Instrs[i+1:]...)
				b.Instrs = append(b.Instrs[:i+1], rest...)
				expectRule(t, input, alloc, m, "remat")
				return
			}
		}
	}
	t.Fatal("definition not found")
}

// The verifier reports every violation, not just the first.
func TestReportsAllViolations(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Strategy: "remat"})
	alloc.Allocated = false
	// Widen the virtual space so the out-of-bank colors still pass the
	// structural register check and reach the bounds rule.
	alloc.NextReg[iloc.ClassInt] = m.Regs[iloc.ClassInt] + 8
	findOp(t, alloc, iloc.OpLdi, 5).Dst.N = int32(m.Regs[iloc.ClassInt])
	findOp(t, alloc, iloc.OpLdi, 7).Dst.N = int32(m.Regs[iloc.ClassInt] + 3)
	err := verify.Check(input, alloc, m, verify.Options{})
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("not a *verify.Error: %v", err)
	}
	if len(ve.Violations) < 3 {
		t.Fatalf("want >= 3 violations, got: %v", err)
	}
	if !strings.Contains(err.Error(), "violation(s)") {
		t.Fatalf("unexpected message: %v", err)
	}
}

// The differential check runs the input, whose register files grew with
// its largest register number: checking a 3-instruction routine naming
// r2000000 allocated 16 MB. It now runs a densely named clone.
func TestCheckSparseInputAllocatesLittle(t *testing.T) {
	in := iloc.MustParse(`
routine k()
entry:
    ldi r2000000, 5
    addi r2000001, r2000000, 2
    retr r2000001
`)
	m := target.Standard()
	res, err := core.Allocate(context.Background(), in, core.Options{Machine: m, Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = verify.Check(in, res.Routine, m, verify.Options{Differential: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("verify.Check allocated %d KiB", alloc>>10)
	}
}

// dataAddress returns the address of a data item it stores through,
// after loads enough to spill on four registers. Spill slots make the
// allocation's frame larger than the input's; data addresses must not
// move with it, or the differential rejects a correct allocation.
const dataAddress = `
routine k()
data a rw 4 = 2 4 6 8
entry:
    lda r9, a
    load r1, r9
    loadai r2, r9, 8
    loadai r3, r9, 16
    loadai r4, r9, 24
    add r5, r1, r2
    add r6, r3, r4
    add r7, r5, r6
    add r7, r7, r1
    add r7, r7, r2
    add r7, r7, r3
    add r7, r7, r4
    store r7, r9
    retr r9
`

func TestDifferentialAcceptsDataAddress(t *testing.T) {
	m := target.WithRegs(4)
	for _, spec := range []string{"remat", "spill-everywhere"} {
		input, alloc := allocate(t, dataAddress, core.Options{Machine: m, Strategy: spec, Verify: true, DisableDegradation: true})
		if alloc.FrameWords == 0 {
			t.Fatalf("%s: test premise broken: nothing spilled\n%s", spec, iloc.Print(alloc))
		}
		if err := verify.Check(input, alloc, m, verify.Options{Differential: true}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

// fpPointer keeps a value in its own frame word fp+8, through a
// register set from fp, while four registers spill.
const fpPointer = `
routine k()
data a rw 4 = 2 4 6 8
entry:
    addi r1, fp, 0
    lda r3, a
    load r4, r3
    loadai r5, r3, 8
    loadai r6, r3, 16
    loadai r7, r3, 24
    ldi r2, 7
    storeai r2, r1, 8
    add r9, r4, r5
    add r9, r9, r6
    add r9, r9, r7
    loadai r8, r1, 8
    add r9, r9, r8
    retr r9
`

// A spill slot moved below the input's LocalWords aliases a frame word
// the routine addresses itself, even inside the declared frame.
func TestRejectsSlotInOwnFrame(t *testing.T) {
	m := target.WithRegs(4)
	input, alloc := allocate(t, fpPointer, core.Options{Machine: m, Strategy: "chaitin"})
	if err := verify.Check(input, alloc, m, verify.Options{Differential: true}); err != nil {
		t.Fatal(err)
	}
	alloc.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.IsSpill && (in.Op == iloc.OpStoreai || in.Op == iloc.OpLoadai) {
			in.Imm -= 16 // the first slot, fp+16, moves to fp+0
		}
	})
	expectRule(t, input, alloc, m, "spill-slots")
	if err := verify.Check(input, alloc, m, verify.Options{}); !strings.Contains(err.Error(), "aliases the routine's own 2 frame words") {
		t.Fatalf("no aliasing violation in: %v", err)
	}
}

// The input's frame and data fill the interpreter's memory bound to the
// word, so spill slots take the allocation past it. The interpreter
// refuses that run, which says nothing about the allocation.
func TestDifferentialIgnoresMemoryBound(t *testing.T) {
	far := strings.ReplaceAll(fpPointer, "r1, 8", fmt.Sprintf("r1, %d", (interp.MaxWords-5)*8))
	m := target.WithRegs(4)
	input, alloc := allocate(t, far, core.Options{Machine: m, Strategy: "chaitin"})
	if input.LocalWords() != interp.MaxWords-4 || alloc.FrameWords <= input.LocalWords() {
		t.Fatalf("test premise broken: %d local words, frame of %d", input.LocalWords(), alloc.FrameWords)
	}
	if err := verify.Check(input, alloc, m, verify.Options{Differential: true}); err != nil {
		t.Fatal(err)
	}
}
