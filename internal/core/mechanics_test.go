package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/remat"
	"repro/internal/target"
)

// countOps tallies static occurrences of ops in a routine.
func countOps(rt *iloc.Routine, ops ...iloc.Op) int {
	n := 0
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		for _, op := range ops {
			if in.Op == op {
				n++
			}
		}
	})
	return n
}

func countSplits(rt *iloc.Routine) int {
	n := 0
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.IsSplit {
			n++
		}
	})
	return n
}

// A spilled never-killed ldi range must be rematerialized: ldi before
// each use, no stores, and the original defs deleted.
func TestSpillRematerializesLdi(t *testing.T) {
	// Four constants live across a use cluster on a 3-register machine
	// (2 colors): some must spill.
	src := `
routine f()
entry:
    ldi r1, 11
    ldi r2, 22
    ldi r3, 33
    ldi r4, 44
    add r5, r1, r2
    add r5, r5, r3
    add r5, r5, r4
    add r5, r5, r1
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledRanges == 0 {
		t.Fatal("expected spills")
	}
	if res.RematSpills != res.SpilledRanges {
		t.Fatalf("all spills should rematerialize: %d of %d", res.RematSpills, res.SpilledRanges)
	}
	if n := countOps(res.Routine, iloc.OpStoreai, iloc.OpStore); n != 0 {
		t.Fatalf("rematerialized spill must not store; found %d stores\n%s", n, iloc.Print(res.Routine))
	}
	out, err := interp.New(res.Routine, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.RetInt != 11+22+33+44+11 {
		t.Fatalf("result = %d", got.RetInt)
	}
}

// A spilled ⊥ range gets Chaitin's store/reload treatment with
// fp-relative slots that do not collide with the routine's own frame use.
func TestSpillBottomUsesDisjointSlots(t *testing.T) {
	src := `
routine f()
entry:
    ldi r9, 77
    storeai r9, fp, 0      ; the routine already uses fp+0
    loadai r1, fp, 0
    addi r2, r1, 1         ; ⊥ values (operands not fp)
    addi r3, r2, 2
    addi r4, r3, 3
    addi r5, r4, 4
    add r6, r2, r3
    add r6, r6, r4
    add r6, r6, r5
    add r6, r6, r1
    retr r6
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	// Spill slots must start above fp+0.
	res.Routine.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.IsSpill && (in.Op == iloc.OpStoreai || in.Op == iloc.OpLoadai) && in.Imm == 0 {
			t.Fatalf("spill slot collides with routine frame use: %q", res.Routine.InstrString(in))
		}
	})
	got, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(77+1) + (77 + 1 + 2) + (77 + 1 + 2 + 3) + (77 + 1 + 2 + 3 + 4) + 77
	if got.RetInt != want {
		t.Fatalf("result = %d, want %d", got.RetInt, want)
	}
}

func mustRun(t *testing.T, rt *iloc.Routine, args ...interp.Value) (*interp.Outcome, error) {
	t.Helper()
	e, err := interp.New(rt, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(args...)
}

// Chaitin's rule: a live range whose two definitions are the *same*
// never-killed instruction rematerializes even under chaitin; with
// different constants it must fall back to store/reload.
func TestChaitinWholeRangeRule(t *testing.T) {
	build := func(c2 int64) string {
		return `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 7
    jmp join
b:
    ldi r2, ` + string(rune('0'+c2)) + `
    jmp join
join:
    ldi r3, 1
    ldi r4, 2
    ldi r5, 3
    add r6, r3, r4
    add r6, r6, r5
    add r6, r6, r2
    add r6, r6, r2
    retr r6
`
	}
	// Same constant on both arms: r2's range is never-killed under
	// Chaitin's rule; no stores appear even when spilled.
	res, err := Allocate(context.Background(), iloc.MustParse(build(7)), Options{Machine: target.WithRegs(3), Strategy: "chaitin"})
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(res.Routine, iloc.OpStoreai); n != 0 {
		t.Fatalf("identical-def range should rematerialize under Chaitin: %d stores\n%s", n, iloc.Print(res.Routine))
	}
	out, err := mustRun(t, res.Routine, interp.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 1+2+3+7+7 {
		t.Fatalf("result = %d", out.RetInt)
	}

	// Different constants: the merged range is ⊥ for Chaitin. If it
	// spills, stores appear. (It has the most uses, so it may survive;
	// assert only that execution stays correct on both paths.)
	res2, err := Allocate(context.Background(), iloc.MustParse(build(9)), Options{Machine: target.WithRegs(3), Strategy: "chaitin"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, -1} {
		out, err := mustRun(t, res2.Routine, interp.Int(n))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1 + 2 + 3 + 7 + 7)
		if n <= 0 {
			want = 1 + 2 + 3 + 9 + 9
		}
		if out.RetInt != want {
			t.Fatalf("n=%d: result = %d, want %d", n, out.RetInt, want)
		}
	}
}

// A spilled getparam-tagged range rematerializes by re-issuing getparam
// (a frame load), not by store/reload.
func TestSpillRematerializesGetparam(t *testing.T) {
	src := `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 1
    ldi r3, 2
    ldi r4, 3
    add r5, r2, r3
    add r5, r5, r4
    add r5, r5, r1
    add r5, r5, r1
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(res.Routine, iloc.OpStoreai); n != 0 {
		t.Fatalf("no stores expected (everything is never-killed)\n%s", iloc.Print(res.Routine))
	}
	out, err := mustRun(t, res.Routine, interp.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 1+2+3+10+10 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// fp-relative address arithmetic (addi rX, fp, k) is never-killed and
// rematerializes.
func TestSpillRematerializesFPRelative(t *testing.T) {
	src := `
routine f()
entry:
    ldi r9, 5
    storeai r9, fp, 8
    addi r1, fp, 8        ; never-killed: constant offset from fp
    ldi r2, 1
    ldi r3, 2
    ldi r4, 3
    add r5, r2, r3
    add r5, r5, r4
    load r6, r1
    add r5, r5, r6
    load r7, r1
    add r5, r5, r7
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	// The only store is the routine's own storeai to fp+8.
	stores := 0
	res.Routine.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Op == iloc.OpStoreai && in.IsSpill {
			stores++
		}
	})
	if stores != 0 {
		t.Fatalf("fp-relative values should rematerialize without stores\n%s", iloc.Print(res.Routine))
	}
	out, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 1+2+3+5+5 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// No split copies survive to the final code when biased coloring can
// match the partners (low pressure): they are either coalesced or
// deleted as same-color copies.
func TestSplitsVanishWithoutPressure(t *testing.T) {
	res, err := Allocate(context.Background(), iloc.MustParse(fig1Src), Options{Machine: target.Huge(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if n := countSplits(res.Routine); n != 0 {
		t.Fatalf("splits survive on the huge machine: %d\n%s", n, iloc.Print(res.Routine))
	}
}

// MaxIterations aborts a pressured allocation cleanly rather than
// looping forever. With degradation disabled, the non-convergence
// surfaces as a structured *AllocError naming the loop.
func TestMaxIterationsRespected(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	_, err := Allocate(context.Background(), rt, Options{
		Machine: target.WithRegs(3), Strategy: "remat",
		MaxIterations: 1, DisableDegradation: true,
	})
	if err == nil {
		t.Fatal("expected non-convergence error with MaxIterations=1")
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("unexpected error: %v", err)
	}
	var ae *AllocError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *AllocError: %v", err)
	}
	if ae.Pass != "loop" || ae.Routine != rt.Name {
		t.Fatalf("unexpected AllocError fields: pass=%q routine=%q", ae.Pass, ae.Routine)
	}
}

// The paper's two-round coalescing removes ordinary copies aggressively
// even when the merged range is huge; splits only conservatively.
func TestAggressiveCoalescingRemovesPlainCopies(t *testing.T) {
	src := `
routine f()
entry:
    ldi r1, 5
    mov r2, r1
    mov r3, r2
    mov r4, r3
    addi r5, r4, 1
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.Standard(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(res.Routine, iloc.OpMov); n != 0 {
		t.Fatalf("copy chain should coalesce away, %d movs remain\n%s", n, iloc.Print(res.Routine))
	}
	out, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 6 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// Interfering copies must not be coalesced (both values live at once).
func TestInterferingCopyKept(t *testing.T) {
	src := `
routine f()
entry:
    ldi r1, 5
    mov r2, r1
    addi r1, r1, 1      ; r1 changes while r2 must keep the old value
    add r3, r1, r2
    retr r3
`
	for _, mode := range []string{"chaitin", "remat"} {
		res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.Standard(), Strategy: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, err := mustRun(t, res.Routine)
		if err != nil {
			t.Fatal(err)
		}
		if out.RetInt != 11 {
			t.Fatalf("mode %v: result = %d, want 11\n%s", mode, out.RetInt, iloc.Print(res.Routine))
		}
	}
}

// Allocation works when only one class is under pressure and the other
// is untouched.
func TestSingleClassPressure(t *testing.T) {
	src := `
routine f()
entry:
    fldi f1, 1.0
    fldi f2, 2.0
    fldi f3, 3.0
    fldi f4, 4.0
    fadd f5, f1, f2
    fadd f5, f5, f3
    fadd f5, f5, f4
    fadd f5, f5, f1
    retf f5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetFloat != 11 {
		t.Fatalf("result = %g", out.RetFloat)
	}
}

// Loop-split scheme 3 must only split ranges inactive in the loop.
func TestInactiveLoopSplitting(t *testing.T) {
	src := `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 99            ; inactive in the loop, used after it
    ldi r3, 0
    jmp loop
loop:
    addi r3, r3, 1
    sub r4, r1, r3
    br gt r4, loop, done
done:
    add r5, r2, r3
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{
		Machine: target.Standard(), Strategy: "remat:split=inactive-loops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 || res.Iterations[0].Splits == 0 {
		t.Fatal("scheme 3 should have split the inactive range around the loop")
	}
	out, err := mustRun(t, res.Routine, interp.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 104 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// A spilled display pointer rematerializes via ldisp (the paper's
// "loading non-local frame pointers from a display" category).
func TestSpillRematerializesDisplay(t *testing.T) {
	src := `
routine f()
entry:
    ldisp r1, 1           ; never-killed display load
    ldi r2, 1
    ldi r3, 2
    ldi r4, 3
    add r5, r2, r3
    add r5, r5, r4
    add r5, r5, r1
    add r5, r5, r1
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(res.Routine, iloc.OpStoreai); n != 0 {
		t.Fatalf("display value should rematerialize, found stores\n%s", iloc.Print(res.Routine))
	}
	e, err := interp.New(res.Routine, interp.Config{Display: []int64{0, 40}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 1+2+3+40+40 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// Chaitin's adjacency rule: a single-def single-use range whose use
// immediately follows its def must never be chosen as a spill candidate
// (spilling it cannot reduce pressure).
func TestAdjacencyRuleInfiniteCost(t *testing.T) {
	src := `
routine f()
entry:
    ldi r1, 1
    ldi r2, 2
    ldi r3, 3
    add r4, r1, r2        ; r4 defined...
    add r5, r4, r3        ; ...and used immediately: never a spill victim
    add r5, r5, r1
    add r5, r5, r2
    add r5, r5, r3
    retr r5
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	// The adjacent temp must not have been spilled: no reload may sit
	// between the two adds.
	res.Routine.ForEachInstr(func(b *iloc.Block, i int, in *iloc.Instr) {
		if in.Op != iloc.OpAdd || i == 0 {
			return
		}
		prev := b.Instrs[i-1]
		if prev.Op == iloc.OpAdd && prev.Dst == in.Src[0] {
			return // still adjacent, good
		}
	})
	out, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 1+2+1+2+3+3 {
		t.Fatalf("result = %d", out.RetInt)
	}
}

// Allocation is deterministic: identical inputs produce byte-identical
// code (tables and figures must be reproducible run to run).
func TestAllocationDeterministic(t *testing.T) {
	for _, mode := range []string{"chaitin", "remat"} {
		var first string
		for trial := 0; trial < 3; trial++ {
			res, err := Allocate(context.Background(), iloc.MustParse(fig1Src), Options{Machine: target.WithRegs(3), Strategy: mode})
			if err != nil {
				t.Fatal(err)
			}
			text := iloc.Print(res.Routine)
			if trial == 0 {
				first = text
			} else if text != first {
				t.Fatalf("mode %v: allocation differs between runs:\n%s\nvs\n%s", mode, first, text)
			}
		}
	}
}

// All spill metrics yield correct (if differently shaped) allocations.
func TestSpillMetricsPreserveSemantics(t *testing.T) {
	for _, m := range []SpillMetric{MetricCostOverDegree, MetricCostOverDegreeSquared, MetricCost} {
		res, err := Allocate(context.Background(), iloc.MustParse(fig1Src), Options{
			Machine: target.WithRegs(3), Strategy: "remat:metric=" + m.String(),
		})
		if err != nil {
			t.Fatalf("metric %v: %v", m, err)
		}
		out, err := mustRun(t, res.Routine, interp.Int(10))
		if err != nil {
			t.Fatal(err)
		}
		if out.RetFloat != 10*3.5*2 {
			t.Fatalf("metric %v: result %g", m, out.RetFloat)
		}
	}
	if MetricCostOverDegree.String() == "" || MetricCost.String() == "" {
		t.Fatal("metric names empty")
	}
}

// A genuine parallel-copy cycle: two values swapped every iteration.
// Under SplitAtPhis every φ operand gets a split, so the back edge
// carries the copy cycle that needs a temporary to sequence.
func TestLoopSwapCycleNeedsTemp(t *testing.T) {
	src := `
routine swap(r1)
entry:
    getparam r1, 0
    ldi r2, 3            ; a
    ldi r3, 4            ; b
    ldi r4, 0            ; i
    jmp loop
loop:
    sub r5, r4, r1
    br ge r5, done, body
body:
    mov r6, r2           ; t = a
    mov r2, r3           ; a = b
    mov r3, r6           ; b = t
    addi r4, r4, 1
    jmp loop
done:
    muli r2, r2, 100
    add r2, r2, r3
    retr r2
`
	for _, iters := range []int64{4, 5} {
		want := int64(3*100 + 4) // even swap count: back to (3,4)
		if iters%2 == 1 {
			want = 4*100 + 3
		}
		for _, split := range []SplitScheme{SplitNone, SplitAtPhis, SplitAllLoops} {
			res, err := Allocate(context.Background(), iloc.MustParse(src), Options{
				Machine: target.WithRegs(4), Strategy: "remat:split=" + split.String(),
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := mustRun(t, res.Routine, interp.Int(iters))
			if err != nil {
				t.Fatal(err)
			}
			if out.RetInt != want {
				t.Fatalf("split=%v iters=%d: got %d, want %d\n%s",
					split, iters, out.RetInt, want, iloc.Print(res.Routine))
			}
		}
	}
}

// Scheme names used in output paths and strategy specs.
func TestEnumStrings(t *testing.T) {
	names := map[SplitScheme]string{
		SplitNone: "none", SplitAllLoops: "all-loops", SplitOuterLoops: "outer-loops",
		SplitInactiveLoops: "inactive-loops", SplitAtPhis: "all-phis",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("scheme %d prints %q, want %q", s, s.String(), want)
		}
	}
}

// White-box: emitParallelCopy must break a pure copy cycle (the φ swap)
// with a temporary. Sequential source always has an explicit temp copy,
// so the cycle arises only through value unioning — drive it directly.
func TestEmitParallelCopyBreaksCycle(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
entry:
    ldi r1, 1
    ldi r2, 2
    retr r1
`)
	a := &allocator{rt: rt}
	cs := &classState{c: iloc.ClassInt}
	cs.sets.Reset(rt.NumRegs(iloc.ClassInt))
	cs.tags = make([]remat.Tag, rt.NumRegs(iloc.ClassInt))
	b := rt.Blocks[0]
	before := len(b.Instrs)

	a.emitParallelCopy(cs, b, []pendingCopy{
		{pred: b.Index, copyPair: copyPair{dst: 1, src: 2}},
		{pred: b.Index, copyPair: copyPair{dst: 2, src: 1}},
	})

	// Three copies must be emitted (temp = one side, then the two
	// assignments), placed before the terminator.
	added := len(b.Instrs) - before
	if added != 3 {
		t.Fatalf("cycle of 2 should emit 3 copies, got %d:\n%s", added, iloc.Print(rt))
	}
	// Simulate the emitted sequence on a register file: it must realize
	// the parallel swap r1,r2 = r2,r1.
	regs := map[int32]int64{1: 10, 2: 20}
	for _, in := range b.Instrs[before-1 : len(b.Instrs)-1] {
		if in.Op == iloc.OpMov {
			regs[in.Dst.N] = regs[in.Src[0].N]
		}
	}
	if regs[1] != 20 || regs[2] != 10 {
		t.Fatalf("swap not realized: r1=%d r2=%d\n%s", regs[1], regs[2], iloc.Print(rt))
	}
}

// Empty critical-edge blocks must not survive to allocated code: no
// block may consist of a single jmp reachable from another jmp/br.
func TestJumpThreadingRemovesEmptyBlocks(t *testing.T) {
	res, err := Allocate(context.Background(), iloc.MustParse(fig1Src), Options{Machine: target.WithRegs(3), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Routine.Blocks {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == iloc.OpJmp && b != res.Routine.Entry() {
			t.Fatalf("empty jump block %s survived threading\n%s", res.Routine.Labels[b.Label], iloc.Print(res.Routine))
		}
	}
	out, err := mustRun(t, res.Routine, interp.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetFloat != 10*3.5*2 {
		t.Fatalf("threading broke the program: %g", out.RetFloat)
	}
}

// §5.2: "some spills are profitable." A never-killed value redundantly
// redefined inside a loop but used only once after it has negative spill
// cost — the allocator must spill (rematerialize) it even with registers
// to spare, deleting the in-loop definitions outright.
func TestProfitableSpillDeletesRedundantDefs(t *testing.T) {
	src := `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 5
    ldi r3, 0
    jmp loop
loop:
    add r4, r3, r3
    addi r3, r3, 1
    ldi r2, 5            ; redundant: executed every iteration
    sub r5, r1, r3
    br gt r5, loop, done
done:
    add r6, r3, r2
    add r6, r6, r4
    retr r6
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.Standard(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	// The in-loop ldi must be gone; at most one ldi 5 executes (as a
	// rematerialization near the use).
	out, err := mustRun(t, res.Routine, interp.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10 + 5 + 2*9)
	if out.RetInt != want {
		t.Fatalf("result = %d, want %d", out.RetInt, want)
	}
	loopLdis := 0
	for _, b := range res.Routine.Blocks {
		if b.Depth > 0 || res.Routine.Labels[b.Label] == "loop" {
			for _, in := range b.Instrs {
				if in.Op == iloc.OpLdi && in.Imm == 5 {
					loopLdis++
				}
			}
		}
	}
	if loopLdis != 0 {
		t.Fatalf("redundant in-loop ldi survived (%d):\n%s", loopLdis, iloc.Print(res.Routine))
	}
	// Dynamic count: ldi 5 executes at most once.
	if n := out.Counts[iloc.OpLdi]; n > 4 {
		t.Fatalf("too many ldi executions: %d\n%s", n, iloc.Print(res.Routine))
	}
}

// Dead definitions (a range never used) are removed the same way.
func TestProfitableSpillRemovesDeadRange(t *testing.T) {
	src := `
routine f()
entry:
    ldi r1, 9            ; dead: negative cost, deleted by spilling
    ldi r2, 2
    retr r2
`
	res, err := Allocate(context.Background(), iloc.MustParse(src), Options{Machine: target.Standard(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Routine.Blocks {
		for _, in := range b.Instrs {
			if in.Op == iloc.OpLdi && in.Imm == 9 {
				t.Fatalf("dead ldi survived:\n%s", iloc.Print(res.Routine))
			}
		}
	}
	out, err := mustRun(t, res.Routine)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 2 {
		t.Fatalf("result = %d", out.RetInt)
	}
}
