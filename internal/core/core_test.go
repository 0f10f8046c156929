package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
)

// checkRegBounds verifies every register number in allocated code fits
// the machine.
func checkRegBounds(t *testing.T, rt *iloc.Routine, m *target.Machine) {
	t.Helper()
	rt.ForEachInstr(func(b *iloc.Block, _ int, in *iloc.Instr) {
		check := func(r iloc.Reg) {
			if !r.Valid() {
				return
			}
			if r.N < 0 || int(r.N) >= m.Regs[r.Class] {
				t.Fatalf("register %s out of machine range in %q (block %s)", r, rt.InstrString(in), rt.Labels[b.Label])
			}
		}
		check(in.Def())
		for _, u := range rt.Uses(in) {
			check(u)
		}
	})
}

// runBoth executes the routine before and after allocation and checks
// the observable result is identical.
func runBoth(t *testing.T, rt *iloc.Routine, opts Options, args ...interp.Value) (*interp.Outcome, *interp.Outcome) {
	t.Helper()
	e0, err := interp.New(rt, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e0.Run(args...)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Allocate(context.Background(), rt, opts)
	if err != nil {
		t.Fatalf("allocate (%v): %v", opts.Strategy, err)
	}
	if !res.Routine.Allocated {
		t.Fatal("result not marked allocated")
	}
	checkRegBounds(t, res.Routine, opts.Machine)
	if err := iloc.Verify(res.Routine, false); err != nil {
		t.Fatalf("allocated code fails verify: %v\n%s", err, iloc.Print(res.Routine))
	}

	e1, err := interp.New(res.Routine, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.Run(args...)
	if err != nil {
		t.Fatalf("allocated run: %v\n%s", err, iloc.Print(res.Routine))
	}
	if got.HasRet != want.HasRet || got.RetInt != want.RetInt ||
		(math.Abs(got.RetFloat-want.RetFloat) > 1e-9*(1+math.Abs(want.RetFloat))) {
		t.Fatalf("allocation changed behaviour: got (%d,%g), want (%d,%g)\n%s",
			got.RetInt, got.RetFloat, want.RetInt, want.RetFloat, iloc.Print(res.Routine))
	}
	return want, got
}

const fig1Src = `
routine fig1(r9)
data arr rw 64
data lab rw 16 = 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5
entry:
    getparam r9, 0
    lda r1, lab       ; p <- Label
    fldi f1, 0.0
    ldi r2, 0
    jmp loop1
loop1:
    fload f2, r1      ; y <- y + [p]
    fadd f1, f1, f2
    addi r2, r2, 1
    sub r3, r9, r2
    br gt r3, loop1, mid
mid:
    ldi r4, 0
    jmp loop2
loop2:
    fload f3, r1      ; y <- y + [p]
    fadd f1, f1, f3
    addi r1, r1, 8    ; p <- p + 8
    addi r4, r4, 1
    sub r5, r9, r4
    br gt r5, loop2, done
done:
    retf f1
`

func TestAllocateFig1NoPressure(t *testing.T) {
	for _, mode := range []string{"chaitin", "remat"} {
		rt := iloc.MustParse(fig1Src)
		want, got := runBoth(t, rt, Options{Machine: target.Standard(), Strategy: mode}, interp.Int(8))
		if want.RetFloat != 8*3.5*2 {
			t.Fatalf("reference result wrong: %g", want.RetFloat)
		}
		_ = got
	}
}

func TestAllocateStraightLine(t *testing.T) {
	src := `
routine f()
entry:
    ldi r1, 1
    ldi r2, 2
    ldi r3, 3
    ldi r4, 4
    ldi r5, 5
    add r6, r1, r2
    add r6, r6, r3
    add r6, r6, r4
    add r6, r6, r5
    retr r6
`
	for _, mode := range []string{"chaitin", "remat"} {
		rt := iloc.MustParse(src)
		_, got := runBoth(t, rt, Options{Machine: target.WithRegs(4), Strategy: mode})
		if got.RetInt != 15 {
			t.Fatalf("ret = %d", got.RetInt)
		}
	}
}

// High pressure in the first loop forces p to spill. The remat allocator
// must rematerialize the constant value of p inside loop1 (ldi/lda, 1
// cycle) instead of reloading it from the stack (2 cycles), and must not
// add stores. The key Figure 1 shape: remat spill cost < Chaitin spill
// cost.
func TestFig1RematBeatsChaitin(t *testing.T) {
	// 3 integer registers (2 colors) force p itself to spill; at 4 only
	// the rematerializable bound spills and the modes tie.
	m := target.WithRegs(3)
	n := int64(10)

	results := map[string]*interp.Outcome{}
	for _, mode := range []string{"chaitin", "remat"} {
		rt := iloc.MustParse(fig1Src)
		_, got := runBoth(t, rt, Options{Machine: m, Strategy: mode}, interp.Int(n))
		results[mode] = got
	}
	ch, re := results["chaitin"], results["remat"]
	if ch.RetFloat != re.RetFloat {
		t.Fatal("modes disagree on the answer")
	}
	chCycles, reCycles := ch.Cycles(2, 1), re.Cycles(2, 1)
	t.Logf("chaitin: %d cycles (%d loads, %d stores, %d ldi/lda)", chCycles,
		ch.Count(iloc.OpLoad, iloc.OpLoadai, iloc.OpFload, iloc.OpFloadai),
		ch.Count(iloc.OpStore, iloc.OpStoreai, iloc.OpFstoreai),
		ch.Count(iloc.OpLdi, iloc.OpLda))
	t.Logf("remat:   %d cycles (%d loads, %d stores, %d ldi/lda)", reCycles,
		re.Count(iloc.OpLoad, iloc.OpLoadai, iloc.OpFload, iloc.OpFloadai),
		re.Count(iloc.OpStore, iloc.OpStoreai, iloc.OpFstoreai),
		re.Count(iloc.OpLdi, iloc.OpLda))
	if reCycles >= chCycles {
		t.Fatalf("rematerialization should win under pressure: %d vs %d cycles", reCycles, chCycles)
	}
	// The Figure 1 signature: fewer loads, no extra stores, more lda
	// (p rematerialized in the first loop).
	if re.Count(iloc.OpLda) <= ch.Count(iloc.OpLda) {
		t.Fatal("remat mode should issue more lda (rematerializing p)")
	}
	if re.Count(iloc.OpLoad, iloc.OpLoadai) >= ch.Count(iloc.OpLoad, iloc.OpLoadai) {
		t.Fatal("remat mode should issue fewer reloads")
	}
}

func TestDiamondWithMerge(t *testing.T) {
	src := `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 10
    jmp join
b:
    ldi r2, 20
    jmp join
join:
    add r3, r2, r1
    retr r3
`
	for _, mode := range []string{"chaitin", "remat"} {
		for _, n := range []int64{5, -5} {
			rt := iloc.MustParse(src)
			want := n + 10
			if n <= 0 {
				want = n + 20
			}
			_, got := runBoth(t, rt, Options{Machine: target.WithRegs(4), Strategy: mode}, interp.Int(n))
			if got.RetInt != want {
				t.Fatalf("mode %v n=%d: ret %d, want %d", mode, n, got.RetInt, want)
			}
		}
	}
}

func TestFloatPressure(t *testing.T) {
	src := `
routine f(r1)
entry:
    getparam r1, 0
    fldi f1, 1.0
    fldi f2, 2.0
    fldi f3, 3.0
    fldi f4, 4.0
    fldi f5, 5.0
    cvtif f6, r1
    fadd f7, f1, f2
    fadd f7, f7, f3
    fadd f7, f7, f4
    fadd f7, f7, f5
    fadd f7, f7, f6
    fmul f7, f7, f1
    fadd f7, f7, f2
    retf f7
`
	for _, mode := range []string{"chaitin", "remat"} {
		rt := iloc.MustParse(src)
		_, got := runBoth(t, rt, Options{Machine: target.WithRegs(3), Strategy: mode}, interp.Int(7))
		if got.RetFloat != 24 {
			t.Fatalf("ret = %g, want 24", got.RetFloat)
		}
	}
}

// Swap in a loop exercises the parallel-copy sequencer in renumber: the
// two φs at the loop head form a copy cycle on the back edge when
// splitting is forced at all φs.
func TestLoopSwapParallelCopy(t *testing.T) {
	src := `
routine fib(r1)
entry:
    getparam r1, 0
    ldi r2, 0       ; a
    ldi r3, 1       ; b
    ldi r4, 0       ; i
    jmp loop
loop:
    sub r5, r4, r1
    br ge r5, done, body
body:
    add r6, r2, r3  ; t = a+b
    mov r2, r3      ; a = b
    mov r3, r6      ; b = t
    addi r4, r4, 1
    jmp loop
done:
    retr r2
`
	for _, mode := range []string{"chaitin", "remat"} {
		for _, split := range []SplitScheme{SplitNone, SplitAtPhis, SplitAllLoops, SplitOuterLoops, SplitInactiveLoops} {
			if mode == "chaitin" && split != SplitNone {
				continue
			}
			strategy := mode
			if split != SplitNone {
				strategy += ":split=" + split.String()
			}
			rt := iloc.MustParse(src)
			_, got := runBoth(t, rt, Options{Machine: target.WithRegs(4), Strategy: strategy}, interp.Int(10))
			if got.RetInt != 55 { // fib(10)
				t.Fatalf("mode %v split=%v: fib(10) = %d, want 55", mode, split, got.RetInt)
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	res, err := Allocate(context.Background(), rt, Options{Machine: target.WithRegs(4), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iteration stats")
	}
	if res.SpilledRanges == 0 {
		t.Fatal("expected spills on a 4-register machine")
	}
	if res.Iterations[0].Splits == 0 {
		t.Fatal("fig1 should need at least one split")
	}
	var total time.Duration
	for _, it := range res.Iterations {
		for _, ps := range it.Passes {
			total += ps.Time
		}
	}
	if total <= 0 {
		t.Fatal("pass times not recorded")
	}
}

func TestInputRoutineNotModified(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	before := iloc.Print(rt)
	if _, err := Allocate(context.Background(), rt, Options{Machine: target.WithRegs(4), Strategy: "remat"}); err != nil {
		t.Fatal(err)
	}
	if iloc.Print(rt) != before {
		t.Fatal("Allocate modified its input")
	}
}

func TestRejectsBadInput(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	rt.Blocks[0].Instrs[0].Dst = iloc.IntReg(999)
	if _, err := Allocate(context.Background(), rt, Options{Machine: target.Standard()}); err == nil {
		t.Fatal("invalid input accepted")
	}
	m := target.WithRegs(2)
	if _, err := Allocate(context.Background(), iloc.MustParse(fig1Src), Options{Machine: m}); err == nil {
		t.Fatal("unusable machine accepted")
	}
}
