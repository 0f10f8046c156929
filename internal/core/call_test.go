package core

import (
	"context"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
)

// runProgram allocates caller and callee with the same options and
// executes them together; the interpreter poisons caller-save registers
// after each call, so a wrong color assignment shows up as a wrong
// answer.
func runProgram(t *testing.T, callerSrc, calleeSrc string, opts Options, args ...interp.Value) *interp.Outcome {
	t.Helper()
	caller, err := Allocate(context.Background(), iloc.MustParse(callerSrc), opts)
	if err != nil {
		t.Fatalf("caller: %v", err)
	}
	callee, err := Allocate(context.Background(), iloc.MustParse(calleeSrc), opts)
	if err != nil {
		t.Fatalf("callee: %v", err)
	}
	e, err := interp.New(caller.Routine, interp.Config{Routines: []*iloc.Routine{callee.Routine}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(args...)
	if err != nil {
		t.Fatalf("run: %v\n--- caller ---\n%s--- callee ---\n%s",
			err, iloc.Print(caller.Routine), iloc.Print(callee.Routine))
	}
	return out
}

const squareSrc = `
routine square(r1)
entry:
    getparam r1, 0
    mul r2, r1, r1
    retr r2
`

// Values live across a call must land in callee-save colors; the
// interpreter's poisoning makes any mistake visible.
func TestCallLiveAcrossGetsCalleeSave(t *testing.T) {
	callerSrc := `
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 100          ; live across the call
    ldi r3, 7            ; live across the call
    setarg r1, 0
    call square
    getret r4
    add r4, r4, r2
    add r4, r4, r3
    retr r4
`
	for _, mode := range []string{"chaitin", "remat"} {
		out := runProgram(t, callerSrc, squareSrc, Options{Machine: target.Standard(), Strategy: mode}, interp.Int(6))
		if out.RetInt != 36+100+7 {
			t.Fatalf("mode %v: result = %d, want 143", mode, out.RetInt)
		}
	}
}

// With heavy pressure around the call, ranges across it either take
// callee-save colors or spill — never a caller-save color.
func TestCallPressureAroundCall(t *testing.T) {
	callerSrc := `
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 1
    ldi r3, 2
    ldi r4, 3
    ldi r5, 4
    ldi r6, 5
    ldi r7, 6
    ldi r8, 7
    ldi r9, 8
    setarg r1, 0
    call square
    getret r10
    add r10, r10, r2
    add r10, r10, r3
    add r10, r10, r4
    add r10, r10, r5
    add r10, r10, r6
    add r10, r10, r7
    add r10, r10, r8
    add r10, r10, r9
    retr r10
`
	for _, regs := range []int{16, 10, 8} {
		for _, mode := range []string{"chaitin", "remat"} {
			out := runProgram(t, callerSrc, squareSrc, Options{Machine: target.WithRegs(regs), Strategy: mode}, interp.Int(3))
			if out.RetInt != 9+36 {
				t.Fatalf("regs=%d mode=%v: result = %d, want 45", regs, mode, out.RetInt)
			}
		}
	}
}

// A rematerializable value used on both sides of a call can be
// recomputed after it instead of occupying a callee-save register.
func TestCallRematAcrossCall(t *testing.T) {
	callerSrc := `
routine main()
data tab ro 2 = 5 9
entry:
    lda r1, tab          ; never-killed; used before and after the call
    load r2, r1
    setarg r2, 0
    call square
    getret r3
    loadai r4, r1, 8
    add r3, r3, r4
    retr r3
`
	out := runProgram(t, callerSrc, squareSrc, Options{Machine: target.WithRegs(8), Strategy: "remat"})
	if out.RetInt != 25+9 {
		t.Fatalf("result = %d, want 34", out.RetInt)
	}
}

// Calls inside loops: the across-call constraint interacts with the
// 10^depth spill weights.
func TestCallInLoop(t *testing.T) {
	callerSrc := `
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 0            ; i, live across the call every iteration
    ldi r3, 0            ; acc, likewise
    jmp loop
loop:
    sub r4, r2, r1
    br ge r4, done, body
body:
    setarg r2, 0
    call square
    getret r5
    add r3, r3, r5
    addi r2, r2, 1
    jmp loop
done:
    retr r3
`
	for _, mode := range []string{"chaitin", "remat"} {
		out := runProgram(t, callerSrc, squareSrc, Options{Machine: target.Standard(), Strategy: mode}, interp.Int(5))
		if out.RetInt != 0+1+4+9+16 {
			t.Fatalf("mode %v: Σi² = %d, want 30", mode, out.RetInt)
		}
	}
}

// Recursive routines allocate and run correctly (each activation has its
// own frame, so spill slots never collide across activations).
func TestCallRecursiveAllocated(t *testing.T) {
	fibSrc := `
routine fib(r1)
entry:
    getparam r1, 0
    ldi r2, 2
    sub r2, r1, r2
    br lt r2, base, rec
base:
    retr r1
rec:
    subi r3, r1, 1
    setarg r3, 0
    call fib
    getret r4            ; fib(n-1), live across the second call
    subi r3, r1, 2
    setarg r3, 0
    call fib
    getret r5
    add r4, r4, r5
    retr r4
`
	res, err := Allocate(context.Background(), iloc.MustParse(fibSrc), Options{Machine: target.Standard(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	// The main routine is fib itself; its self-calls resolve to it.
	e, err := interp.New(res.Routine, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(interp.Int(12))
	if err != nil {
		t.Fatalf("%v\n%s", err, iloc.Print(res.Routine))
	}
	if out.RetInt != 144 {
		t.Fatalf("fib(12) = %d, want 144", out.RetInt)
	}
}
