package interp

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/iloc"
)

func run(t *testing.T, src string, args ...Value) *Outcome {
	t.Helper()
	rt := iloc.MustParse(src)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestArithmetic(t *testing.T) {
	out := run(t, `
routine f()
a:
    ldi r1, 6
    ldi r2, 7
    mul r3, r1, r2
    addi r3, r3, 1
    subi r3, r3, 3
    retr r3
`)
	if !out.HasRet || out.RetInt != 40 {
		t.Fatalf("ret = %d, want 40", out.RetInt)
	}
	if out.Counts[iloc.OpLdi] != 2 || out.Counts[iloc.OpMul] != 1 {
		t.Fatalf("counts = %v", out.Counts)
	}
}

func TestIntOps(t *testing.T) {
	out := run(t, `
routine f()
a:
    ldi r1, 12
    ldi r2, 10
    and r3, r1, r2      ; 8
    or r4, r1, r2       ; 14
    xor r5, r3, r4      ; 6
    ldi r6, 2
    shl r7, r5, r6      ; 24
    shr r7, r7, r6      ; 6
    neg r7, r7          ; -6
    sub r8, r1, r7      ; 18
    div r8, r8, r6      ; 9
    retr r8
`)
	if out.RetInt != 9 {
		t.Fatalf("ret = %d, want 9", out.RetInt)
	}
}

func TestFloatOps(t *testing.T) {
	out := run(t, `
routine f()
a:
    fldi f1, 2.5
    fldi f2, -1.5
    fadd f3, f1, f2     ; 1.0
    fmul f3, f3, f1     ; 2.5
    fsub f3, f3, f2     ; 4.0
    fdiv f3, f3, f1     ; 1.6
    fabs f4, f2         ; 1.5
    fneg f4, f4         ; -1.5
    fsub f3, f3, f4     ; 3.1
    retf f3
`)
	if math.Abs(out.RetFloat-3.1) > 1e-12 {
		t.Fatalf("ret = %g, want 3.1", out.RetFloat)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..n via loop.
	out := run(t, `
routine sum(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    ldi r3, 0
loop:
    sub r4, r3, r1
    br ge r4, done, body
body:
    addi r3, r3, 1
    add r2, r2, r3
    jmp loop
done:
    retr r2
`, Int(10))
	if out.RetInt != 55 {
		t.Fatalf("sum(10) = %d, want 55", out.RetInt)
	}
	if out.Counts[iloc.OpBr] != 11 {
		t.Fatalf("br count = %d, want 11", out.Counts[iloc.OpBr])
	}
}

func TestMemoryAndData(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
data tab ro 3 = 1.5 2.5 4.0
data buf rw 2
entry:
    lda r1, tab
    fload f1, r1
    floadai f2, r1, 8
    ldi r2, 16
    floadao f3, r1, r2
    fadd f1, f1, f2
    fadd f1, f1, f3
    lda r3, buf
    fstore f1, r3
    fstoreai f1, r3, 8
    frload f4, tab, 8
    fadd f1, f1, f4
    retf f1
`)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.RetFloat-10.5) > 1e-12 {
		t.Fatalf("ret = %g, want 10.5", out.RetFloat)
	}
	buf := e.DataAddr("buf")
	if e.FloatAt(buf) != 8.0 || e.FloatAt(buf+8) != 8.0 {
		t.Fatalf("stored %g/%g, want 8/8", e.FloatAt(buf), e.FloatAt(buf+8))
	}
}

func TestIntDataInit(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
data k ro 2 = 41 1
entry:
    rload r1, k, 0
    rload r2, k, 8
    add r1, r1, r2
    retr r1
`)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 42 {
		t.Fatalf("ret = %d", out.RetInt)
	}
}

func TestFrameStorage(t *testing.T) {
	out := run(t, `
routine f()
entry:
    ldi r1, 99
    storeai r1, fp, 16
    loadai r2, fp, 16
    retr r2
`)
	if out.RetInt != 99 {
		t.Fatalf("ret = %d", out.RetInt)
	}
	if out.Counts[iloc.OpStoreai] != 1 || out.Counts[iloc.OpLoadai] != 1 {
		t.Fatal("frame ops not counted")
	}
}

func TestParams(t *testing.T) {
	out := run(t, `
routine f(r1, f1)
entry:
    getparam r1, 0
    fgetparam f1, 1
    cvtif f2, r1
    fadd f2, f2, f1
    retf f2
`, Int(40), Float(2.5))
	if out.RetFloat != 42.5 {
		t.Fatalf("ret = %g", out.RetFloat)
	}
}

func TestArgErrors(t *testing.T) {
	rt := iloc.MustParse("routine f(r1)\na:\n getparam r1, 0\n retr r1\n")
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("missing args accepted")
	}
	if _, err := e.Run(Float(1)); err == nil {
		t.Fatal("class mismatch accepted")
	}
}

func TestAllocAndPointers(t *testing.T) {
	rt := iloc.MustParse(`
routine sumarr(r1, r2)   ; base, count
entry:
    getparam r1, 0
    getparam r2, 1
    fldi f1, 0.0
    ldi r3, 0
loop:
    sub r4, r3, r2
    br ge r4, done, body
body:
    muli r5, r3, 8
    add r5, r5, r1
    fload f2, r5
    fadd f1, f1, f2
    addi r3, r3, 1
    jmp loop
done:
    retf f1
`)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := e.Alloc(5)
	for i := 0; i < 5; i++ {
		e.SetFloat(base+int64(i)*8, float64(i+1))
	}
	out, err := e.Run(Int(base), Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetFloat != 15 {
		t.Fatalf("sum = %g, want 15", out.RetFloat)
	}
}

func TestFcmp(t *testing.T) {
	out := run(t, `
routine f()
entry:
    fldi f1, 1.0
    fldi f2, 2.0
    fcmp r1, f1, f2
    fcmp r2, f2, f1
    fcmp r3, f1, f1
    muli r1, r1, 100
    muli r2, r2, 10
    add r1, r1, r2
    add r1, r1, r3
    retr r1
`)
	if out.RetInt != -90 {
		t.Fatalf("ret = %d, want -90", out.RetInt)
	}
}

func runErr(t *testing.T, src string, args ...Value) error {
	t.Helper()
	rt := iloc.MustParse(src)
	e, err := New(rt, Config{MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(args...)
	if err == nil {
		t.Fatal("expected execution error")
	}
	return err
}

func TestFaults(t *testing.T) {
	if err := runErr(t, `
routine f()
a:
    ldi r1, 0
    ldi r2, 5
    div r3, r2, r1
    retr r3
`); !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}

	if err := runErr(t, `
routine f()
a:
    ldi r1, -8
    load r2, r1
    retr r2
`); !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v", err)
	}

	if err := runErr(t, `
routine f()
a:
    ldi r1, 4
    load r2, r1
    retr r2
`); !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("err = %v", err)
	}

	if err := runErr(t, `
routine f()
data k ro 1 = 7
a:
    lda r1, k
    ldi r2, 1
    store r2, r1
    retr r2
`); !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("err = %v", err)
	}

	if err := runErr(t, `
routine f()
a:
    jmp a
`); !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v", err)
	}
}

func TestCyclesCostModel(t *testing.T) {
	out := run(t, `
routine f()
entry:
    ldi r1, 8
    storeai r1, fp, 8
    loadai r2, fp, 8
    addi r2, r2, 1
    retr r2
`)
	// ldi(1) + store(2) + load(2) + addi(1) + retr(1) = 7
	if got := out.Cycles(2, 1); got != 7 {
		t.Fatalf("cycles = %d, want 7", got)
	}
	if got := out.Cycles(1, 1); got != 5 {
		t.Fatalf("flat cycles = %d, want 5 (steps)", got)
	}
	if got := out.Count(iloc.OpLoadai, iloc.OpStoreai); got != 2 {
		t.Fatalf("mem count = %d", got)
	}
}

func TestFallthrough(t *testing.T) {
	out := run(t, `
routine f()
a:
    ldi r1, 1
b:
    addi r1, r1, 1
    retr r1
`)
	if out.RetInt != 2 {
		t.Fatalf("ret = %d", out.RetInt)
	}
}

func TestPlainRet(t *testing.T) {
	out := run(t, `
routine f()
a:
    ret
`)
	if out.HasRet {
		t.Fatal("plain ret should not set a return value")
	}
}

func TestLdisp(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
entry:
    ldisp r1, 0
    load r2, r1
    ldisp r3, 5      ; beyond the configured display: reads zero
    add r2, r2, r3
    retr r2
`)
	e, err := New(rt, Config{Display: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	outer := e.Alloc(1)
	e.SetInt(outer, 321)
	// Point display[0] at the outer frame slot.
	e2, err := New(rt, Config{Display: []int64{outer}})
	if err != nil {
		t.Fatal(err)
	}
	e2.Alloc(1) // keep memory layouts identical
	e2.SetInt(outer, 321)
	out, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 321 {
		t.Fatalf("ret = %d, want 321", out.RetInt)
	}
	if out.Counts[iloc.OpLdisp] != 2 {
		t.Fatalf("ldisp count = %d", out.Counts[iloc.OpLdisp])
	}
}

// TestEveryOpExecutes runs a routine touching every executable op and
// checks the combined result, so no opcode silently falls through to the
// default error arm.
func TestEveryOpExecutes(t *testing.T) {
	rt := iloc.MustParse(`
routine all(r1, f1)
data ktab ro 2 = 10 20
data ftab ro 2 = 0.5 1.5
data buf rw 4
entry:
    getparam r1, 0        ; 3
    fgetparam f1, 1       ; 2.0
    ldi r2, 6
    lda r3, ktab
    rload r4, ktab, 8     ; 20
    load r5, r3           ; 10
    loadai r6, r3, 8      ; 20
    ldi r7, 8
    loadao r8, r3, r7     ; 20
    mov r9, r2            ; 6
    add r10, r5, r6       ; 30
    sub r10, r10, r4      ; 10
    mul r10, r10, r2      ; 60
    div r10, r10, r1      ; 20
    and r11, r10, r7      ; 0
    or r11, r11, r1       ; 3
    xor r11, r11, r2      ; 5
    ldi r12, 1
    shl r13, r11, r12     ; 10
    shr r13, r13, r12     ; 5
    neg r14, r13          ; -5
    addi r14, r14, 7      ; 2
    subi r14, r14, 1      ; 1
    muli r14, r14, 9      ; 9
    ldisp r15, 0          ; 0 (no display configured)
    add r15, r15, r14     ; 9
    nop
    fldi f2, 0.25
    frload f3, ftab, 8    ; 1.5
    lda r5, ftab
    fload f4, r5          ; 0.5
    floadai f5, r5, 8     ; 1.5
    floadao f6, r5, r7    ; 1.5
    fmov f7, f2           ; 0.25
    fadd f8, f4, f5       ; 2.0
    fsub f8, f8, f7       ; 1.75
    fmul f8, f8, f1       ; 3.5
    fdiv f8, f8, f3       ; 2.333...
    fabs f9, f8
    fneg f9, f9           ; -2.333
    cvtif f10, r15        ; 9.0
    fadd f10, f10, f9     ; 6.666...
    cvtfi r6, f10         ; 6
    fcmp r7, f10, f6      ; 1 (6.66 > 1.5)
    lda r8, buf
    store r6, r8
    storeai r6, r8, 8
    fstore f10, r8        ; overwrite word 0 as float
    fstoreai f10, r8, 8
    br gt r7, yes, no
yes:
    add r6, r6, r9        ; 6 + 6 = 12
    jmp fin
no:
    ldi r6, -1
    jmp fin
fin:
    retr r6
`)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Int(3), Float(2.0))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 12 {
		t.Fatalf("combined result = %d, want 12", out.RetInt)
	}
	// Every opcode used above must appear in the counts.
	for _, op := range []iloc.Op{
		iloc.OpGetparam, iloc.OpFgetparam, iloc.OpLdi, iloc.OpLda, iloc.OpRload,
		iloc.OpLoad, iloc.OpLoadai, iloc.OpLoadao, iloc.OpMov, iloc.OpAdd,
		iloc.OpSub, iloc.OpMul, iloc.OpDiv, iloc.OpAnd, iloc.OpOr, iloc.OpXor,
		iloc.OpShl, iloc.OpShr, iloc.OpNeg, iloc.OpAddi, iloc.OpSubi,
		iloc.OpMuli, iloc.OpLdisp, iloc.OpNop, iloc.OpFldi, iloc.OpFrload,
		iloc.OpFload, iloc.OpFloadai, iloc.OpFloadao, iloc.OpFmov, iloc.OpFadd,
		iloc.OpFsub, iloc.OpFmul, iloc.OpFdiv, iloc.OpFabs, iloc.OpFneg,
		iloc.OpCvtif, iloc.OpCvtfi, iloc.OpFcmp, iloc.OpStore, iloc.OpStoreai,
		iloc.OpFstore, iloc.OpFstoreai, iloc.OpBr, iloc.OpJmp, iloc.OpRetr,
	} {
		if out.Counts[op] == 0 {
			t.Errorf("op %s never executed", op)
		}
	}
}

// A routine naming a register far beyond its size runs as a densely
// named clone: its register files stay small, the routine is left as it
// was, and error texts name its registers as it does.
func TestSparseRegisterNames(t *testing.T) {
	rt := iloc.MustParse(`
routine f(r2000000)
a:
    getparam r2000000, 0
    ldi r9000000, 5
    fldi f7000000, 1.5
    div r3000000, r9000000, r2000000
    retr r3000000
`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Int(2))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 2 {
		t.Fatalf("returned %d, want 2", out.RetInt)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("New and Run allocated %d KiB", alloc>>10)
	}
	if rt.NextReg[iloc.ClassInt] != 9000001 || !strings.Contains(iloc.Print(rt), "r9000000") {
		t.Error("New renamed the routine's registers")
	}
	if _, err := e.Run(Int(0)); err == nil || !strings.Contains(err.Error(), "div r3000000, r9000000, r2000000") {
		t.Errorf("err = %v, want the division named as the routine names it", err)
	}
}
