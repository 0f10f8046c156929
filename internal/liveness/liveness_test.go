package liveness

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/iloc"
)

func build(t *testing.T, src string) *iloc.Routine {
	t.Helper()
	rt := iloc.MustParse(src)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestStraightLine(t *testing.T) {
	rt := build(t, `
routine f()
a:
    ldi r1, 1
    ldi r2, 2
    add r3, r1, r2
    retr r3
`)
	li := Compute(rt, iloc.ClassInt)
	b := rt.Blocks[0].Index
	if !li.liveIn(b).Empty() {
		t.Fatalf("live-in of entry should be empty: %v", li.liveIn(b))
	}
	if !li.liveOut(b).Empty() {
		t.Fatal("live-out of exit block should be empty")
	}
	if !li.kill(b).Has(1) || !li.kill(b).Has(2) || !li.kill(b).Has(3) {
		t.Fatal("kill set wrong")
	}
	if !li.ueVar(b).Empty() {
		t.Fatalf("no upward-exposed uses expected: %v", li.ueVar(b))
	}
}

func TestLoopCarried(t *testing.T) {
	rt := build(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    jmp loop
loop:
    addi r2, r2, 1
    sub r3, r1, r2
    br gt r3, loop, done
done:
    retr r2
`)
	li := Compute(rt, iloc.ClassInt)
	loop := rt.BlockByLabel("loop").Index
	// r1 and r2 are live around the loop.
	if !li.liveIn(loop).Has(1) || !li.liveIn(loop).Has(2) {
		t.Fatalf("live-in(loop) = %v, want r1 and r2", li.liveIn(loop))
	}
	if !li.liveOut(loop).Has(1) || !li.liveOut(loop).Has(2) {
		t.Fatalf("live-out(loop) = %v", li.liveOut(loop))
	}
	// r3 is consumed by the branch in the same block: not live-in.
	if li.liveIn(loop).Has(3) {
		t.Fatal("r3 must not be live into loop")
	}
	done := rt.BlockByLabel("done").Index
	if !li.liveIn(done).Has(2) || li.liveIn(done).Has(1) {
		t.Fatalf("live-in(done) = %v, want only r2", li.liveIn(done))
	}
	entry := rt.BlockByLabel("entry").Index
	if !li.liveIn(entry).Empty() {
		t.Fatalf("entry live-in should be empty, got %v", li.liveIn(entry))
	}
}

func TestBranchArms(t *testing.T) {
	rt := build(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 7
    br gt r1, a, b
a:
    retr r2
b:
    retr r1
`)
	li := Compute(rt, iloc.ClassInt)
	entry := rt.BlockByLabel("entry").Index
	if !li.liveOut(entry).Has(1) || !li.liveOut(entry).Has(2) {
		t.Fatalf("live-out(entry) = %v", li.liveOut(entry))
	}
	a := rt.BlockByLabel("a").Index
	if !li.liveIn(a).Has(2) || li.liveIn(a).Has(1) {
		t.Fatalf("live-in(a) = %v", li.liveIn(a))
	}
}

func TestClassesIndependent(t *testing.T) {
	rt := build(t, `
routine f()
a:
    ldi r1, 1
    fldi f1, 1.0
    jmp b
b:
    fadd f2, f1, f1
    retr r1
`)
	lInt := Compute(rt, iloc.ClassInt)
	lFlt := Compute(rt, iloc.ClassFlt)
	bIdx := rt.BlockByLabel("b").Index
	if !lInt.liveIn(bIdx).Has(1) {
		t.Fatal("r1 live into b")
	}
	if !lFlt.liveIn(bIdx).Has(1) {
		t.Fatal("f1 live into b")
	}
	if lInt.liveIn(bIdx).Has(2) || lFlt.liveIn(bIdx).Has(2) {
		t.Fatal("unexpected extra liveness")
	}
	if !lFlt.kill(bIdx).Has(2) {
		t.Fatal("f2 killed in b")
	}
}

func TestFPIgnored(t *testing.T) {
	rt := build(t, `
routine f()
a:
    addi r1, fp, 8
    load r2, r1
    retr r2
`)
	li := Compute(rt, iloc.ClassInt)
	b := rt.Blocks[0].Index
	if li.ueVar(b).Has(0) || li.liveIn(b).Has(0) {
		t.Fatal("fp (r0) must not participate in liveness")
	}
}

func TestPanicsOnPhi(t *testing.T) {
	rt := build(t, `
routine f()
a:
    ldi r1, 1
    retr r1
`)
	phi := rt.NewPhi(iloc.IntReg(1), 1)
	rt.Blocks[0].Instrs = append([]*iloc.Instr{&phi}, rt.Blocks[0].Instrs...)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on φ")
		}
	}()
	Compute(rt, iloc.ClassInt)
}
