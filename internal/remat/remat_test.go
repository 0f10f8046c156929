package remat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/ssa"
)

func buildAndTag(t *testing.T, src string, c iloc.Class) (*iloc.Routine, *ssa.Graph, []Tag) {
	t.Helper()
	rt := iloc.MustParse(src)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SplitCriticalEdges(rt); err != nil {
		t.Fatal(err)
	}
	tree := dom.Compute(rt)
	live := liveness.Compute(rt, c)
	g, err := ssa.Build(rt, c, tree, live)
	if err != nil {
		t.Fatal(err)
	}
	return rt, g, Propagate(g)
}

func TestMeetTable(t *testing.T) {
	i1 := iloc.MakeLdi(iloc.IntReg(1), 5)
	i2 := iloc.MakeLdi(iloc.IntReg(2), 5) // same op+imm, different dst
	i3 := iloc.MakeLdi(iloc.IntReg(3), 6)
	cases := []struct {
		a, b, want Tag
	}{
		{TopTag(), TopTag(), TopTag()},
		{TopTag(), BottomTag(), BottomTag()},
		{BottomTag(), TopTag(), BottomTag()},
		{TopTag(), InstTag(i1), InstTag(i1)},
		{InstTag(i1), TopTag(), InstTag(i1)},
		{InstTag(i1), BottomTag(), BottomTag()},
		{InstTag(i1), InstTag(i2), InstTag(i1)}, // equal instructions
		{InstTag(i1), InstTag(i3), BottomTag()}, // different immediates
		{BottomTag(), BottomTag(), BottomTag()},
	}
	for i, c := range cases {
		if got := Meet(c.a, c.b); !Equal(got, c.want) {
			t.Errorf("case %d: Meet(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// Inst tags compare their instructions operand by operand, ignoring
// the destination.
func TestInstrEqual(t *testing.T) {
	eq := func(a, b *iloc.Instr) bool { return Equal(InstTag(a), InstTag(b)) }
	lda1 := iloc.MakeLda(iloc.IntReg(1), 0)
	lda2 := iloc.MakeLda(iloc.IntReg(9), 0)
	lda3 := iloc.MakeLda(iloc.IntReg(1), 1)
	if !eq(lda1, lda2) {
		t.Fatal("same label lda must be equal")
	}
	if eq(lda1, lda3) {
		t.Fatal("different label lda must differ")
	}
	addiFP1 := iloc.MakeImm(iloc.OpAddi, iloc.IntReg(1), iloc.FP, 8)
	addiFP2 := iloc.MakeImm(iloc.OpAddi, iloc.IntReg(2), iloc.FP, 8)
	addiFP3 := iloc.MakeImm(iloc.OpAddi, iloc.IntReg(2), iloc.FP, 16)
	if !eq(addiFP1, addiFP2) || eq(addiFP1, addiFP3) {
		t.Fatal("fp-relative addi equality wrong")
	}
	if eq(lda1, addiFP1) {
		t.Fatal("different ops equal")
	}
	if Equal(TopTag(), InstTag(lda1)) || !Equal(TopTag(), TopTag()) {
		t.Fatal("an inst tag equals ⊤, or ⊤ differs from itself")
	}
}

// fldi 0.0 and fldi -0.0 are different constants: 1/x tells them
// apart, so their tags must not meet to either one.
func TestSignedZeroTagsMeetToBottom(t *testing.T) {
	pos := InstTag(iloc.MakeFldi(iloc.FltReg(1), 0))
	neg := InstTag(iloc.MakeFldi(iloc.FltReg(2), math.Copysign(0, -1)))
	if Equal(pos, neg) {
		t.Fatalf("%v equals %v", pos, neg)
	}
	if got := Meet(pos, neg); got.Kind != Bottom {
		t.Fatalf("Meet(%v, %v) = %v, want ⊥", pos, neg, got)
	}
	nan := InstTag(iloc.MakeFldi(iloc.FltReg(1), math.NaN()))
	if !Equal(nan, nan) {
		t.Fatal("a NaN constant's tag differs from itself")
	}
}

// Tag.Instr re-issues the tagged instruction into a new destination.
func TestTagInstrReissues(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
data lab ro 8 = 42
entry:
    ldi r1, 7
    fldi f1, -2.5
    lda r2, lab
    addi r3, fp, 16
    rload r4, lab, 8
    getparam r5, 0
    mov r6, fp
    retr r1
`)
	for _, in := range rt.Blocks[0].Instrs {
		if !NeverKilled(in) {
			continue
		}
		re := InstTag(in).Instr(in.Dst)
		if got, want := rt.InstrString(&re), rt.InstrString(in); got != want {
			t.Errorf("re-issued %q, want %q", got, want)
		}
		if !Equal(InstTag(&re), InstTag(in)) {
			t.Errorf("the re-issued %q has another tag", rt.InstrString(in))
		}
	}
}

func TestNeverKilled(t *testing.T) {
	yes := []*iloc.Instr{
		iloc.MakeLdi(iloc.IntReg(1), 5),
		iloc.MakeFldi(iloc.FltReg(1), 2.5),
		iloc.MakeLda(iloc.IntReg(1), 0),
		iloc.MakeImm(iloc.OpAddi, iloc.IntReg(1), iloc.FP, 8),
		iloc.MakeImm(iloc.OpSubi, iloc.IntReg(1), iloc.FP, 8),
		{Op: iloc.OpRload, Dst: iloc.IntReg(1), Label: 0, Imm: 0},
		{Op: iloc.OpGetparam, Dst: iloc.IntReg(1), Imm: 0},
		{Op: iloc.OpFgetparam, Dst: iloc.FltReg(1), Imm: 1},
		iloc.MakeMov(iloc.IntReg(1), iloc.FP), // copy of fp
	}
	for _, in := range yes {
		if !NeverKilled(in) {
			t.Errorf("%s should be never-killed", InstTag(in))
		}
	}
	no := []*iloc.Instr{
		iloc.MakeImm(iloc.OpAddi, iloc.IntReg(1), iloc.IntReg(2), 8), // varying operand
		iloc.MakeBin(iloc.OpAdd, iloc.IntReg(1), iloc.IntReg(2), iloc.IntReg(3)),
		iloc.MakeUn(iloc.OpLoad, iloc.IntReg(1), iloc.FP), // plain load, even fp-based
		iloc.MakeMov(iloc.IntReg(1), iloc.IntReg(2)),      // ordinary copy: ⊤ initially
	}
	for _, in := range no {
		if NeverKilled(in) {
			t.Errorf("%s %v must not be never-killed", in.Op, in.Src)
		}
	}
}

// The Figure 1 example: p's live range has three values — lda (inst),
// p+8 (⊥) and their φ merge (⊥).
func TestFig1Tags(t *testing.T) {
	_, g, tags := buildAndTag(t, `
routine fig1(r9)
data arr rw 64
data lab ro 8 = 42
entry:
    getparam r9, 0
    lda r1, lab
    fldi f1, 0.0
    ldi r2, 0
    jmp loop1
loop1:
    fload f2, r1
    fadd f1, f1, f2
    addi r2, r2, 1
    sub r3, r9, r2
    br gt r3, loop1, mid
mid:
    ldi r4, 0
    jmp loop2
loop2:
    fload f3, r1
    fadd f1, f1, f3
    addi r1, r1, 8
    addi r4, r4, 1
    sub r5, r9, r4
    br gt r5, loop2, done
done:
    retf f1
`, iloc.ClassInt)

	var ldaVal, addiPVal, phiPVal int
	for v := 1; v < g.NumValues; v++ {
		d := g.DefOf[v]
		switch {
		case d.Op == iloc.OpLda:
			ldaVal = v
		case d.Op == iloc.OpAddi && d.Imm == 8:
			addiPVal = v
		case d.Op == iloc.OpPhi && g.OrigOf[v] == 1:
			phiPVal = v
		}
	}
	if ldaVal == 0 || addiPVal == 0 || phiPVal == 0 {
		t.Fatal("could not locate p's three values")
	}
	if tags[ldaVal].Kind != Inst {
		t.Errorf("lda value tag = %v, want inst", tags[ldaVal])
	}
	if tags[addiPVal].Kind != Bottom {
		t.Errorf("p+8 value tag = %v, want ⊥", tags[addiPVal])
	}
	if tags[phiPVal].Kind != Bottom {
		t.Errorf("φ(p) tag = %v, want ⊥", tags[phiPVal])
	}
	// The getparam value is never-killed.
	for v := 1; v < g.NumValues; v++ {
		if g.DefOf[v].Op == iloc.OpGetparam && tags[v].Kind != Inst {
			t.Errorf("getparam tag = %v, want inst", tags[v])
		}
	}
	// No value remains ⊤.
	for v := 1; v < g.NumValues; v++ {
		if tags[v].Kind == Top {
			t.Errorf("value %d stuck at ⊤ (%s)", v, g.Routine.InstrString(g.DefOf[v]))
		}
	}
}

// A φ merging two loads of the same immediate is itself never-killed.
func TestPhiOfEqualInstsIsInst(t *testing.T) {
	_, g, tags := buildAndTag(t, `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 7
    jmp join
b:
    ldi r2, 7
    jmp join
join:
    retr r2
`, iloc.ClassInt)
	for v := 1; v < g.NumValues; v++ {
		if g.DefOf[v].Op == iloc.OpPhi {
			if tags[v].Kind != Inst {
				t.Fatalf("φ of two ldi 7 = %v, want inst", tags[v])
			}
			if tags[v].Imm != 7 {
				t.Fatal("wrong remat instruction")
			}
			return
		}
	}
	t.Fatal("no φ found")
}

func TestPhiOfDifferentInstsIsBottom(t *testing.T) {
	_, g, tags := buildAndTag(t, `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 7
    jmp join
b:
    ldi r2, 8
    jmp join
join:
    retr r2
`, iloc.ClassInt)
	for v := 1; v < g.NumValues; v++ {
		if g.DefOf[v].Op == iloc.OpPhi {
			if tags[v].Kind != Bottom {
				t.Fatalf("φ of ldi 7/ldi 8 = %v, want ⊥", tags[v])
			}
			return
		}
	}
	t.Fatal("no φ found")
}

// Copies take the tag of their source, through chains.
func TestCopyChainPropagation(t *testing.T) {
	_, g, tags := buildAndTag(t, `
routine f()
data tab ro 4
entry:
    lda r1, tab
    mov r2, r1
    mov r3, r2
    load r4, r3
    mov r5, r4
    retr r5
`, iloc.ClassInt)
	for v := 1; v < g.NumValues; v++ {
		d := g.DefOf[v]
		want := Inst
		if d.Op == iloc.OpLoad || (d.Op == iloc.OpMov && d.Src[0].N == 4) {
			want = Bottom
		}
		if d.Op == iloc.OpMov && g.OrigOf[v] == 5 {
			want = Bottom // copy of the loaded value
		}
		if tags[v].Kind != want {
			t.Errorf("value %d (%s): tag %v, want kind %d", v, g.Routine.InstrString(d), tags[v], want)
		}
	}
	_ = g
}

// Loop-carried φ where the body redefines the value with the same
// never-killed instruction: stays inst around the cycle.
func TestLoopCarriedEqualInst(t *testing.T) {
	_, g, tags := buildAndTag(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 5
    ldi r3, 0
    jmp loop
loop:
    add r5, r2, r3    ; r2 upward-exposed: live around the loop
    addi r3, r3, 1
    ldi r2, 5         ; redefined with the same never-killed instruction
    sub r4, r1, r3
    br gt r4, loop, done
done:
    retr r5
`, iloc.ClassInt)
	for v := 1; v < g.NumValues; v++ {
		if g.DefOf[v].Op == iloc.OpPhi && g.OrigOf[v] == 2 {
			if tags[v].Kind != Inst {
				t.Fatalf("φ(ldi5, ldi5) = %v, want inst", tags[v])
			}
			return
		}
	}
	// The φ for r2 may be pruned if liveness says it is dead; it is not.
	t.Fatal("φ for r2 not found")
}

func TestTagString(t *testing.T) {
	if TopTag().String() != "⊤" || BottomTag().String() != "⊥" {
		t.Fatal("lattice extremes print wrong")
	}
	s := InstTag(iloc.MakeLdi(iloc.IntReg(3), 42)).String()
	if s != "inst(ldi 42)" {
		t.Fatalf("inst tag string = %q", s)
	}
}

func TestRematerializable(t *testing.T) {
	if TopTag().Rematerializable() || BottomTag().Rematerializable() {
		t.Fatal("⊤/⊥ are not rematerializable")
	}
	if !InstTag(iloc.MakeLdi(iloc.IntReg(1), 0)).Rematerializable() {
		t.Fatal("inst tag is rematerializable")
	}
}

// randomTag builds an arbitrary lattice element from quick's raw values.
func randomTag(kind uint8, op uint8, imm int64) Tag {
	switch kind % 3 {
	case 0:
		return TopTag()
	case 1:
		return BottomTag()
	default:
		ops := []*iloc.Instr{
			iloc.MakeLdi(iloc.IntReg(1), imm%5),
			iloc.MakeFldi(iloc.FltReg(1), float64(imm%3)),
			iloc.MakeLda(iloc.IntReg(1), 0),
			iloc.MakeImm(iloc.OpAddi, iloc.IntReg(1), iloc.FP, imm%7),
		}
		return InstTag(ops[int(op)%len(ops)])
	}
}

// Lattice laws: meet is commutative, associative, idempotent; ⊤ is the
// identity and ⊥ the absorbing element.
func TestQuickMeetLatticeLaws(t *testing.T) {
	f := func(k1, o1 uint8, i1 int64, k2, o2 uint8, i2 int64, k3, o3 uint8, i3 int64) bool {
		a, b, c := randomTag(k1, o1, i1), randomTag(k2, o2, i2), randomTag(k3, o3, i3)
		if !Equal(Meet(a, b), Meet(b, a)) {
			return false
		}
		if !Equal(Meet(Meet(a, b), c), Meet(a, Meet(b, c))) {
			return false
		}
		if !Equal(Meet(a, a), a) {
			return false
		}
		if !Equal(Meet(a, TopTag()), a) {
			return false
		}
		return Meet(a, BottomTag()).Kind == Bottom
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity: meeting with anything never raises the lattice level.
func TestQuickMeetMonotone(t *testing.T) {
	level := func(x Tag) int { return int(x.Kind) } // Top=0 < Inst=1 < Bottom=2
	f := func(k1, o1 uint8, i1 int64, k2, o2 uint8, i2 int64) bool {
		a, b := randomTag(k1, o1, i1), randomTag(k2, o2, i2)
		m := Meet(a, b)
		return level(m) >= level(a) && level(m) >= level(b) || m.Kind == Bottom
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
