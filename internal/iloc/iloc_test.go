package iloc

import (
	"strings"
	"testing"
)

const sampleSrc = `
routine sumabs(r1, r2)   ; r1 = base pointer param, r2 = count param
data tab ro 2 = 1.5 -2.5
entry:
    ldi r3, 8
    add r4, r1, r3
    fldi f1, 0.0
    jmp loop
loop:
    floadao f2, r3, r4
    fabs f2, f2
    fadd f1, f1, f2
    addi r3, r3, 8
    sub r5, r2, r3
    br ge r5, loop, done
done:
    retf f1
`

func TestParseBasics(t *testing.T) {
	rt, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name != "sumabs" {
		t.Fatalf("name = %q", rt.Name)
	}
	if len(rt.Params) != 2 {
		t.Fatalf("params = %d", len(rt.Params))
	}
	if len(rt.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(rt.Blocks))
	}
	if l := rt.Labels[rt.Blocks[1].Label]; l != "loop" {
		t.Fatalf("block 1 label = %q", l)
	}
	if got := len(rt.Blocks[1].Instrs); got != 6 {
		t.Fatalf("loop has %d instrs", got)
	}
	if rt.NumRegs(ClassInt) != 6 {
		t.Fatalf("int regs = %d, want 6", rt.NumRegs(ClassInt))
	}
	if rt.NumRegs(ClassFlt) != 3 {
		t.Fatalf("flt regs = %d, want 3", rt.NumRegs(ClassFlt))
	}
	d := rt.DataByLabel("tab")
	if d == nil || !d.ReadOnly || d.Words != 2 || len(d.Init) != 2 || !d.IsFloat {
		t.Fatalf("data tab = %+v", d)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	rt, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(rt)
	rt2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Print(rt2) != text {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", text, Print(rt2))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no header", "entry:\n  ret\n", "before routine header"},
		{"empty file", "", "no routine header"},
		{"dup header", "routine a()\nroutine b()\nx:\n ret\n", "duplicate routine"},
		{"unknown op", "routine a()\nx:\n frobnicate r1\n", "unknown op"},
		{"bad reg class", "routine a()\nx:\n add r1, r2, f3\n ret\n", "class"},
		{"write fp", "routine a()\nx:\n ldi fp, 3\n ret\n", "fp is not writable"},
		{"r0 reserved", "routine a()\nx:\n mov r1, r0\n ret\n", "reserved"},
		{"after terminator", "routine a()\nx:\n ret\n nop\n", "after terminator"},
		{"dup label", "routine a()\nx:\nx:\n ret\n", "duplicate label"},
		{"trailing operand", "routine a()\nx:\n ldi r1, 2, 3\n ret\n", "trailing"},
		{"missing operand", "routine a()\nx:\n add r1, r2\n ret\n", "missing operand"},
		{"bad imm", "routine a()\nx:\n ldi r1, zap\n ret\n", "bad immediate"},
		{"bad cond", "routine a()\nx:\n br zz r1, a, b\n ret\n", "unknown condition"},
		{"phi rejected", "routine a()\nx:\n phi r1, r2\n ret\n", "phi"},
		{"dup data", "routine a()\ndata t ro 1\ndata t ro 1\nx:\n ret\n", "duplicate data"},
		{"data too many init", "routine a()\ndata t ro 1 = 1 2\nx:\n ret\n", "initializers"},
		{"fp param", "routine a(fp)\nx:\n ret\n", "fp cannot be a parameter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestFPOperandAllowed(t *testing.T) {
	rt, err := Parse("routine a()\nx:\n addi r1, fp, 8\n load r2, r1\n retr r2\n")
	if err != nil {
		t.Fatal(err)
	}
	in := rt.Blocks[0].Instrs[0]
	if !in.Src[0].IsFP() {
		t.Fatalf("src0 = %v, want fp", in.Src[0])
	}
	if s := rt.InstrString(in); s != "addi r1, fp, 8" {
		t.Fatalf("String = %q", s)
	}
}

func TestInstrString(t *testing.T) {
	rt := &Routine{Labels: []string{"tab", "a", "b", "top", "t"}}
	phi := rt.NewPhi(IntReg(3), 2)
	copy(rt.PhiArgs(&phi), []Reg{IntReg(1), IntReg(2)})
	cases := []struct {
		in   *Instr
		want string
	}{
		{MakeLdi(IntReg(4), 42), "ldi r4, 42"},
		{MakeFldi(FltReg(2), 1.5), "fldi f2, 1.5"},
		{MakeFldi(FltReg(2), 3), "fldi f2, 3.0"},
		{MakeLda(IntReg(1), 0), "lda r1, tab"},
		{MakeMov(IntReg(1), IntReg(2)), "mov r1, r2"},
		{MakeMov(FltReg(1), FltReg(2)), "fmov f1, f2"},
		{MakeBin(OpAdd, IntReg(3), IntReg(1), IntReg(2)), "add r3, r1, r2"},
		{&Instr{Op: OpBr, Cond: CondGE, Src: [2]Reg{IntReg(7), NoReg}, Label: 1, Label2: 2}, "br ge r7, a, b"},
		{&Instr{Op: OpJmp, Label: 3}, "jmp top"},
		{&Instr{Op: OpRet}, "ret"},
		{&Instr{Op: OpRload, Dst: IntReg(2), Label: 4, Imm: 8}, "rload r2, t, 8"},
		{&phi, "phi r3, r1, r2"},
	}
	for _, c := range cases {
		if got := rt.InstrString(c.in); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestSplitSpillMarkersPrint(t *testing.T) {
	rt := new(Routine)
	in := MakeMov(IntReg(1), IntReg(2))
	in.IsSplit = true
	if s := rt.InstrString(in); !strings.Contains(s, "; split") {
		t.Fatalf("split marker missing: %q", s)
	}
	in2 := MakeLdi(IntReg(1), 0)
	in2.IsSpill = true
	if s := rt.InstrString(in2); !strings.Contains(s, "; spill") {
		t.Fatalf("spill marker missing: %q", s)
	}
}

func TestUsesAndDef(t *testing.T) {
	rt := new(Routine)
	add := MakeBin(OpAdd, IntReg(3), IntReg(1), IntReg(2))
	if u := rt.Uses(add); len(u) != 2 || u[0] != IntReg(1) || u[1] != IntReg(2) {
		t.Fatalf("Uses = %v", u)
	}
	if add.Def() != IntReg(3) {
		t.Fatalf("Def = %v", add.Def())
	}
	st := MakeBin(OpStore, NoReg, IntReg(1), IntReg(2))
	if st.Def().Valid() {
		t.Fatal("store has no def")
	}
	phi := rt.NewPhi(IntReg(3), 2)
	if u := rt.Uses(&phi); len(u) != 2 {
		t.Fatalf("phi Uses = %v", u)
	}
	if phi.Def() != IntReg(3) {
		t.Fatalf("phi Def = %v", phi.Def())
	}
}

func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		v    int64
		want bool
	}{
		{CondLT, -1, true}, {CondLT, 0, false},
		{CondLE, 0, true}, {CondLE, 1, false},
		{CondGT, 1, true}, {CondGT, 0, false},
		{CondGE, 0, true}, {CondGE, -1, false},
		{CondEQ, 0, true}, {CondEQ, 2, false},
		{CondNE, 2, true}, {CondNE, 0, false},
		{CondNone, 0, false},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.v); got != c.want {
			t.Errorf("%v.Holds(%d) = %v", c.c, c.v, got)
		}
	}
}

func TestOpMetadata(t *testing.T) {
	if !OpLdi.RematCandidate() || !OpLda.RematCandidate() || !OpFldi.RematCandidate() {
		t.Fatal("immediate loads must be remat candidates")
	}
	if !OpAddi.RematCandidate() {
		t.Fatal("addi must be a remat candidate (fp-relative)")
	}
	if OpAdd.RematCandidate() || OpLoad.RematCandidate() {
		t.Fatal("add/load must not be remat candidates")
	}
	if !OpLoad.IsLoad() || !OpStore.IsStore() || !OpStore.IsMem() {
		t.Fatal("memory flags wrong")
	}
	if !OpMov.IsCopy() || !OpFmov.IsCopy() || OpAdd.IsCopy() {
		t.Fatal("copy flags wrong")
	}
	if !OpBr.IsTerminator() || !OpJmp.IsTerminator() || !OpRet.IsTerminator() || !OpRetf.IsTerminator() {
		t.Fatal("terminator flags wrong")
	}
	if OpAdd.IsTerminator() {
		t.Fatal("add is not a terminator")
	}
	if !OpGetparam.RematCandidate() || !OpGetparam.IsLoad() {
		t.Fatal("getparam should be a remat-able load")
	}
	if !OpRload.RematCandidate() || !OpRload.IsLoad() {
		t.Fatal("rload should be a remat-able load")
	}
}

func TestOpFromString(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpFromString(op.String())
		if !ok || got != op {
			t.Fatalf("OpFromString(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpFromString("bogus"); ok {
		t.Fatal("bogus op resolved")
	}
}

func TestVerifyCatchesBadRoutines(t *testing.T) {
	good := MustParse(sampleSrc)
	if err := Verify(good, false); err != nil {
		t.Fatalf("good routine failed verify: %v", err)
	}

	mutate := func(f func(rt *Routine)) *Routine {
		rt := good.Clone()
		f(rt)
		return rt
	}
	// Verify builds its location prefix only on failure; the wants pin
	// the whole message byte for byte.
	cases := []struct {
		name string
		rt   *Routine
		want string
	}{
		{"unknown branch target", mutate(func(rt *Routine) { rt.Blocks[1].Instrs[5].Label = NewLabelIndex(rt).Intern("nowhere") }),
			`sumabs/loop[5] "br ge r5, nowhere, done": branch to unknown label`},
		{"missing terminator", mutate(func(rt *Routine) {
			last := rt.Blocks[len(rt.Blocks)-1]
			last.Instrs = last.Instrs[:0]
		}), `sumabs: final block done does not end in a terminator`},
		{"φ outside SSA", mutate(func(rt *Routine) {
			phi := rt.NewPhi(IntReg(3), 2)
			rt.Blocks[1].Instrs = append([]*Instr{&phi}, rt.Blocks[1].Instrs...)
		}), `sumabs/loop[0] "phi r3, r3, r3": φ outside SSA form`},
		{"register out of range", mutate(func(rt *Routine) { rt.Blocks[0].Instrs[0].Dst = IntReg(99) }),
			`sumabs/entry[0] "ldi r99, 8": dst: register r99 outside virtual space [0,6)`},
		{"rload from rw data", MustParse("routine a()\ndata t rw 2\nx:\n rload r1, t, 0\n retr r1\n"),
			`a/x[0] "rload r1, t, 0": rload from writable data "t"`},
		{"bad param index", MustParse("routine a(r1)\nx:\n getparam r2, 5\n retr r2\n"),
			`a/x[0] "getparam r2, 5": parameter index 5 out of range`},
	}
	for _, c := range cases {
		err := Verify(c.rt, false)
		if err == nil {
			t.Errorf("%s: not caught", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rt := MustParse(sampleSrc)
	c := rt.Clone()
	c.Blocks[0].Instrs[0].Imm = 999
	if rt.Blocks[0].Instrs[0].Imm == 999 {
		t.Fatal("clone shares instructions")
	}
	c.Data[0].Init[0] = 42
	if rt.Data[0].Init[0] == 42 {
		t.Fatal("clone shares data")
	}
	// Clone preserves block count and labels.
	if len(c.Blocks) != len(rt.Blocks) {
		t.Fatal("clone block count differs")
	}
}

func TestBuilderMatchesParser(t *testing.T) {
	b := NewBuilder("sumabs")
	p1 := b.IntParam()
	p2 := b.IntParam()
	b.Data("tab", true, 2, true, 1.5, -2.5)
	r3, r4, r5 := b.Int(), b.Int(), b.Int()
	f1, f2 := b.Flt(), b.Flt()
	b.Block("entry")
	b.Ldi(r3, 8)
	b.Add(r4, p1, r3)
	b.Fldi(f1, 0.0)
	b.Jmp("loop")
	b.Block("loop")
	b.Floadao(f2, r3, r4)
	b.Fabs(f2, f2)
	b.Fadd(f1, f1, f2)
	b.Addi(r3, r3, 8)
	b.Sub(r5, p2, r3)
	b.Br(CondGE, r5, "loop", "done")
	b.Block("done")
	b.Retf(f1)
	rt := b.Routine()

	want := MustParse(sampleSrc)
	// The sample uses r2 (the count param) in "sub r5, r2, r3"; builder
	// used p2 which is also r2 — texts should match exactly.
	if Print(rt) != Print(want) {
		t.Fatalf("builder output differs:\n%s\nvs\n%s", Print(rt), Print(want))
	}
	if err := Verify(rt, false); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsAfterTerminator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("x")
	b.Block("entry")
	b.Ret()
	b.Ldi(b.Int(), 0)
}

func TestBlockHelpers(t *testing.T) {
	rt := MustParse(sampleSrc)
	loop := rt.BlockByLabel("loop")
	if loop.Terminator() == nil || loop.Terminator().Op != OpBr {
		t.Fatal("terminator wrong")
	}
	n := len(loop.Instrs)
	loop.AppendBeforeTerminator(MakeLdi(IntReg(3), 1))
	if len(loop.Instrs) != n+1 {
		t.Fatal("insert failed")
	}
	if loop.Instrs[len(loop.Instrs)-1].Op != OpBr {
		t.Fatal("terminator no longer last")
	}
	if loop.Instrs[len(loop.Instrs)-2].Op != OpLdi {
		t.Fatal("instr not before terminator")
	}

	done := rt.BlockByLabel("done")
	done.Instrs = nil
	done.AppendBeforeTerminator(MakeLdi(IntReg(3), 1))
	if len(done.Instrs) != 1 {
		t.Fatal("append into empty block failed")
	}
}

func TestFreshLabel(t *testing.T) {
	rt := MustParse(sampleSrc)
	x := NewLabelIndex(rt)
	if l := rt.Labels[x.FreshBlockLabel("newblk")]; l != "newblk" {
		t.Fatalf("FreshBlockLabel = %q", l)
	}
	if l := rt.Labels[x.FreshBlockLabel("loop")]; l != "loop.1" || rt.BlockByLabel(l) != nil {
		t.Fatalf("FreshBlockLabel collided: %q", l)
	}
	if l := rt.Labels[x.FreshBlockLabel("newblk")]; l != "newblk.1" {
		t.Fatalf("FreshBlockLabel reused a label it handed out: %q", l)
	}
}

func TestNewRegStartsAtOne(t *testing.T) {
	rt := &Routine{Name: "x"}
	r := rt.NewReg(ClassInt)
	if r.N != 1 {
		t.Fatalf("first vreg = %d, want 1 (0 is reserved)", r.N)
	}
	f := rt.NewReg(ClassFlt)
	if f.N != 1 {
		t.Fatalf("first f vreg = %d, want 1", f.N)
	}
}

func TestParseProgram(t *testing.T) {
	rts, err := ParseProgram(`
routine main(r1)
entry:
    getparam r1, 0
    setarg r1, 0
    call leaf
    getret r2
    retr r2

routine leaf(r1)
entry:
    getparam r1, 0
    addi r2, r1, 1
    retr r2
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rts) != 2 || rts[0].Name != "main" || rts[1].Name != "leaf" {
		t.Fatalf("program parse wrong: %d routines", len(rts))
	}
	for _, rt := range rts {
		if err := Verify(rt, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseProgram("nothing here"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseProgram("routine a()\nx:\n ret\nroutine a()\ny:\n ret\n"); err == nil {
		t.Fatal("duplicate routine names accepted")
	}
}

// TestBuilderAllHelpers drives every Builder shorthand once and checks
// the result verifies and round-trips.
func TestBuilderAllHelpers(t *testing.T) {
	b := NewBuilder("allops")
	p := b.IntParam()
	fpm := b.FltParam()
	b.Data("bt", true, 2, false, 3, 4)
	b.Data("bw", false, 2, true)
	r1, r2, r3 := b.Int(), b.Int(), b.Int()
	f1, f2 := b.Flt(), b.Flt()

	b.Block("entry")
	b.Getparam(p, 0)
	b.Fgetparam(fpm, 1)
	b.Ldi(r1, 5)
	b.Lda(r2, "bt")
	b.Mov(r3, r1)
	b.Add(r3, r3, r1)
	b.Sub(r3, r3, r1)
	b.Mul(r3, r3, r1)
	b.Div(r3, r3, r1)
	b.Addi(r3, r3, 1)
	b.Subi(r3, r3, 1)
	b.Muli(r3, r3, 2)
	b.Load(r3, r2)
	b.Loadai(r3, r2, 8)
	b.Loadao(r3, r2, r1)
	b.Fldi(f1, 1.5)
	b.Fadd(f2, f1, f1)
	b.Fsub(f2, f2, f1)
	b.Fmul(f2, f2, f1)
	b.Fdiv(f2, f2, f1)
	b.Fabs(f2, f2)
	b.Fload(f2, r2)
	b.Floadai(f2, r2, 8)
	b.Floadao(f2, r2, r1)
	r4 := b.Int()
	b.Lda(r4, "bw")
	b.Store(r1, r4)
	b.Storeai(r1, r4, 8)
	b.Fstore(f2, r4)
	b.Fstoreai(f2, r4, 8)
	b.Br(CondGT, r3, "yes", "no")
	b.Block("yes")
	b.Retr(r3)
	b.Block("no")
	b.Jmp("fin")
	b.Block("fin")
	b.Retf(f2)
	rt := b.Routine()

	if err := Verify(rt, false); err != nil {
		t.Fatalf("builder output invalid: %v\n%s", err, Print(rt))
	}
	if _, err := Parse(Print(rt)); err != nil {
		t.Fatalf("builder output does not reparse: %v", err)
	}
	// Block() re-entry appends to an existing block.
	b2 := NewBuilder("reenter")
	b2.Block("entry")
	b2.Ldi(b2.Int(), 1)
	b2.Block("entry")
	b2.Ret()
	rt2 := b2.Routine()
	if len(rt2.Blocks) != 1 || len(rt2.Blocks[0].Instrs) != 2 {
		t.Fatal("Block re-entry should continue the same block")
	}
}
