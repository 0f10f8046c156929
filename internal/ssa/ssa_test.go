package ssa

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
)

func buildSSA(t *testing.T, src string, c iloc.Class) (*iloc.Routine, *Graph) {
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
	g, err := Build(rt, c, tree, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := iloc.Verify(rt, true); err != nil {
		t.Fatalf("post-SSA verify: %v\n%s", err, iloc.Print(rt))
	}
	return rt, g
}

func countPhis(rt *iloc.Routine) int {
	n := 0
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Op == iloc.OpPhi {
			n++
		}
	})
	return n
}

// The paper's Figure 1/3 example: p is constant in the first loop and
// varying in the second; SSA should create exactly one φ for p, at the
// head of the second loop.
const fig1Src = `
routine fig1(r9)
data arr rw 64
data lab ro 8 = 42
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
    addi r1, r1, 8    ; p <- p + 1 (words)
    addi r4, r4, 1
    sub r5, r9, r4
    br gt r5, loop2, done
done:
    retf f1
`

func TestFig1PhiPlacement(t *testing.T) {
	rt, g := buildSSA(t, fig1Src, iloc.ClassInt)
	// φs for int class: p at loop2 head; r2 at loop1 head; r4 at loop2 head.
	var phiBlocks []string
	rt.ForEachInstr(func(b *iloc.Block, _ int, in *iloc.Instr) {
		if in.Op == iloc.OpPhi {
			phiBlocks = append(phiBlocks, rt.Labels[b.Label])
		}
	})
	// loop1: φ for r2 (loop counter). loop2: φ for p (r1) and r4.
	want := map[string]int{"loop1": 1, "loop2": 2}
	got := map[string]int{}
	for _, l := range phiBlocks {
		got[l]++
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("φ count at %s = %d, want %d (all: %v)", l, got[l], n, phiBlocks)
		}
	}
	if len(phiBlocks) != 3 {
		t.Errorf("total φs = %d, want 3", len(phiBlocks))
	}
	// No φ for p at loop1's head: p is not redefined before it.
	loop1 := rt.BlockByLabel("loop1")
	for _, in := range loop1.Instrs {
		if in.Op == iloc.OpPhi && g.OrigOf[in.Dst.N] == 1 {
			t.Error("p must not get a φ at loop1 (single reaching def)")
		}
	}
}

func TestSingleAssignmentProperty(t *testing.T) {
	for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
		rt, g := buildSSA(t, fig1Src, c)
		defs := map[int]int{}
		rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				defs[int(d.N)]++
			}
		})
		for v, n := range defs {
			if n != 1 {
				t.Errorf("class %v value %d has %d defs", c, v, n)
			}
		}
		if len(defs) != g.NumValues-1 {
			t.Errorf("class %v: %d defs for %d values", c, len(defs), g.NumValues-1)
		}
	}
}

func TestDefUseChains(t *testing.T) {
	rt, g := buildSSA(t, fig1Src, iloc.ClassInt)
	// Every use in the code must be recorded, and every recorded use real.
	count := map[int]int{}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		for _, u := range rt.Uses(in) {
			if u.Class == iloc.ClassInt && u.N != 0 {
				count[int(u.N)]++
			}
		}
	})
	for v := 1; v < g.NumValues; v++ {
		if len(g.UsesOf[v]) != count[v] {
			t.Errorf("value %d: chain has %d uses, code has %d", v, len(g.UsesOf[v]), count[v])
		}
		if g.DefOf[v] == nil {
			t.Errorf("value %d has no def record", v)
		}
	}
}

func TestPrunedNoDeadPhis(t *testing.T) {
	// r2 dies before the join; a pruned SSA must not insert a φ for it.
	rt, _ := buildSSA(t, `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 1
    storeai r2, fp, 0
    jmp join
b:
    ldi r2, 2
    storeai r2, fp, 0
    jmp join
join:
    retr r1
`, iloc.ClassInt)
	if n := countPhis(rt); n != 0 {
		t.Fatalf("dead φ inserted: %d φs\n%s", n, iloc.Print(rt))
	}
}

func TestLivePhiInserted(t *testing.T) {
	rt, g := buildSSA(t, `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 1
    jmp join
b:
    ldi r2, 2
    jmp join
join:
    retr r2
`, iloc.ClassInt)
	if n := countPhis(rt); n != 1 {
		t.Fatalf("φs = %d, want 1", n)
	}
	join := rt.BlockByLabel("join")
	phi := join.Instrs[0]
	if phi.Op != iloc.OpPhi {
		t.Fatal("φ not at head of join")
	}
	args := rt.PhiArgs(phi)
	if len(args) != 2 {
		t.Fatalf("φ arity = %d", len(args))
	}
	// Arguments must be the two distinct values from the arms.
	a0, a1 := args[0].N, args[1].N
	if a0 == a1 {
		t.Fatal("φ args should differ")
	}
	if g.DefOf[a0].Op != iloc.OpLdi || g.DefOf[a1].Op != iloc.OpLdi {
		t.Fatal("φ args should be the ldi values")
	}
	// The return must use the φ result.
	ret := join.Instrs[len(join.Instrs)-1]
	if ret.Src[0].N != phi.Dst.N {
		t.Fatalf("retr uses %v, want φ result %v", ret.Src[0], phi.Dst)
	}
}

func TestUseOfUndefinedRegister(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
entry:
    retr r1
`)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	tree := dom.Compute(rt)
	live := liveness.Compute(rt, iloc.ClassInt)
	_, err := Build(rt, iloc.ClassInt, tree, live)
	if err == nil {
		t.Fatal("use of undefined register not reported")
	}
	if want := "ssa: use of undefined register r1 at entry"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// A build that fails while renaming leaves a graph Forget can still
// clear: on a new graph the def tables then outrun the uncarved use
// tables.
func TestForgetAfterFailedBuild(t *testing.T) {
	rt := iloc.MustParse(`
routine f()
entry:
    ldi r2, 1
    retr r1
`)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	tree := dom.Compute(rt)
	live := liveness.Compute(rt, iloc.ClassInt)
	g := new(Graph)
	gs := [iloc.NumClasses]*Graph{iloc.ClassInt: g}
	lives := [iloc.NumClasses]*liveness.Info{iloc.ClassInt: live}
	if err := BuildAllInto(&gs, rt, tree, dom.Frontiers(tree, rt), &lives); err == nil {
		t.Fatal("use of undefined register not reported")
	}
	g.Forget()
	if g.Routine != nil || len(g.DefOf) != 0 {
		t.Fatalf("Forget left Routine %v and %d values", g.Routine, len(g.DefOf))
	}
}

// A register defined on one path only reaches the join through a φ
// whose argument from the other path has no definition; the error names
// the φ's block.
func TestUseOfUndefinedRegisterInPhi(t *testing.T) {
	rt := iloc.MustParse(`
routine f(r2)
entry:
    getparam r2, 0
    br gt r2, a, b
a:
    ldi r1, 1
    jmp c
b:
    jmp c
c:
    retr r1
`)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	tree := dom.Compute(rt)
	live := liveness.Compute(rt, iloc.ClassInt)
	_, err := Build(rt, iloc.ClassInt, tree, live)
	if err == nil {
		t.Fatal("undefined φ argument not reported")
	}
	if want := "ssa: use of undefined register r1 at c(φ)"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestLoopCarriedPhiArgs(t *testing.T) {
	rt, g := buildSSA(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    jmp loop
loop:
    addi r2, r2, 1
    sub r3, r1, r2
    br gt r3, loop.x.loop, done
loop.x.loop:
    jmp loop
done:
    retr r2
`, iloc.ClassInt)
	// One φ for r2 at loop head (r1 has one def; r3 dead across loop head).
	loop := rt.BlockByLabel("loop")
	var phi *iloc.Instr
	for _, in := range loop.Instrs {
		if in.Op == iloc.OpPhi {
			if phi != nil {
				t.Fatal("more than one φ at loop")
			}
			phi = in
		}
	}
	if phi == nil {
		t.Fatal("no φ at loop head")
	}
	// One arg comes from entry's ldi, the other from the addi in the loop.
	ops := map[iloc.Op]bool{}
	for _, a := range rt.PhiArgs(phi) {
		ops[g.DefOf[a.N].Op] = true
	}
	if !ops[iloc.OpLdi] || !ops[iloc.OpAddi] {
		t.Fatalf("φ args come from %v, want ldi+addi", ops)
	}
}

func TestOtherClassUntouched(t *testing.T) {
	rt, _ := buildSSA(t, fig1Src, iloc.ClassInt)
	// Float registers keep their original numbers after int-class SSA.
	seen := map[int]bool{}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if d := in.Def(); d.Valid() && d.Class == iloc.ClassFlt {
			seen[int(d.N)] = true
		}
	})
	for _, want := range []int{1, 2, 3} {
		if !seen[want] {
			t.Fatalf("float register f%d disappeared: %v", want, seen)
		}
	}
}
