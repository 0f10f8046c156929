package cfg

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/iloc"
)

// diamond: entry -> (left|right) -> join -> exit, with a loop around join.
const diamondSrc = `
routine diamond(r1)
entry:
    br gt r1, left, right
left:
    ldi r2, 1
    jmp join
right:
    ldi r2, 2
    jmp join
join:
    addi r2, r2, 1
    sub r3, r1, r2
    br gt r3, join, exit
exit:
    retr r2
`

const nestedLoopSrc = `
routine nested(r1)
entry:
    ldi r2, 0
    jmp outer
outer:
    ldi r3, 0
    jmp inner
inner:
    addi r3, r3, 1
    sub r4, r1, r3
    br gt r4, inner, after
after:
    addi r2, r2, 1
    sub r5, r1, r2
    br gt r5, outer, done
done:
    retr r2
`

func build(t *testing.T, src string) *iloc.Routine {
	t.Helper()
	rt := iloc.MustParse(src)
	if err := Build(rt); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestBuildEdges(t *testing.T) {
	rt := build(t, diamondSrc)
	get := rt.BlockByLabel
	entry, left, right, join, exit := get("entry"), get("left"), get("right"), get("join"), get("exit")
	if len(entry.Succs) != 2 || len(entry.Preds) != 0 {
		t.Fatalf("entry edges wrong: %d succs %d preds", len(entry.Succs), len(entry.Preds))
	}
	if len(join.Preds) != 3 { // left, right, join itself
		t.Fatalf("join preds = %d, want 3", len(join.Preds))
	}
	if len(join.Succs) != 2 {
		t.Fatalf("join succs = %d", len(join.Succs))
	}
	if len(exit.Succs) != 0 || len(exit.Preds) != 1 {
		t.Fatal("exit edges wrong")
	}
	if len(left.Succs) != 1 || left.Succs[0] != join || len(right.Succs) != 1 {
		t.Fatal("arm edges wrong")
	}
}

func TestBuildFallthrough(t *testing.T) {
	rt := build(t, `
routine f(r1)
a:
    ldi r2, 1
b:
    add r2, r2, r1
    retr r2
`)
	a, b := rt.BlockByLabel("a"), rt.BlockByLabel("b")
	if len(a.Succs) != 1 || a.Succs[0] != b {
		t.Fatal("fallthrough edge missing")
	}
}

func TestBuildDuplicateBranchTargetCollapsed(t *testing.T) {
	rt := build(t, `
routine f(r1)
a:
    br gt r1, b, b
b:
    retr r1
`)
	a := rt.BlockByLabel("a")
	if len(a.Succs) != 1 {
		t.Fatalf("duplicate-target br should have 1 succ, got %d", len(a.Succs))
	}
	if len(rt.BlockByLabel("b").Preds) != 1 {
		t.Fatal("dup edge in preds")
	}
}

func TestBuildPrunesUnreachable(t *testing.T) {
	rt := build(t, `
routine f(r1)
a:
    retr r1
dead:
    ldi r2, 1
    retr r2
`)
	if len(rt.Blocks) != 1 {
		t.Fatalf("unreachable block kept: %d blocks", len(rt.Blocks))
	}
	if rt.Blocks[0].Index != 0 {
		t.Fatal("reindex failed")
	}
}

func TestBuildErrors(t *testing.T) {
	rt := iloc.MustParse(diamondSrc)
	rt.Blocks[0].Instrs[0].Label = iloc.NewLabelIndex(rt).Intern("nope")
	if err := Build(rt); err == nil {
		t.Fatal("bad br target not caught")
	}
}

func TestReversePostorder(t *testing.T) {
	rt := build(t, diamondSrc)
	rpo := ReversePostorder(rt)
	if len(rpo) != len(rt.Blocks) {
		t.Fatalf("rpo covers %d of %d blocks", len(rpo), len(rt.Blocks))
	}
	pos := map[string]int{}
	for i, b := range rpo {
		pos[rt.Labels[b.Label]] = i
	}
	if pos["entry"] != 0 {
		t.Fatal("entry not first")
	}
	if pos["join"] < pos["left"] && pos["join"] < pos["right"] {
		t.Fatal("join precedes both arms in RPO")
	}
	if pos["exit"] != len(rpo)-1 {
		t.Fatalf("exit not last: %v", pos)
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// entry br -> (join has 3 preds) makes entry->? not critical (arms have
	// single pred each); join->join IS critical (join has 2 succs, join has
	// 3 preds); join->exit not critical (exit has 1 pred).
	rt := build(t, diamondSrc)
	n, err := SplitCriticalEdges(rt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("split %d edges, want 1 (the join->join back edge)", n)
	}
	// After splitting there must be no critical edges left.
	for _, b := range rt.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(s.Preds) > 1 {
				t.Fatalf("critical edge %s->%s remains", rt.Labels[b.Label], rt.Labels[s.Label])
			}
		}
	}
	if err := iloc.Verify(rt, false); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if n, _ := SplitCriticalEdges(rt); n != 0 {
		t.Fatalf("second split changed %d edges", n)
	}
}

func TestAnalyzeDepthsSimpleLoop(t *testing.T) {
	rt := iloc.MustParse(diamondSrc)
	_, loops, err := Analyze(rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if rt.Labels[loops[0].Header.Label] != "join" {
		t.Fatalf("loop header = %s", rt.Labels[loops[0].Header.Label])
	}
	for _, b := range rt.Blocks {
		want := 0
		if rt.Labels[b.Label] == "join" {
			want = 1
		}
		if b.Depth != want {
			t.Errorf("depth(%s) = %d, want %d", rt.Labels[b.Label], b.Depth, want)
		}
	}
}

func TestAnalyzeNestedLoops(t *testing.T) {
	rt := iloc.MustParse(nestedLoopSrc)
	_, loops, err := Analyze(rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	depth := map[string]int{}
	for _, b := range rt.Blocks {
		depth[rt.Labels[b.Label]] = b.Depth
	}
	if depth["inner"] != 2 {
		t.Errorf("inner depth = %d, want 2", depth["inner"])
	}
	if depth["outer"] != 1 || depth["after"] != 1 {
		t.Errorf("outer body depths = %d/%d, want 1/1", depth["outer"], depth["after"])
	}
	if depth["entry"] != 0 || depth["done"] != 0 {
		t.Error("blocks outside loops should have depth 0")
	}
	// Parent links.
	var inner, outer *Loop
	for _, l := range loops {
		switch rt.Labels[l.Header.Label] {
		case "inner":
			inner = l
		case "outer":
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("loop headers not found")
	}
	if inner.Parent != outer {
		t.Fatal("inner loop's parent should be outer loop")
	}
	if outer.Parent != nil {
		t.Fatal("outer loop should have no parent")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Fatalf("loop depths %d/%d", inner.Depth, outer.Depth)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	rt := build(t, diamondSrc)
	tree := dom.Compute(rt)
	idx := func(l string) int { return rt.BlockByLabel(l).Index }
	if tree.Idom[idx("entry")] != -1 {
		t.Fatal("entry must be root")
	}
	if tree.Idom[idx("join")] != idx("entry") {
		t.Fatalf("idom(join) = %d, want entry", tree.Idom[idx("join")])
	}
	if tree.Idom[idx("exit")] != idx("join") {
		t.Fatal("idom(exit) wrong")
	}
	if !tree.Dominates(idx("entry"), idx("exit")) {
		t.Fatal("entry should dominate exit")
	}
	if tree.Dominates(idx("left"), idx("join")) {
		t.Fatal("left must not dominate join")
	}
}

func TestDominanceFrontiers(t *testing.T) {
	rt := build(t, diamondSrc)
	tree := dom.Compute(rt)
	df := dom.Frontiers(tree, rt)
	idx := func(l string) int { return rt.BlockByLabel(l).Index }
	has := func(b, j int) bool {
		for _, x := range df[b] {
			if x == j {
				return true
			}
		}
		return false
	}
	if !has(idx("left"), idx("join")) || !has(idx("right"), idx("join")) {
		t.Fatal("join must be in DF of both arms")
	}
	// join is its own frontier member (loop header with back edge).
	if !has(idx("join"), idx("join")) {
		t.Fatal("join must be in its own DF")
	}
	if has(idx("entry"), idx("join")) {
		t.Fatal("entry strictly dominates join; join not in DF(entry)")
	}
}

func TestDomOrderCoversAll(t *testing.T) {
	rt := build(t, nestedLoopSrc)
	tree := dom.Compute(rt)
	if len(tree.Order) != len(rt.Blocks) {
		t.Fatalf("Order covers %d of %d", len(tree.Order), len(rt.Blocks))
	}
	// Children lists are consistent with Idom.
	count := 0
	for p, kids := range tree.Children {
		for _, k := range kids {
			if tree.Idom[k] != p {
				t.Fatalf("child %d of %d has idom %d", k, p, tree.Idom[k])
			}
			count++
		}
	}
	roots := 0
	for _, id := range tree.Idom {
		if id == -1 {
			roots++
		}
	}
	if count+roots != len(rt.Blocks) {
		t.Fatal("tree does not partition blocks")
	}
}

func TestCheckDefinedAcceptsGood(t *testing.T) {
	// diamondSrc/nestedLoopSrc use their parameter registers without an
	// explicit getparam (fine for CFG tests, not definite-assignment
	// clean); this source follows the convention.
	rt := build(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    br gt r1, a, b
a:
    addi r2, r2, 1
    jmp join
b:
    addi r2, r2, 2
    jmp join
join:
    sub r3, r1, r2
    br gt r3, join, done
done:
    retr r2
`)
	if err := CheckDefined(rt); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDefinedRejectsUseBeforeDef(t *testing.T) {
	rt := build(t, `
routine f()
a:
    retr r1
`)
	if err := CheckDefined(rt); err == nil {
		t.Fatal("use of undefined register accepted")
	}
}

func TestCheckDefinedRejectsOneArmedDef(t *testing.T) {
	// r2 defined only on the taken arm.
	rt := build(t, `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, a, b
a:
    ldi r2, 1
    jmp join
b:
    jmp join
join:
    retr r2
`)
	if err := CheckDefined(rt); err == nil {
		t.Fatal("partially defined register accepted")
	}
}

func TestCheckDefinedLoopCarried(t *testing.T) {
	// Defined in the loop body but used only after the loop: the loop
	// always executes its body at least zero times, so this must be
	// rejected (the zero-trip path never defines r3).
	rt := build(t, `
routine f(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    jmp head
head:
    sub r4, r2, r1
    br ge r4, exit, body
body:
    ldi r3, 9
    addi r2, r2, 1
    jmp head
exit:
    retr r3
`)
	if err := CheckDefined(rt); err == nil {
		t.Fatal("zero-trip-undefined register accepted")
	}
}

func TestCheckDefinedFPAlwaysOK(t *testing.T) {
	rt := build(t, `
routine f()
a:
    addi r1, fp, 8
    retr r1
`)
	if err := CheckDefined(rt); err != nil {
		t.Fatal(err)
	}
}
