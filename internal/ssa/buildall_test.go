package ssa_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/rgen"
	"repro/internal/ssa"
)

// prepared is a routine with what an SSA build needs.
type prepared struct {
	rt    *iloc.Routine
	tree  *dom.Tree
	df    [][]int
	lives [iloc.NumClasses]*liveness.Info
}

func prepare(t *testing.T, rt *iloc.Routine) *prepared {
	t.Helper()
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SplitCriticalEdges(rt); err != nil {
		t.Fatal(err)
	}
	p := &prepared{rt: rt, tree: dom.Compute(rt)}
	p.df = dom.Frontiers(p.tree, rt)
	p.lives = liveness.ComputeAll(rt)
	return p
}

// place names each instruction of rt by its block and position.
func place(rt *iloc.Routine) map[*iloc.Instr]string {
	at := map[*iloc.Instr]string{}
	for _, b := range rt.Blocks {
		for i, in := range b.Instrs {
			at[in] = fmt.Sprintf("%s:%d", rt.LabelText(b.Label), i)
		}
	}
	return at
}

// sameGraphs reports how the graphs of one class built over two copies
// of a routine differ: value count, each value's definition (by place)
// and original register, and each value's uses as a multiset of places.
func sameGraphs(x, y *ssa.Graph, xat, yat map[*iloc.Instr]string) error {
	if x.NumValues != y.NumValues {
		return fmt.Errorf("%d values, want %d", y.NumValues, x.NumValues)
	}
	if !slices.Equal(x.OrigOf, y.OrigOf) {
		return fmt.Errorf("OrigOf %v, want %v", y.OrigOf, x.OrigOf)
	}
	for v := 1; v < x.NumValues; v++ {
		if xat[x.DefOf[v]] != yat[y.DefOf[v]] {
			return fmt.Errorf("value %d defined at %s, want %s", v, yat[y.DefOf[v]], xat[x.DefOf[v]])
		}
		var xu, yu []string
		for _, in := range x.UsesOf[v] {
			xu = append(xu, xat[in])
		}
		for _, in := range y.UsesOf[v] {
			yu = append(yu, yat[in])
		}
		slices.Sort(xu)
		slices.Sort(yu)
		if !slices.Equal(xu, yu) {
			return fmt.Errorf("value %d used at %v, want %v", v, yu, xu)
		}
	}
	return nil
}

// checkBuildAll builds src's routine into SSA both ways — BuildInto per
// class in class order, stopping at the first error, and BuildAllInto
// — and reports how they differ: the error, the printed code with its
// φ-nodes, NextReg, and every class's graph.
func checkBuildAll(t *testing.T, name string, rt *iloc.Routine) {
	t.Helper()
	one, all := prepare(t, rt.Clone()), prepare(t, rt)
	var graphs [iloc.NumClasses]*ssa.Graph
	var oneErr error
	for c := range graphs {
		graphs[c] = new(ssa.Graph)
		if oneErr == nil {
			oneErr = ssa.BuildInto(graphs[c], one.rt, iloc.Class(c), one.tree, one.df, one.lives[iloc.Class(c)])
		}
	}
	fused := [iloc.NumClasses]*ssa.Graph{new(ssa.Graph), new(ssa.Graph)}
	allErr := ssa.BuildAllInto(&fused, all.rt, all.tree, all.df, &all.lives)
	if fmt.Sprint(oneErr) != fmt.Sprint(allErr) {
		t.Fatalf("%s: BuildAllInto error %v, BuildInto per class %v", name, allErr, oneErr)
	}
	if oneErr != nil {
		return
	}
	if got, want := iloc.Print(all.rt), iloc.Print(one.rt); got != want {
		t.Fatalf("%s: BuildAllInto gave\n%s\nBuildInto per class\n%s", name, got, want)
	}
	if all.rt.NextReg != one.rt.NextReg {
		t.Fatalf("%s: NextReg %v, want %v", name, all.rt.NextReg, one.rt.NextReg)
	}
	oneAt, allAt := place(one.rt), place(all.rt)
	for c := range graphs {
		if err := sameGraphs(graphs[c], fused[c], oneAt, allAt); err != nil {
			t.Fatalf("%s, class %d: %v", name, c, err)
		}
	}
}

// One renaming walk for both classes gives each class exactly the
// graph, φ-nodes and error that one BuildInto per class gives: over the
// property corpus, programs of both classes under pressure, and inputs
// whose uses are undefined in one class or both.
func TestBuildAllMatchesBuildInto(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfgs := []rgen.Config{{Regions: 5}, {Regions: 1 + int(seed%8), Pressure: 1 + int(seed%40)}, {MaxDepth: 3, Regions: 8}}
		for i, gc := range cfgs {
			checkBuildAll(t, fmt.Sprintf("seed %d config %d", seed, i), rgen.Generate(r, gc))
		}
	}
	for i, src := range []string{
		"routine f()\nentry:\n    retr r1\n",
		"routine f(r2)\nentry:\n    getparam r2, 0\n    br gt r2, a, b\na:\n    ldi r1, 1\n    jmp c\nb:\n    jmp c\nc:\n    retr r1\n",
		"routine f()\nentry:\n    fldi f1, 1.5\n    fadd f2, f1, f3\n    ldi r1, 2\n    retr r1\n",
		"routine f()\nentry:\n    fadd f2, f1, f1\n    add r2, r1, r1\n    retr r2\n",
		"routine f()\nentry:\n    ldi r1, 1\n    fldi f1, 2.5\n    br gt r1, a, b\na:\n    fldi f2, 1.0\n    jmp c\nb:\n    jmp c\nc:\n    fadd f3, f2, f1\n    retr r1\n",
	} {
		checkBuildAll(t, fmt.Sprintf("input %d", i), iloc.MustParse(src))
	}
}
