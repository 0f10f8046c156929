package ssa_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/rgen"
	"repro/internal/ssa"
)

// buildRandomSSA converts a random program to SSA for one class.
func buildRandomSSA(t *testing.T, seed int64, c iloc.Class) (*iloc.Routine, *ssa.Graph, *dom.Tree) {
	t.Helper()
	rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: 5})
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SplitCriticalEdges(rt); err != nil {
		t.Fatal(err)
	}
	tree := dom.Compute(rt)
	var lives [iloc.NumClasses]*liveness.Info
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		lives[cl] = liveness.Compute(rt, cl)
	}
	g, err := ssa.Build(rt, c, tree, lives[c])
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, iloc.Print(rt))
	}
	return rt, g, tree
}

// Property: single assignment — every value has exactly one definition.
func TestPropertySingleAssignment(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
			rt, g, _ := buildRandomSSA(t, seed, c)
			defs := make([]int, g.NumValues)
			rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
				if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
					defs[d.N]++
				}
			})
			for v := 1; v < g.NumValues; v++ {
				if defs[v] != 1 {
					t.Fatalf("seed %d class %v: value %d has %d defs", seed, c, v, defs[v])
				}
			}
		}
	}
}

// Property: strictness — every non-φ use is dominated by its definition,
// and every φ argument's definition dominates the corresponding
// predecessor block.
func TestPropertyUsesDominatedByDefs(t *testing.T) {
	for seed := int64(20); seed < 40; seed++ {
		c := iloc.ClassInt
		rt, g, tree := buildRandomSSA(t, seed, c)
		// Recompute def blocks from the rewritten code.
		defBlock := make([]*iloc.Block, g.NumValues)
		rt.ForEachInstr(func(b *iloc.Block, _ int, in *iloc.Instr) {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				defBlock[d.N] = b
			}
		})
		rt.ForEachInstr(func(b *iloc.Block, _ int, in *iloc.Instr) {
			if in.Op == iloc.OpPhi {
				if in.Dst.Class != c {
					return
				}
				for i, a := range rt.PhiArgs(in) {
					if a.N == 0 {
						continue
					}
					pred := b.Preds[i]
					if db := defBlock[a.N]; db != nil && !tree.Dominates(db.Index, pred.Index) {
						t.Fatalf("seed %d: φ arg v%d def in %s does not dominate pred %s",
							seed, a.N, rt.Labels[db.Label], rt.Labels[pred.Label])
					}
				}
				return
			}
			for _, u := range rt.Uses(in) {
				if u.Class != c || u.N == 0 {
					continue
				}
				if db := defBlock[u.N]; db != nil && !tree.Dominates(db.Index, b.Index) {
					t.Fatalf("seed %d: use of v%d in %s not dominated by def in %s",
						seed, u.N, rt.Labels[b.Label], rt.Labels[db.Label])
				}
			}
		})
	}
}

// Property: pruning — every φ result is live (has at least one use, or
// feeds another φ transitively; in a pruned SSA no φ is trivially dead).
func TestPropertyPrunedPhisAreUsed(t *testing.T) {
	for seed := int64(40); seed < 55; seed++ {
		_, g, _ := buildRandomSSA(t, seed, iloc.ClassInt)
		for v := 1; v < g.NumValues; v++ {
			if g.DefOf[v].Op == iloc.OpPhi && len(g.UsesOf[v]) == 0 {
				t.Fatalf("seed %d: dead φ value %d survived pruning", seed, v)
			}
		}
	}
}
