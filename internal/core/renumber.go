package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/disjoint"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/remat"
	"repro/internal/ssa"
)

// renumber implements §4.1's six-step algorithm for both classes:
//
//  1. liveness (needed for pruning),
//  2. pruned φ-insertion on dominance frontiers,
//  3. renaming to values + tag initialization,
//  4. sparse tag propagation,
//  5. unioning copies whose endpoints carry identical inst tags,
//  6. unioning φ operands with the φ's tag and inserting splits for the
//     rest, then removing φ-nodes.
//
// In chaitin steps 4–6 collapse to "union every value reaching each
// φ" with no splits, recreating Chaitin's live ranges, and tags are
// computed afterwards by his whole-range rule.
func (a *allocator) renumber(tree *dom.Tree, loops []*cfg.Loop) (splits int, err error) {
	// Liveness for both classes must precede SSA construction (the
	// liveness solver rejects φ-nodes).
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		liveness.ComputeInto(&a.scratch[c].live, a.rt, c)
	}
	var graphs [iloc.NumClasses]*ssa.Graph
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		g, err := ssa.Build(a.rt, c, tree, &a.scratch[c].live)
		if err != nil {
			return 0, fmt.Errorf("core: renumber: %w", err)
		}
		graphs[c] = g
	}

	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		cs := &classState{c: c}
		a.classes[c] = cs
		g := graphs[c]
		cs.sets = disjoint.New(g.NumValues)

		if a.params.remat {
			cs.tags = remat.Propagate(g)
			splits += a.renumberRemat(cs)
		} else {
			cs.tags = make([]remat.Tag, g.NumValues)
			a.renumberChaitin(cs)
		}

		a.rewriteToRoots(cs)
		// In chaitin tags are computed after coalescing (the whole-
		// range rule must not see copies that coalescing will delete);
		// see round().
	}
	// Loop-based splitting (§6) runs once both classes are φ-free — and
	// only in the first round: re-splitting ranges that spill code
	// already fragmented compounds pressure every iteration and can keep
	// a tight machine from ever converging.
	if a.params.remat && a.roundNo == 0 &&
		a.params.split != SplitNone && a.params.split != SplitAtPhis {
		for _, cs := range a.classes {
			splits += a.applyLoopSplits(cs, loops)
		}
	}
	return splits, nil
}

// renumberRemat performs steps 5 and 6 for one class and returns the
// number of split copies inserted.
func (a *allocator) renumberRemat(cs *classState) int {
	c := cs.c

	// Step 5: copies with identical inst tags are unioned and removed.
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op.IsCopy() && in.Dst.Class == c && !in.Src[0].IsFP() {
				td, ts := cs.tags[in.Dst.N], cs.tags[in.Src[0].N]
				if td.Kind == remat.Inst && remat.Equal(td, ts) {
					root, _ := cs.sets.Union(in.Dst.N, in.Src[0].N)
					cs.tags[root] = td
					continue // copy removed
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}

	// Step 6: φ operands. Group the needed splits by predecessor block so
	// each group can be sequentialized as one parallel copy.
	pending := make(map[*iloc.Block][]copyPair)
	splits := 0
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != iloc.OpPhi || in.Dst.Class != c {
				kept = append(kept, in)
				continue
			}
			res := in.Dst.N
			for i, arg := range in.Phi.Args {
				if a.params.split != SplitAtPhis && remat.Equal(cs.tags[arg.N], cs.tags[res]) {
					root, _ := cs.sets.Union(arg.N, res)
					cs.tags[root] = remat.Meet(cs.tags[arg.N], cs.tags[res])
					continue
				}
				pred := b.Preds[i]
				pending[pred] = append(pending[pred], copyPair{dst: res, src: arg.N})
				splits++
			}
			// φ removed (not kept).
		}
		b.Instrs = kept
	}

	// Emit each block's splits as a sequentialized parallel copy. The
	// destinations are φ results (distinct), the sources end-of-block
	// values; a cycle (swap) needs one temporary.
	for pred, pairs := range pending {
		a.emitParallelCopy(cs, pred, pairs)
	}
	return splits
}

// copyPair is one dst ← src element of a parallel copy.
type copyPair struct{ dst, src int }

// emitParallelCopy appends split copies for the (dst ← src) pairs to the
// end of pred (before its terminator), in an order that preserves the
// parallel-copy semantics of the φ-nodes they replace.
func (a *allocator) emitParallelCopy(cs *classState, pred *iloc.Block, pairs []copyPair) {
	// Work on union-find roots? No: these are SSA value names, pre-union
	// within this step they are distinct values; dst names are φ results
	// and never sources of the same parallel copy unless a φ result feeds
	// another φ through this same edge.
	emit := func(dst, src int) {
		cp := iloc.MakeMov(iloc.Reg{Class: cs.c, N: dst}, iloc.Reg{Class: cs.c, N: src})
		cp.IsSplit = true
		pred.AppendBeforeTerminator(cp)
	}
	remaining := append([]copyPair(nil), pairs...)
	for len(remaining) > 0 {
		progressed := false
		for i := 0; i < len(remaining); i++ {
			p := remaining[i]
			// Safe to emit if no other pending copy still reads p.dst.
			blocked := false
			for j, q := range remaining {
				if j != i && q.src == p.dst {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			emit(p.dst, p.src)
			remaining = append(remaining[:i], remaining[i+1:]...)
			progressed = true
			i--
		}
		if progressed {
			continue
		}
		// Pure cycle: break it by saving one source in a fresh value.
		brk := remaining[0]
		tmp := a.rt.NewReg(cs.c)
		cs.sets.Grow(a.rt.NumRegs(cs.c))
		cs.tags = append(cs.tags, cs.tags[cs.sets.Find(brk.src)])
		emit(tmp.N, brk.src)
		for i := range remaining {
			if remaining[i].src == brk.src {
				remaining[i].src = tmp.N
			}
		}
	}
}

// renumberChaitin unions every value reaching each φ with the φ's result
// and deletes the φ — the paper's description of the pre-rematerialization
// renumber ("form live ranges by unioning together all the values
// reaching each φ-node").
func (a *allocator) renumberChaitin(cs *classState) {
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != iloc.OpPhi || in.Dst.Class != cs.c {
				kept = append(kept, in)
				continue
			}
			for _, arg := range in.Phi.Args {
				cs.sets.Union(in.Dst.N, arg.N)
			}
		}
		b.Instrs = kept
	}
}

// rewriteToRoots renames every class-c register in the code to the
// representative of its live range.
func (a *allocator) rewriteToRoots(cs *classState) {
	c := cs.c
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		for i := 0; i < in.Op.NSrc(); i++ {
			if in.Src[i].Class == c && in.Src[i].N != 0 {
				in.Src[i].N = cs.find(in.Src[i].N)
			}
		}
		if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
			in.Dst.N = cs.find(in.Dst.N)
		}
	})
	// Fold tags onto roots so tagOf is consistent regardless of which
	// member the map was written through.
	for v := 1; v < cs.sets.Len(); v++ {
		r := cs.find(v)
		if r != v && v < len(cs.tags) {
			cs.tags[r] = remat.Meet(cs.tags[r], cs.tags[v])
		}
	}
}

// computeChaitinTags applies Chaitin's rule after live ranges are formed:
// a live range is never-killed only if every definition in the code is
// the same never-killed instruction.
func (a *allocator) computeChaitinTags(cs *classState) {
	n := a.rt.NumRegs(cs.c)
	if len(cs.tags) < n {
		cs.tags = append(cs.tags, make([]remat.Tag, n-len(cs.tags))...)
	}
	for i := range cs.tags {
		cs.tags[i] = remat.TopTag()
	}
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		d := in.Def()
		if !d.Valid() || d.Class != cs.c || d.N == 0 {
			return
		}
		var t remat.Tag
		if remat.NeverKilled(in) {
			t = remat.InstTag(in)
		} else {
			t = remat.BottomTag()
		}
		cs.tags[d.N] = remat.Meet(cs.tags[d.N], t)
	})
	// Ranges with no visible def (cannot happen in verified code) and ⊤
	// leftovers become ⊥.
	for i := range cs.tags {
		if cs.tags[i].Kind == remat.Top {
			cs.tags[i] = remat.BottomTag()
		}
	}
}

// disjointNewFor builds a fresh union-find forest sized to the routine's
// integer register space (white-box test helper).
func disjointNewFor(rt *iloc.Routine) *disjoint.Sets {
	return disjoint.New(rt.NumRegs(iloc.ClassInt))
}
