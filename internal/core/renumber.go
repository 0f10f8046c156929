package core

import (
	"errors"
	"fmt"
	"slices"

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
func (a *allocator) renumber() (splits int, err error) {
	// Liveness for both classes must precede SSA construction (the
	// liveness solver rejects φ-nodes).
	a.solveLiveness(a.classes[:]...)
	// The φ-nodes' operands go to the scratch's slab: the code is in
	// SSA form only until the loop below removes every φ.
	a.rt.PhiSlab = (*a.phiSlab)[:0]
	var graphs [iloc.NumClasses]*ssa.Graph
	var lives [iloc.NumClasses]*liveness.Info
	for c, cs := range a.classes {
		graphs[c], lives[c] = &cs.ssa, &cs.live
	}
	if err := ssa.BuildAllInto(&graphs, a.rt, a.tree, a.df, &lives); err != nil {
		var undef *ssa.UndefinedUseError
		if errors.As(err, &undef) {
			undef.Reg = a.inputReg(undef.Reg)
		}
		return 0, fmt.Errorf("core: renumber: %w", err)
	}

	for _, cs := range a.classes {
		g := &cs.ssa
		cs.sets.Reset(g.NumValues)
		if a.params.remat {
			cs.tags = remat.PropagateInto(restart(cs.tags, &cs.tagsHW), &cs.tagWork, g)
		} else {
			cs.tags = resetTable(restart(cs.tags, &cs.tagsHW), g.NumValues)
		}
	}
	if a.params.remat {
		splits = a.renumberRemat()
	} else {
		a.renumberChaitin()
	}
	*a.phiSlab, a.rt.PhiSlab = a.rt.PhiSlab[:0], nil
	for _, cs := range a.classes {
		// In chaitin the tags are all ⊤ until they are computed after
		// coalescing (the whole-range rule must not see copies that
		// coalescing will delete); see round().
		cs.foldTags()
		cs.compact()
		a.rt.NextReg[cs.c] = cs.sets.Len()
	}
	a.rewriteToNames()
	// Loop-based splitting (§6) runs once both classes are φ-free — and
	// only in the first round: re-splitting ranges that spill code
	// already fragmented compounds pressure every iteration and can keep
	// a tight machine from ever converging.
	if a.params.remat && a.roundNo == 0 &&
		a.params.split != SplitNone && a.params.split != SplitAtPhis {
		for _, cs := range a.classes {
			splits += a.applyLoopSplits(cs, a.loops)
		}
	}
	return splits, nil
}

// renumberRemat performs steps 5 and 6 for both classes, one walk of
// the code each, and returns the number of split copies inserted. Each
// class's unions and split copies come in the order a walk of that
// class alone would make them, and every split copy of the integer
// class comes before any of the float class at the end of a block.
func (a *allocator) renumberRemat() int {
	// Step 5: copies with identical inst tags are unioned and removed.
	for _, b := range a.rt.Blocks {
		kept := 0
		for i, in := range b.Instrs {
			if cs := classOf(&a.classes, in.Dst); cs != nil && in.Op.IsCopy() && !in.Src[0].IsFP() {
				td, ts := cs.tags[in.Dst.N], cs.tags[in.Src[0].N]
				if td.Kind == remat.Inst && remat.Equal(td, ts) {
					root, _ := cs.sets.Union(int(in.Dst.N), int(in.Src[0].N))
					cs.tags[root] = td
					continue // copy removed
				}
			}
			keep(b.Instrs, &kept, i)
		}
		b.Instrs = b.Instrs[:kept]
	}

	// Step 6: φ operands. Collect the needed splits with their
	// predecessor blocks, to sequentialize each block's group as one
	// parallel copy.
	for _, cs := range a.classes {
		cs.pending = restart(cs.pending, &cs.pendingHW)
	}
	splits := 0
	for _, b := range a.rt.Blocks {
		kept := 0
		for i, in := range b.Instrs {
			cs := classOf(&a.classes, in.Dst)
			if in.Op != iloc.OpPhi || cs == nil {
				keep(b.Instrs, &kept, i)
				continue
			}
			res := int(in.Dst.N)
			for i, arg := range a.rt.PhiArgs(in) {
				if a.params.split != SplitAtPhis && remat.Equal(cs.tags[arg.N], cs.tags[res]) {
					root, _ := cs.sets.Union(int(arg.N), res)
					cs.tags[root] = remat.Meet(cs.tags[arg.N], cs.tags[res])
					continue
				}
				cs.pending = append(cs.pending, pendingCopy{pred: b.Preds[i], copyPair: copyPair{dst: res, src: int(arg.N)}})
				splits++
			}
			// φ removed (not kept).
		}
		b.Instrs = b.Instrs[:kept]
	}

	// Emit each block's splits as a sequentialized parallel copy, the
	// blocks in code order. The destinations are φ results (distinct),
	// the sources end-of-block values; a cycle (swap) needs one
	// temporary.
	for _, cs := range a.classes {
		pending := cs.pending
		slices.SortStableFunc(pending, func(x, y pendingCopy) int { return x.pred.Index - y.pred.Index })
		for len(pending) > 0 {
			n := 1
			for n < len(pending) && pending[n].pred == pending[0].pred {
				n++
			}
			a.emitParallelCopy(cs, pending[0].pred, pending[:n])
			pending = pending[n:]
		}
	}
	return splits
}

// keep moves instrs[i] down to instrs[*kept], the next slot an in-place
// filter keeps, and advances *kept. The slot is written only once an
// earlier instruction was dropped; until then every kept instruction is
// already in place.
func keep(instrs []*iloc.Instr, kept *int, i int) {
	if *kept != i {
		instrs[*kept] = instrs[i]
	}
	*kept++
}

// copyPair is one dst ← src element of a parallel copy.
type copyPair struct{ dst, src int }

// pendingCopy is a split copy waiting for the end of its predecessor
// block.
type pendingCopy struct {
	pred *iloc.Block
	copyPair
}

// emitParallelCopy appends split copies for the (dst ← src) pairs to the
// end of pred (before its terminator), in an order that preserves the
// parallel-copy semantics of the φ-nodes they replace. It consumes
// pairs.
func (a *allocator) emitParallelCopy(cs *classState, pred *iloc.Block, pairs []pendingCopy) {
	// Work on union-find roots? No: these are SSA value names, pre-union
	// within this step they are distinct values; dst names are φ results
	// and never sources of the same parallel copy unless a φ result feeds
	// another φ through this same edge.
	emit := func(dst, src int) {
		cp := a.newInstr()
		*cp = *iloc.MakeMov(iloc.Reg{Class: cs.c, N: int32(dst)}, iloc.Reg{Class: cs.c, N: int32(src)})
		cp.IsSplit = true
		pred.AppendBeforeTerminator(cp)
	}
	remaining := pairs
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
		emit(int(tmp.N), brk.src)
		for i := range remaining {
			if remaining[i].src == brk.src {
				remaining[i].src = int(tmp.N)
			}
		}
	}
}

// renumberChaitin unions every value reaching each φ with the φ's result
// and deletes the φ — the paper's description of the pre-rematerialization
// renumber ("form live ranges by unioning together all the values
// reaching each φ-node") — for both classes in one walk.
func (a *allocator) renumberChaitin() {
	for _, b := range a.rt.Blocks {
		kept := 0
		for i, in := range b.Instrs {
			cs := classOf(&a.classes, in.Dst)
			if in.Op != iloc.OpPhi || cs == nil {
				keep(b.Instrs, &kept, i)
				continue
			}
			for _, arg := range a.rt.PhiArgs(in) {
				cs.sets.Union(int(in.Dst.N), int(arg.N))
			}
		}
		b.Instrs = b.Instrs[:kept]
	}
}

// rewriteToRoots renames every register of the classes css in the
// code to the representative of its live range, in one walk.
func (a *allocator) rewriteToRoots(css ...*classState) {
	var by [iloc.NumClasses]*classState
	for _, cs := range css {
		by[cs.c] = cs
	}
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		for i := 0; i < in.Op.NSrc(); i++ {
			if cs := classOf(&by, in.Src[i]); cs != nil {
				in.Src[i].N = int32(cs.find(int(in.Src[i].N)))
			}
		}
		if cs := classOf(&by, in.Def()); cs != nil {
			in.Dst.N = int32(cs.find(int(in.Dst.N)))
		}
	})
}

// compact names the class's live ranges 1..L in ascending root order
// and moves each root's tag to its new name; rewriteToNames then
// renames the code. Without it NextReg stays the SSA value count, and
// build's liveness and interference matrix grow with values rather
// than live ranges. The names keep the roots' order and Compact keeps
// their ranks, so every tie break later passes make by name or by
// union is unchanged.
func (cs *classState) compact() {
	k := 0
	for v := range cs.sets.Len() {
		if cs.find(v) == v {
			cs.tags[k] = cs.tags[v] // k <= v: no tag still to move is overwritten
			k++
		}
	}
	cs.names = cs.sets.Compact(cs.names)
	cs.tags = restart(cs.tags, &cs.tagsHW)[:k]
}

// rewriteToNames renames every register in the code to its live
// range's name from compact, in one walk.
func (a *allocator) rewriteToNames() {
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		for i := 0; i < in.Op.NSrc(); i++ {
			if cs := classOf(&a.classes, in.Src[i]); cs != nil {
				in.Src[i].N = cs.names[in.Src[i].N]
			}
		}
		if cs := classOf(&a.classes, in.Def()); cs != nil {
			in.Dst.N = cs.names[in.Dst.N]
		}
	})
}

// foldTags meets every value's tag into its live range's root, so
// tagOf is consistent regardless of which member a tag was written
// through. After it each root's tag is at or below every member's, and
// later unions keep that by meeting the two roots' tags.
func (cs *classState) foldTags() {
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
