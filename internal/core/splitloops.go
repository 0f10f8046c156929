package core

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/liveness"
)

// SplitScheme selects one of §6's experimental live-range splitting
// strategies, applied on top of the rematerialization splits.
type SplitScheme int

// The schemes of §6. The paper found each had "several major successes"
// and "equally dramatic failures"; the SplittingStudy experiment
// reproduces that comparison. Scheme 5 (forward plus reverse dominance
// frontiers) needs σ-renaming machinery the paper does not detail and is
// not implemented; see DESIGN.md.
const (
	SplitNone          SplitScheme = iota
	SplitAllLoops                  // 1: split all live ranges around all loops
	SplitOuterLoops                // 2: split all live ranges around outer loops
	SplitInactiveLoops             // 3: split around the outermost loop where a range is neither used nor defined
	SplitAtPhis                    // 4: split along forward dominance frontiers (at all φ-nodes)
)

func (s SplitScheme) String() string {
	switch s {
	case SplitNone:
		return "none"
	case SplitAllLoops:
		return "all-loops"
	case SplitOuterLoops:
		return "outer-loops"
	case SplitInactiveLoops:
		return "inactive-loops"
	case SplitAtPhis:
		return "all-phis"
	}
	return "split(?)"
}

// applyLoopSplits inserts split copies around loops according to the
// scheme, after renumber has formed live ranges. For each selected
// (loop, range) pair the range gets a fresh name inside the loop,
// connected by split copies on the entry and exit edges, so the colorer
// can treat the loop-resident portion separately — and the spiller can
// rematerialize or spill each portion on its own.
func (a *allocator) applyLoopSplits(cs *classState, loops []*cfg.Loop) int {
	var selected []*cfg.Loop
	switch a.params.split {
	case SplitAllLoops, SplitInactiveLoops:
		// A copy: the sort below must not reorder the allocator's
		// cached loops.
		selected = slices.Clone(loops)
	case SplitOuterLoops:
		for _, l := range loops {
			if l.Depth == 1 {
				selected = append(selected, l)
			}
		}
	default:
		return 0
	}
	// Outer loops first, so inner splits subdivide the outer copies.
	for i := 0; i < len(selected); i++ {
		for j := i + 1; j < len(selected); j++ {
			if selected[j].Depth < selected[i].Depth {
				selected[i], selected[j] = selected[j], selected[i]
			}
		}
	}

	splits := 0
	alreadySplit := make(map[int]bool) // scheme 3: outermost loop only
	for _, l := range selected {
		live := &cs.live
		liveness.ComputeInto(live, a.rt, cs.c, a.tree.Order)
		inLoop := make(map[*iloc.Block]bool, len(l.Blocks))
		for _, b := range l.Blocks {
			inLoop[b] = true
		}
		var candidates []int
		headerIn := live.LiveInOf(l.Header.Index)
		headerIn.ForEach(func(r int) {
			r = cs.find(r)
			if a.params.split == SplitInactiveLoops {
				if alreadySplit[r] || rangeActiveIn(l, cs.c, r, cs) {
					return
				}
			}
			candidates = append(candidates, r)
		})
		// Dedupe after find-normalization.
		seen := map[int]bool{}
		for _, r := range candidates {
			if seen[r] {
				continue
			}
			seen[r] = true
			if a.splitAroundLoop(cs, l, inLoop, r, live) {
				splits++
				alreadySplit[r] = true
			}
		}
	}
	return splits
}

// rangeActiveIn reports whether live range r is used or defined inside
// the loop.
func rangeActiveIn(l *cfg.Loop, c iloc.Class, r int, cs *classState) bool {
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && cs.find(int(d.N)) == r {
				return true
			}
			for _, u := range in.Src[:in.Op.NSrc()] { // the code is φ-free
				if u.Class == c && u.N != 0 && cs.find(int(u.N)) == r {
					return true
				}
			}
		}
	}
	return false
}

// splitAroundLoop renames r to a fresh register inside the loop and
// connects the two names with split copies on the entry and exit edges.
// With critical edges split beforehand, every exit target has a single
// predecessor, so the exit copy can sit at its head.
func (a *allocator) splitAroundLoop(cs *classState, l *cfg.Loop, inLoop map[*iloc.Block]bool, r int, live *liveness.Info) bool {
	c := cs.c

	// Exit targets where r survives the loop.
	var exits []*iloc.Block
	for _, b := range l.Blocks {
		for _, s := range b.Succs {
			if in := live.LiveInOf(s.Index); !inLoop[s] && in.Has(r) {
				if len(s.Preds) > 1 {
					return false // unexpected critical edge; skip conservatively
				}
				exits = append(exits, s)
			}
		}
	}
	// Entry predecessors outside the loop.
	var entries []*iloc.Block
	for _, p := range l.Header.Preds {
		if !inLoop[p] {
			entries = append(entries, p)
		}
	}
	if len(entries) == 0 {
		return false
	}

	rp := a.rt.NewReg(c)
	cs.sets.Grow(a.rt.NumRegs(c))
	for len(cs.tags) < cs.sets.Len() {
		cs.tags = append(cs.tags, cs.tags[cs.find(r)])
	}

	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && cs.find(int(d.N)) == r {
				in.Dst = rp
			}
			for i := 0; i < in.Op.NSrc(); i++ {
				if in.Src[i].Class == c && in.Src[i].N != 0 && cs.find(int(in.Src[i].N)) == r {
					in.Src[i] = rp
				}
			}
		}
	}
	old := iloc.Reg{Class: c, N: int32(cs.find(r))}
	for _, p := range entries {
		cp := iloc.MakeMov(rp, old)
		cp.IsSplit = true
		p.AppendBeforeTerminator(cp)
	}
	for _, s := range exits {
		cp := iloc.MakeMov(old, rp)
		cp.IsSplit = true
		s.InsertBefore(0, cp)
	}
	return true
}
