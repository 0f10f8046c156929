package core

import (
	"slices"

	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/remat"
)

// solveLiveness solves liveness for the classes css into their live,
// in one walk of the code.
func (a *allocator) solveLiveness(css ...*classState) {
	var infos [iloc.NumClasses]*liveness.Info
	for _, cs := range css {
		infos[cs.c] = &cs.live
	}
	liveness.ComputeAllInto(&infos, a.rt, a.tree.Order)
}

// buildGraph solves liveness for the classes css and rebuilds their
// interference graphs: the build pass does it for every class, and a
// coalesce rebuild for the classes whose scan removed a copy.
func (a *allocator) buildGraph(css ...*classState) {
	a.solveLiveness(css...)
	a.buildFromLive(css...)
}

// buildFromLive constructs the interference graphs of the classes css
// from their current liveness solutions, all in one backward walk of
// the code (Chaitin's): starting from each block's live-out set, a
// definition interferes with everything currently live — except that
// a copy does not interfere with its own source, which is what lets
// coalescing and biased coloring combine the two ends.
func (a *allocator) buildFromLive(css ...*classState) {
	var by [iloc.NumClasses]*classState
	for _, cs := range css {
		n := a.rt.NumRegs(cs.c)
		cs.graph.Reset(n)
		cs.inCode = resetTable(cs.inCode, n)
		cs.acrossCall = resetTable(cs.acrossCall, n)
		cs.lv.Reset(n)
		by[cs.c] = cs
	}
	for _, b := range a.rt.Blocks {
		for _, cs := range css {
			out := cs.live.LiveOutOf(b.Index)
			cs.lv.CopyFrom(&out)
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op.IsCall() {
				// Everything live across the call must survive the
				// callee clobbering the caller-save colors.
				for _, cs := range css {
					cs.lv.ForEach(func(x int) { cs.acrossCall[x] = true })
				}
			}
			if cs := classOf(&by, in.Def()); cs != nil {
				cs.define(in)
			}
			for _, u := range a.rt.Uses(in) {
				if cs := classOf(&by, u); cs != nil {
					cs.inCode[u.N] = true
					cs.lv.Add(int(u.N))
				}
			}
		}
	}
}

// define steps the backward walk over in, which defines a register of
// cs's class: the register interferes with everything live below in
// but a copy's own source, and is dead above it. The live words go
// into the register's matrix row at once; only new edges cost more.
func (cs *classState) define(in *iloc.Instr) {
	d, lv := int(in.Dst.N), &cs.lv
	cs.inCode[d] = true
	copySrc := -1
	if in.Op.IsCopy() && in.Src[0].Class == cs.c && in.Src[0].N != 0 {
		copySrc = int(in.Src[0].N)
		lv.Remove(copySrc)
	}
	cs.graph.AddEdges(d, lv.Bits())
	lv.Remove(d)
	if copySrc >= 0 {
		lv.Add(copySrc)
	}
}

// classOf returns the state in by of r's class, or nil when r is no
// register, the reserved register 0, or of a class by leaves out.
func classOf(by *[iloc.NumClasses]*classState, r iloc.Reg) *classState {
	if r.N == 0 || r.Class >= iloc.NumClasses {
		return nil
	}
	return by[r.Class]
}

// resetTable returns n zero elements in s's storage when it is large
// enough.
func resetTable[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// coalesceToFixpoint runs one of the pipeline's two coalescing rounds
// over every class: coalescePass repeats until a scan removes nothing,
// and the graph is rebuilt after each scan that removed a copy. The
// graph must be exact on entry and is exact on return, because the
// last scan changed nothing. The build pass leaves it exact for the
// first round, and the first round leaves it exact for the second, so
// neither round starts with a rebuild.
//
// The classes share each scan, rewrite and rebuild, one walk of the
// code apiece, but a class's coalescing reads and writes only its own
// live ranges, graph and copies: each class makes the decisions, in
// the order, a round over that class alone would, and a class drops
// out once its scan removes nothing.
func (a *allocator) coalesceToFixpoint(splitRound bool) int {
	total := 0
	classes := a.classes
	active := classes[:]
	for {
		removed := a.coalescePass(active, splitRound)
		n := 0
		for _, cs := range active {
			if m := removed[cs.c]; m > 0 {
				total += m
				active[n] = cs
				n++
			}
		}
		if n == 0 {
			return total
		}
		active = active[:n]
		// No tag fold: each merge already met the two roots' tags, and
		// a root's tag is at or below every member's (see foldTags), so
		// a fold would change nothing.
		a.rewriteToRoots(active...)
		a.buildGraph(active...)
	}
}

// coalescePass scans the classes css for removable copies of one kind,
// for coalesceToFixpoint, and returns how many it removed of each
// class: unrestricted over ordinary copies, then (in remat)
// conservative over split copies. Ordinary copies (splitRound false)
// coalesce whenever the ends do not interfere; split copies
// additionally require the merged node to have fewer than k neighbors
// of significant degree, so the combined range provably still
// simplifies. The graph is updated in place (Merge) so later decisions
// in the same pass see earlier ones.
func (a *allocator) coalescePass(css []*classState, splitRound bool) (removed [iloc.NumClasses]int) {
	var by [iloc.NumClasses]*classState
	for _, cs := range css {
		by[cs.c] = cs
	}
	for _, b := range a.rt.Blocks {
		kept := 0
		for i, in := range b.Instrs {
			if !in.Op.IsCopy() || in.Dst.Class >= iloc.NumClasses || by[in.Dst.Class] == nil ||
				in.IsSplit != splitRound || in.Src[0].IsFP() {
				keep(b.Instrs, &kept, i)
				continue
			}
			cs := by[in.Dst.Class]
			d, s := cs.find(int(in.Dst.N)), cs.find(int(in.Src[0].N))
			if d == s {
				removed[cs.c]++ // redundant copy: both ends already one range
				continue
			}
			if cs.graph.Interfere(d, s) {
				keep(b.Instrs, &kept, i)
				continue
			}
			if k := a.opts.Machine.K(cs.c); splitRound && cs.graph.CombinedSignificant(d, s, k) >= k {
				keep(b.Instrs, &kept, i)
				continue
			}
			root, _ := cs.sets.Union(d, s)
			other := d + s - root
			cs.graph.Merge(root, other)
			if root < len(cs.tags) && other < len(cs.tags) {
				cs.tags[root] = remat.Meet(cs.tags[root], cs.tags[other])
			}
			removed[cs.c]++
		}
		b.Instrs = b.Instrs[:kept]
	}
	return removed
}
