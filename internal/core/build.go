package core

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/ig"
	"repro/internal/liveness"
	"repro/internal/remat"
)

// classScratch is the storage one register class's liveness solves and
// graph builds reuse. It lives in one allocator, so its lifetime is one
// allocate call and nothing in it is shared between calls: renumber,
// build and every coalesce rebuild of every round overwrite it, and a
// rebuild allocates only where the routine outgrew every earlier one.
type classScratch struct {
	live       liveness.Info
	graph      ig.Graph
	lv         bitset.Set // the backward walk's live set
	inCode     []bool
	acrossCall []bool
}

// buildGraph constructs the interference graph for one class with
// Chaitin's backward walk: starting from each block's live-out set, a
// definition interferes with everything currently live — except that a
// copy does not interfere with its own source, which is what lets
// coalescing and biased coloring combine the two ends.
func (a *allocator) buildGraph(cs *classState) {
	c := cs.c
	n := a.rt.NumRegs(c)
	s := &a.scratch[c]
	s.graph.Reset(n)
	s.inCode = resetFlags(s.inCode, n)
	s.acrossCall = resetFlags(s.acrossCall, n)
	cs.graph, cs.inCode, cs.acrossCall = &s.graph, s.inCode, s.acrossCall
	liveness.ComputeInto(&s.live, a.rt, c)

	lv := &s.lv
	lv.Reset(n)
	for _, b := range a.rt.Blocks {
		lv.CopyFrom(s.live.LiveOut[b.Index])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op.IsCall() {
				// Everything live across the call must survive the
				// callee clobbering the caller-save colors.
				lv.ForEach(func(x int) { cs.acrossCall[x] = true })
			}
			d := in.Def()
			if d.Valid() && d.Class == c && d.N != 0 {
				cs.inCode[d.N] = true
				copySrc := -1
				if in.Op.IsCopy() && in.Src[0].Class == c && in.Src[0].N != 0 {
					copySrc = in.Src[0].N
					lv.Remove(copySrc)
				}
				lv.ForEach(func(x int) {
					if x != d.N {
						cs.graph.AddEdge(d.N, x)
					}
				})
				lv.Remove(d.N)
				if copySrc >= 0 {
					lv.Add(copySrc)
				}
			}
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 {
					cs.inCode[u.N] = true
					lv.Add(u.N)
				}
			}
		}
	}
}

// resetFlags returns n false flags in f's storage when it is large
// enough.
func resetFlags(f []bool, n int) []bool {
	f = slices.Grow(f[:0], n)[:n]
	clear(f)
	return f
}

// coalesceToFixpoint runs one of the pipeline's two coalescing rounds
// over every class: coalescePass repeats until a scan removes nothing,
// and the graph is rebuilt after each scan that removed a copy. The
// graph must be exact on entry and is exact on return, because the
// last scan changed nothing. The build pass leaves it exact for the
// first round, and the first round leaves it exact for the second, so
// neither round starts with a rebuild.
func (a *allocator) coalesceToFixpoint(splitRound bool) int {
	removed := 0
	for _, cs := range a.classes {
		for {
			m := a.coalescePass(cs, splitRound)
			removed += m
			if m == 0 {
				break
			}
			a.buildGraph(cs)
		}
	}
	return removed
}

// coalescePass scans for removable copies of one kind, for
// coalesceToFixpoint: unrestricted over ordinary copies, then (in
// remat) conservative over split copies. Ordinary copies
// (splitRound false) coalesce whenever the ends do not interfere; split
// copies additionally require the merged node to have fewer than k
// neighbors of significant degree, so the combined range provably still
// simplifies. The graph is updated in place (Merge) so later decisions in
// the same pass see earlier ones.
func (a *allocator) coalescePass(cs *classState, splitRound bool) int {
	k := a.opts.Machine.K(cs.c)
	removed := 0
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !in.Op.IsCopy() || in.Dst.Class != cs.c || in.IsSplit != splitRound || in.Src[0].IsFP() {
				kept = append(kept, in)
				continue
			}
			d, s := cs.find(in.Dst.N), cs.find(in.Src[0].N)
			if d == s {
				removed++ // redundant copy: both ends already one range
				continue
			}
			if cs.graph.Interfere(d, s) {
				kept = append(kept, in)
				continue
			}
			if splitRound && cs.graph.CombinedSignificant(d, s, k) >= k {
				kept = append(kept, in)
				continue
			}
			root, _ := cs.sets.Union(d, s)
			other := d + s - root
			cs.graph.Merge(root, other)
			if root < len(cs.tags) && other < len(cs.tags) {
				cs.tags[root] = remat.Meet(cs.tags[root], cs.tags[other])
			}
			removed++
		}
		b.Instrs = kept
	}
	if removed > 0 {
		a.rewriteToRoots(cs)
	}
	return removed
}
