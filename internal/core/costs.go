package core

import (
	"math"
	"slices"

	"repro/internal/iloc"
)

// pow10 returns 10^d as a float, saturating for absurd depths.
func pow10(d int) float64 {
	if d > 12 {
		d = 12
	}
	p := 1.0
	for i := 0; i < d; i++ {
		p *= 10
	}
	return p
}

// computeCosts estimates, for every live range, the run-time cycles that
// spilling it would add, weighted by 10^depth per reference (§2, "spill
// costs"). A ⊥ range pays a store per definition and a load per use; a
// never-killed range pays only the tag instruction per use and *saves*
// its definitions, which are deleted (§3.2: no stores are needed).
// Spill-born temporaries get infinite cost so they are never respilled.
func (a *allocator) computeCosts(cs *classState) {
	c := cs.c
	n := a.rt.NumRegs(c)
	cs.cost = resetTable(cs.cost, n)
	cs.mustNot = resetTable(cs.mustNot, n)
	refs := resetTable(cs.refs, n)
	cs.refs = refs
	m := a.opts.Machine

	loadCost := float64(m.MemCycles)
	storeCost := float64(m.MemCycles)

	for _, b := range a.rt.Blocks {
		w := pow10(b.Depth)
		for i, in := range b.Instrs {
			uses := a.rt.Uses(in)
			for ui, u := range uses {
				if u.Class != c || u.N == 0 {
					continue
				}
				refs[u.N].uses++
				if !slices.Contains(uses[:ui], u) {
					refs[u.N].useInstrs++
				}
				if i > 0 {
					if d := b.Instrs[i-1].Def(); d.Valid() && d.Class == c && d.N == u.N {
						refs[u.N].adjacent = true
					}
				}
				t := cs.tags[u.N]
				if t.Rematerializable() {
					cs.cost[u.N] += float64(m.Cycles(t.Op)) * w
				} else {
					cs.cost[u.N] += loadCost * w
				}
			}
			d := in.Def()
			if d.Valid() && d.Class == c && d.N != 0 {
				if in.IsSpill {
					refs[d.N].spillDefs++
				} else {
					refs[d.N].realDefs++
				}
				t := cs.tags[d.N]
				if t.Rematerializable() {
					// The definition disappears when the range is
					// rematerialized; spilling saves its cycles.
					cs.cost[d.N] -= float64(m.Cycles(in.Op)) * w
				} else {
					cs.cost[d.N] += storeCost * w
				}
			}
		}
	}
	for v := 1; v < n; v++ {
		r := refs[v]
		// A range must not be respilled only when doing so cannot
		// shrink it: every definition is spill-born (a reload or
		// rematerialization) and a single instruction consumes it.
		// Such a range is already minimal — respilling would just add a
		// load/store shuttle. Crucially, a range that coalescing merged
		// with real code keeps real definitions or extra uses and stays
		// spillable; marking it unspillable would let the infinite cost
		// infect the merged range and leave the colorer facing
		// unresolvable pressure (found by the random-program tests).
		if r.spillDefs > 0 && r.realDefs == 0 && r.useInstrs <= 1 {
			cs.mustNot[v] = true
		}
		// Chaitin's adjacency rule: a range with a single definition
		// whose only use immediately follows it gains nothing from
		// spilling — the reload would sit exactly where the value
		// already is. Give it infinite cost so simplify never chooses
		// it.
		if r.spillDefs+r.realDefs == 1 && r.uses == 1 && r.adjacent {
			cs.mustNot[v] = true
		}
		if cs.mustNot[v] {
			cs.cost[v] = math.Inf(1)
		}
	}
}

// rangeRefs counts one live range's references for computeCosts.
type rangeRefs struct {
	spillDefs, realDefs int // definitions inserted by spill code, and the rest
	uses                int // operand slots reading the range
	useInstrs           int // instructions reading the range
	adjacent            bool
}

// findPartners records, for biased coloring, the ranges connected by the
// copies (splits and ordinary) that survive coalescing (§4.3: "before
// coloring, the allocator finds partners — values connected by splits").
func (a *allocator) findPartners(cs *classState) {
	n := a.rt.NumRegs(cs.c)
	// Growing keeps the vectors past the old length, and so their storage.
	cs.partners = slices.Grow(cs.partners[:0], n)[:n]
	for i := range cs.partners {
		cs.partners[i] = cs.partners[i][:0]
	}
	add := func(x, y int) {
		if !slices.Contains(cs.partners[x], y) {
			cs.partners[x] = append(cs.partners[x], y)
		}
	}
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if !in.Op.IsCopy() || in.Dst.Class != cs.c || in.Src[0].IsFP() {
			return
		}
		d, s := cs.find(int(in.Dst.N)), cs.find(int(in.Src[0].N))
		if d != s {
			add(d, s)
			add(s, d)
		}
	})
}
