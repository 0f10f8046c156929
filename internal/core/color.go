package core

import (
	"math"

	"repro/internal/iloc"
)

// SpillMetric picks the formula simplify minimizes when it must choose a
// spill candidate.
type SpillMetric int

// Spill metrics. Chaitin's cost/degree is the paper's choice; the square
// and area variants are the classic alternatives of Bernstein et al.
// (the paper's reference [1]).
const (
	MetricCostOverDegree        SpillMetric = iota // Chaitin: cost / degree
	MetricCostOverDegreeSquared                    // Bernstein: cost / degree²
	MetricCost                                     // raw estimated spill cost
)

func (m SpillMetric) String() string {
	switch m {
	case MetricCostOverDegree:
		return "cost/degree"
	case MetricCostOverDegreeSquared:
		return "cost/degree²"
	case MetricCost:
		return "cost"
	}
	return "metric(?)"
}

// evaluate computes the metric for a node with the given current degree.
func (m SpillMetric) evaluate(cost float64, deg int) float64 {
	switch m {
	case MetricCostOverDegreeSquared:
		return cost / float64(deg*deg)
	case MetricCost:
		return cost
	default:
		return cost / float64(deg)
	}
}

// simplify orders the nodes for coloring (optimistically, per Briggs et
// al.): nodes of degree < k are removed and pushed; when none remains,
// the node minimizing cost/degree is chosen as a spill candidate — but
// pushed all the same, since select may still find it a color.
func (a *allocator) simplify(cs *classState) {
	k := a.opts.Machine.K(cs.c)
	n := a.rt.NumRegs(cs.c)
	cs.deg = resetTable(cs.deg, n)
	cs.removed = resetTable(cs.removed, n)
	deg, removed := cs.deg, cs.removed
	cs.stack = cs.stack[:0]

	// Ranges live across a call can only take the callee-save colors, so
	// their trivially-colorable threshold is lower.
	kOf := func(v int) int {
		if cs.acrossCall[v] {
			return k - a.opts.Machine.CallerSave
		}
		return k
	}

	remaining := 0
	for v := 1; v < n; v++ {
		if cs.inCode[v] && cs.find(v) == v {
			deg[v] = cs.graph.Degree(v)
			remaining++
		} else {
			removed[v] = true
		}
	}

	remove := func(v int) {
		removed[v] = true
		remaining--
		cs.stack = append(cs.stack, v)
		for _, nb := range cs.graph.Neighbors(v) {
			if !removed[nb] {
				deg[nb]--
			}
		}
	}

	for remaining > 0 {
		progressed := false
		for v := 1; v < n; v++ {
			if !removed[v] && deg[v] < kOf(v) {
				remove(v)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// All remaining nodes have degree >= k: pick the cheapest spill
		// candidate by Chaitin's cost/degree metric, avoiding spill temps
		// whenever possible.
		best, bestMetric := -1, math.Inf(1)
		bestAny := -1
		for v := 1; v < n; v++ {
			if removed[v] {
				continue
			}
			if bestAny == -1 {
				bestAny = v
			}
			metric := a.params.metric.evaluate(cs.cost[v], deg[v])
			if !cs.mustNot[v] && metric < bestMetric {
				best, bestMetric = v, metric
			}
		}
		if best == -1 {
			best = bestAny // only spill temps left; push one anyway
		}
		remove(best)
	}
}

// selectColors pops the simplify stack and assigns colors 1..k. Biased
// coloring tries a partner's color first; the one-level lookahead prefers
// a color that remains available to an uncolored partner (§4.3). It
// leaves the live ranges left uncolored in cs.spilled.
func (a *allocator) selectColors(cs *classState) {
	k := a.opts.Machine.K(cs.c)
	n := a.rt.NumRegs(cs.c)
	cs.colors = resetTable(cs.colors, n)
	a.findPartners(cs)
	spilled := cs.spilled[:0]

	cs.forbidden = resetTable(cs.forbidden, k+1)
	forbidden := cs.forbidden
	// avail marks the colors v's neighbors hold.
	avail := func(v int) []bool {
		f := resetTable(cs.nbColors, k+1)
		cs.nbColors = f
		for _, nb := range cs.graph.Neighbors(v) {
			if col := cs.colors[nb]; col != 0 {
				f[col] = true
			}
		}
		return f
	}

	for i := len(cs.stack) - 1; i >= 0; i-- {
		v := cs.stack[i]
		// Caller-save colors are forbidden for ranges live across a call.
		lo := 1
		if cs.acrossCall[v] {
			lo = a.opts.Machine.CallerSave + 1
		}
		for c := 1; c <= k; c++ {
			forbidden[c] = c < lo
		}
		free := k - (lo - 1)
		for _, nb := range cs.graph.Neighbors(v) {
			if col := cs.colors[nb]; col != 0 && !forbidden[col] {
				forbidden[col] = true
				free--
			}
		}
		if free <= 0 {
			spilled = append(spilled, v)
			continue
		}

		choice := 0
		if !a.params.noBias {
			// Bias: a color already given to a partner.
			for _, p := range cs.partners[v] {
				if col := cs.colors[p]; col != 0 && !forbidden[col] {
					choice = col
					break
				}
			}
			// Lookahead: prefer a color an uncolored partner could still
			// take, so the later biased pick can match it.
			if choice == 0 && !a.params.noLookahead {
				for _, p := range cs.partners[v] {
					if cs.colors[p] != 0 {
						continue
					}
					pf := avail(p)
					for c := lo; c <= k; c++ {
						if !forbidden[c] && !pf[c] {
							choice = c
							break
						}
					}
					if choice != 0 {
						break
					}
				}
			}
		}
		if choice == 0 {
			for c := lo; c <= k; c++ {
				if !forbidden[c] {
					choice = c
					break
				}
			}
		}
		cs.colors[v] = choice
	}

	// Safety net: no two interfering ranges may share a color.
	for v := 1; v < n; v++ {
		if cs.colors[v] == 0 {
			continue
		}
		for _, nb := range cs.graph.Neighbors(v) {
			if cs.colors[nb] == cs.colors[v] {
				panic("core: coloring invariant violated")
			}
		}
	}
	cs.spilled = spilled
}

// rewriteColors replaces every live-range name with its physical color
// and marks the routine allocated. Copies whose two ends landed on the
// same color — the goal of biased coloring — become no-ops and are
// deleted here, eliminating the run-time cost of the remaining splits
// (§3.4: "the copy should be eliminated whenever possible").
func (a *allocator) rewriteColors() error {
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op.IsCopy() && !in.Src[0].IsFP() {
				cs := a.classes[in.Dst.Class]
				if cs.colors[cs.find(in.Dst.N)] == cs.colors[cs.find(in.Src[0].N)] {
					continue // same register: dead copy
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	for _, cs := range a.classes {
		c := cs.c
		var err error
		a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
			for i := 0; i < in.Op.NSrc(); i++ {
				if in.Src[i].Class == c && in.Src[i].N != 0 {
					in.Src[i].N = cs.colors[cs.find(in.Src[i].N)]
					if in.Src[i].N == 0 && err == nil {
						err = errUncolored(a, in)
					}
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				in.Dst.N = cs.colors[cs.find(in.Dst.N)]
				if in.Dst.N == 0 && err == nil {
					err = errUncolored(a, in)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	a.rt.Allocated = true
	a.rt.NextReg[0] = a.opts.Machine.Regs[0]
	a.rt.NextReg[1] = a.opts.Machine.Regs[1]
	for c := range a.rt.CallerSave {
		a.rt.CallerSave[c] = a.opts.Machine.CallerSave
	}
	return nil
}
