// Package liveness computes live-in/live-out sets for the register
// classes of a routine with an iterative solver over words of bits.
//
// The paper's renumber uses the sparse data-flow evaluation graphs of
// Choi, Cytron and Ferrante for the same job; the dense iterative solver
// reaches the identical fixpoint (see DESIGN.md §4 on substitutions).
package liveness

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
)

// Info holds the liveness solution for one register class. All sets are
// indexed by Block.Index and sized to the routine's register space for
// the class; the reserved register 0 never appears.
//
// A solve writes one slab of words and nothing else, so it touches one
// array and allocates nothing once the slab is large enough. LiveInOf,
// LiveOutOf, UEVarOf and KillOf read a block's sets as views of the
// slab. A view is capped at its own words: writing through one set
// never changes another.
type Info struct {
	Class iloc.Class

	// words is the slab: block b's LiveIn, LiveOut, UEVar and Kill are
	// the four runs of w words from offset families*w*b.
	words []uint64
	w, n  int
	// stale[b] is set while some successor of block b has a LiveIn the
	// solver has not yet unioned into b's LiveOut.
	stale []bool
}

// The four set families, in their order within a block's words.
const (
	famIn = iota
	famOut
	famUE
	famKill
	families
)

// Compute solves liveness for class c. CFG edges must be built, and the
// code must not contain φ-nodes (renumber removes them before liveness is
// next needed).
func Compute(rt *iloc.Routine, c iloc.Class) *Info {
	var infos [iloc.NumClasses]*Info
	infos[c] = new(Info)
	ComputeAllInto(&infos, rt, cfg.ReversePostorder(rt))
	return infos[c]
}

// ComputeAll solves liveness for every register class, as Compute would
// for each, in one walk of the code.
func ComputeAll(rt *iloc.Routine) [iloc.NumClasses]*Info {
	var infos [iloc.NumClasses]*Info
	for c := range infos {
		infos[c] = new(Info)
	}
	ComputeAllInto(&infos, rt, cfg.ReversePostorder(rt))
	return infos
}

// ComputeAllInto is ComputeAll solving each class whose entry in infos
// is not nil into the slab an earlier solve left there, so a solve no
// larger allocates nothing; the earlier sets are overwritten or left
// behind. rpo is a reverse postorder of the routine's blocks, such as
// dom.Tree.Order: the fixpoint is the same in any order, and this one
// reaches it in the fewest sweeps.
func ComputeAllInto(infos *[iloc.NumClasses]*Info, rt *iloc.Routine, rpo []*iloc.Block) {
	var n [iloc.NumClasses]uint // each solved class's register space; 0 skips the class
	for c, info := range infos {
		if info != nil {
			info.reset(iloc.Class(c), len(rt.Blocks), rt.NumRegs(iloc.Class(c)))
			n[c] = uint(info.n)
		}
	}
	var ue, kill [iloc.NumClasses][]uint64
	for _, b := range rt.Blocks {
		for c, info := range infos {
			if info != nil {
				ue[c], kill[c] = info.local(b.Index)
			}
		}
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				panic(fmt.Sprintf("liveness: φ-node in %s/%s", rt.Name, rt.LabelText(b.Label)))
			}
			for _, u := range in.Src[:in.Op.NSrc()] {
				if u.N == 0 || u.Class >= iloc.NumClasses || n[u.Class] == 0 {
					continue
				}
				r := uint(u.N)
				if r >= n[u.Class] {
					outOfRange(rt, u)
				}
				if bit := uint64(1) << (r % 64); kill[u.Class][r/64]&bit == 0 {
					ue[u.Class][r/64] |= bit
				}
			}
			d := in.Def()
			if d.N == 0 || d.Class >= iloc.NumClasses || n[d.Class] == 0 {
				continue
			}
			r := uint(d.N)
			if r >= n[d.Class] {
				outOfRange(rt, d)
			}
			kill[d.Class][r/64] |= 1 << (r % 64)
		}
	}
	for _, info := range infos {
		if info != nil {
			info.fixpoint(rpo)
		}
	}
}

// outOfRange panics on a register outside its routine's register space.
func outOfRange(rt *iloc.Routine, r iloc.Reg) {
	panic(fmt.Sprintf("liveness: %s outside the %d registers of its class in %s", r, rt.NumRegs(r.Class), rt.Name))
}

// reset sizes info for nb blocks of class-c registers below n, with
// every set empty.
func (info *Info) reset(c iloc.Class, nb, n int) {
	w := bitset.Words(n)
	info.Class, info.w, info.n = c, w, n
	info.words = slices.Grow(info.words[:0], families*nb*w)[:families*nb*w]
	clear(info.words)
	info.stale = slices.Grow(info.stale[:0], nb)[:nb]
	for b := range info.stale {
		info.stale[b] = true
	}
}

// view returns family f's set of block b as a view of the slab.
func (info *Info) view(f, b int) bitset.Set {
	return bitset.View(info.words[(families*b+f)*info.w:], info.n)
}

// LiveInOf returns block b's live-in set, a view of the slab that the
// next solve into info overwrites.
func (info *Info) LiveInOf(b int) bitset.Set { return info.view(famIn, b) }

// LiveOutOf returns block b's live-out set, as LiveInOf does.
func (info *Info) LiveOutOf(b int) bitset.Set { return info.view(famOut, b) }

// UEVarOf returns block b's upward-exposed uses, as LiveInOf does.
func (info *Info) UEVarOf(b int) bitset.Set { return info.view(famUE, b) }

// KillOf returns the registers block b defines, as LiveInOf does.
func (info *Info) KillOf(b int) bitset.Set { return info.view(famKill, b) }

// local returns block b's UEVar and Kill words.
func (info *Info) local(b int) (ue, kill []uint64) {
	w := info.w
	blk := info.words[families*w*b : families*w*(b+1)]
	return blk[famUE*w : (famUE+1)*w], blk[famKill*w : (famKill+1)*w]
}

// fixpoint solves the backward problem from the local sets, iterating
// blocks in postorder (reverse RPO) until no LiveIn changes:
// LiveOut(b) = ∪ LiveIn(s) over successors s, and
// LiveIn(b) = UEVar(b) ∪ (LiveOut(b) − Kill(b)).
// A sweep re-evaluates only the blocks a changed LiveIn made stale, so
// on acyclic code the sweep that confirms the fixpoint reads no sets.
func (info *Info) fixpoint(rpo []*iloc.Block) {
	w, words, stale := info.w, info.words, info.stale
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			if !stale[b.Index] {
				continue
			}
			stale[b.Index] = false
			blk := words[families*w*b.Index : families*w*(b.Index+1)]
			in, out := blk[famIn*w:(famIn+1)*w], blk[famOut*w:(famOut+1)*w]
			ue, kill := blk[famUE*w:(famUE+1)*w], blk[famKill*w:(famKill+1)*w]
			for _, s := range b.Succs {
				sin := words[families*w*s.Index:][:w]
				for j := range out {
					out[j] |= sin[j]
				}
			}
			grew := false
			for j := range in {
				if x := ue[j] | out[j]&^kill[j]; x != in[j] {
					in[j] = x
					grew = true
				}
			}
			if grew {
				for _, p := range b.Preds {
					stale[p.Index] = true
				}
				changed = true
			}
		}
	}
}

// Footprint returns the bytes of storage a solve into info reuses: the
// slab and the stale flags.
func (info *Info) Footprint() int { return 8*cap(info.words) + cap(info.stale) }
