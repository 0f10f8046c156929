package liveness

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/rgen"
)

// slabRoutines returns the benchmark corpus and generated programs of
// up to 8 regions with up to 40 register pairs of pressure, CFGs built,
// so some register spaces span more than one word.
func slabRoutines(t *testing.T) []*iloc.Routine {
	t.Helper()
	rts := corpusRoutines(t)
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		rt := rgen.Generate(r, rgen.Config{Regions: 1 + int(seed%8), Pressure: 1 + int(seed%40)})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	multiword := 0
	for _, rt := range rts {
		if rt.NumRegs(iloc.ClassInt) > 64 || rt.NumRegs(iloc.ClassFlt) > 64 {
			multiword++
		}
	}
	if multiword < 2 {
		t.Fatalf("%d routines have a register space of more than one word, want at least 2", multiword)
	}
	return rts
}

// setsOf lists info's sets as its accessors give them, family by
// family, for a routine of nb blocks.
func (info *Info) setsOf(nb int) [][]*bitset.Set {
	fams := make([][]*bitset.Set, families)
	for b := range nb {
		for f, s := range [families]bitset.Set{info.LiveInOf(b), info.LiveOutOf(b), info.UEVarOf(b), info.KillOf(b)} {
			fams[f] = append(fams[f], &s)
		}
	}
	return fams
}

// liveIn, liveOut, ueVar and kill return block b's sets as pointers,
// for the tests to call the sets' methods on.
func (info *Info) liveIn(b int) *bitset.Set  { s := info.LiveInOf(b); return &s }
func (info *Info) liveOut(b int) *bitset.Set { s := info.LiveOutOf(b); return &s }
func (info *Info) ueVar(b int) *bitset.Set   { s := info.UEVarOf(b); return &s }
func (info *Info) kill(b int) *bitset.Set    { s := info.KillOf(b); return &s }

// sameSolution reports how got differs from want, set for set.
func sameSolution(got, want *Info, nb int) error {
	if got.Class != want.Class {
		return fmt.Errorf("class %v, want %v", got.Class, want.Class)
	}
	return sameSets(got.setsOf(nb), want.setsOf(nb))
}

// sameSets reports how got differs from want, set for set.
func sameSets(got, want [][]*bitset.Set) error {
	for f, sets := range got {
		if len(sets) != len(want[f]) {
			return fmt.Errorf("family %d: %d sets, want %d", f, len(sets), len(want[f]))
		}
		for b, s := range sets {
			if !s.Equal(want[f][b]) {
				return fmt.Errorf("family %d, block %d: %v, want %v", f, b, s, want[f][b])
			}
		}
	}
	return nil
}

// The both-class solve gives each class exactly what a solve of that
// class alone gives, set for set, whatever either storage held before,
// and exactly what Compute and ComputeAll give on fresh storage.
func TestComputeAllMatchesComputeInto(t *testing.T) {
	all := [iloc.NumClasses]*Info{new(Info), new(Info)}
	var one Info
	for _, rt := range slabRoutines(t) {
		nb := len(rt.Blocks)
		rpo := cfg.ReversePostorder(rt)
		ComputeAllInto(&all, rt, rpo)
		fresh := ComputeAll(rt)
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			solveInto(&one, rt, c, rpo)
			if err := sameSolution(all[c], &one, nb); err != nil {
				t.Fatalf("%s, class %v: both-class solve: %v", rt.Name, c, err)
			}
			if err := sameSolution(&one, Compute(rt, c), nb); err != nil {
				t.Fatalf("%s, class %v: against Compute: %v", rt.Name, c, err)
			}
			if err := sameSolution(all[c], fresh[c], nb); err != nil {
				t.Fatalf("%s, class %v: against ComputeAll: %v", rt.Name, c, err)
			}
		}
	}
}

// Every set is a view of one slab, but writing through one set (adding
// every register, or resetting it past its words) leaves every other
// set of the solution unchanged.
func TestWritingOneViewLeavesTheOthers(t *testing.T) {
	for _, rt := range slabRoutines(t) {
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			info := Compute(rt, c)
			var sets []*bitset.Set
			for _, fam := range info.setsOf(len(rt.Blocks)) {
				sets = append(sets, fam...)
			}
			before := make([]*bitset.Set, len(sets))
			for i, s := range sets {
				before[i] = s.Copy()
			}
			for i, s := range sets {
				for r := 0; r < s.Len(); r++ {
					s.Add(r)
				}
				for j, o := range sets {
					if j != i && !o.Equal(before[j]) {
						t.Fatalf("%s class %v: filling set %d changed set %d", rt.Name, c, i, j)
					}
				}
				s.CopyFrom(before[i])
			}
			grown := sets[0]
			n := grown.Len()
			grown.Reset(n + 128)
			grown.Add(n + 100)
			for j, o := range sets[1:] {
				if !o.Equal(before[j+1]) {
					t.Fatalf("%s class %v: growing set 0 changed set %d", rt.Name, c, j+1)
				}
			}
		}
	}
}
