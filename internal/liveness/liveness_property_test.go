package liveness_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/rgen"
)

// Property: on definite-assignment-clean programs nothing is live into
// the entry block.
func TestPropertyEntryLiveInEmpty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		if err := cfg.CheckDefined(rt); err != nil {
			t.Fatalf("seed %d: generator produced unclean program: %v", seed, err)
		}
		for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
			li := liveness.Compute(rt, c)
			if !ptr(li.LiveInOf(rt.Entry().Index)).Empty() {
				t.Fatalf("seed %d class %v: live-in(entry) = %v",
					seed, c, ptr(li.LiveInOf(rt.Entry().Index)))
			}
		}
	}
}

// Property: the fixpoint satisfies the dataflow equations —
// LiveOut(b) = ∪ LiveIn(s) over successors, and
// LiveIn(b) = UEVar(b) ∪ (LiveOut(b) − Kill(b)).
func TestPropertyDataflowEquationsHold(t *testing.T) {
	for seed := int64(25); seed < 45; seed++ {
		rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: 5})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
			li := liveness.Compute(rt, c)
			n := rt.NumRegs(c)
			for _, b := range rt.Blocks {
				out := bitset.New(n)
				for _, s := range b.Succs {
					out.UnionWith(ptr(li.LiveInOf(s.Index)))
				}
				if !out.Equal(ptr(li.LiveOutOf(b.Index))) {
					t.Fatalf("seed %d %s class %v: LiveOut equation violated", seed, rt.Labels[b.Label], c)
				}
				in := ptr(li.LiveOutOf(b.Index)).Copy()
				in.DifferenceWith(ptr(li.KillOf(b.Index)))
				in.UnionWith(ptr(li.UEVarOf(b.Index)))
				if !in.Equal(ptr(li.LiveInOf(b.Index))) {
					t.Fatalf("seed %d %s class %v: LiveIn equation violated", seed, rt.Labels[b.Label], c)
				}
			}
		}
	}
}

// Property: liveness agrees with a brute-force path search — r is live
// into b iff some path from b reaches a use of r before any definition.
func TestPropertyAgainstBruteForce(t *testing.T) {
	for seed := int64(45); seed < 55; seed++ {
		rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: 4})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		c := iloc.ClassInt
		li := liveness.Compute(rt, c)
		n := rt.NumRegs(c)

		// bruteLiveIn(b, r): DFS over blocks; within a block, scan for use
		// before def.
		var bruteLiveIn func(b *iloc.Block, r int, seen []bool) bool
		bruteLiveIn = func(b *iloc.Block, r int, seen []bool) bool {
			if seen[b.Index] {
				return false
			}
			seen[b.Index] = true
			for _, in := range b.Instrs {
				for _, u := range rt.Uses(in) {
					if u.Class == c && int(u.N) == r {
						return true
					}
				}
				if d := in.Def(); d.Valid() && d.Class == c && int(d.N) == r {
					return false
				}
			}
			for _, s := range b.Succs {
				if bruteLiveIn(s, r, seen) {
					return true
				}
			}
			return false
		}

		for _, b := range rt.Blocks {
			for r := 1; r < n; r++ {
				want := bruteLiveIn(b, r, make([]bool, len(rt.Blocks)))
				if got := ptr(li.LiveInOf(b.Index)).Has(r); got != want {
					t.Fatalf("seed %d: LiveIn(%s, r%d) = %v, brute force says %v",
						seed, rt.Labels[b.Label], r, got, want)
				}
			}
		}
	}
}

// ptr returns a pointer to a copy of s, for calling the set's methods on
// an accessor's result.
func ptr(s bitset.Set) *bitset.Set { return &s }
