package dom_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	. "repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/rgen"
)

func build(t *testing.T, src string) *iloc.Routine {
	t.Helper()
	rt := iloc.MustParse(src)
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	return rt
}

const ladderSrc = `
routine f(r1)
entry:
    getparam r1, 0
    br gt r1, b1, b2
b1:
    ldi r2, 1
    jmp b3
b2:
    ldi r2, 2
    br lt r1, b3, b4
b3:
    addi r2, r2, 1
    jmp b5
b4:
    ldi r2, 4
    jmp b5
b5:
    retr r2
`

func TestLadderIdoms(t *testing.T) {
	rt := build(t, ladderSrc)
	tr := Compute(rt)
	idx := func(l string) int { return rt.BlockByLabel(l).Index }
	cases := map[string]string{
		"b1": "entry", "b2": "entry", "b3": "entry", "b4": "b2", "b5": "entry",
	}
	for b, want := range cases {
		if tr.Idom[idx(b)] != idx(want) {
			t.Errorf("idom(%s) = block %d, want %s", b, tr.Idom[idx(b)], want)
		}
	}
}

func TestDominatesReflexiveAndTransitive(t *testing.T) {
	rt := build(t, ladderSrc)
	tr := Compute(rt)
	for _, b := range rt.Blocks {
		if !tr.Dominates(b.Index, b.Index) {
			t.Fatalf("Dominates not reflexive at %s", rt.Labels[b.Label])
		}
		if !tr.Dominates(rt.Entry().Index, b.Index) {
			t.Fatalf("entry must dominate %s", rt.Labels[b.Label])
		}
	}
}

// Brute-force dominance: a dominates b iff removing a makes b
// unreachable from the entry.
func bruteDominates(rt *iloc.Routine, a, b int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(rt.Blocks))
	var walk func(x *iloc.Block)
	walk = func(x *iloc.Block) {
		if seen[x.Index] || x.Index == a {
			return
		}
		seen[x.Index] = true
		for _, s := range x.Succs {
			walk(s)
		}
	}
	walk(rt.Entry())
	return !seen[b]
}

// Property: the CHK dominator tree agrees with brute-force dominance on
// random programs.
func TestQuickDominatorsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: 5})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		tr := Compute(rt)
		n := len(rt.Blocks)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := tr.Dominates(a, b), bruteDominates(rt, a, b); got != want {
					t.Fatalf("seed %d: Dominates(%d,%d) = %v, brute force says %v", seed, a, b, got, want)
				}
			}
		}
	}
}

// Property: dominance frontier definition holds — j ∈ DF(b) iff b
// dominates a predecessor of j but does not strictly dominate j.
func TestQuickFrontierDefinition(t *testing.T) {
	for seed := int64(30); seed < 50; seed++ {
		rt := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: 5})
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		tr := Compute(rt)
		df := Frontiers(tr, rt)
		inDF := func(b, j int) bool {
			for _, x := range df[b] {
				if x == j {
					return true
				}
			}
			return false
		}
		for b := 0; b < len(rt.Blocks); b++ {
			for _, j := range rt.Blocks {
				want := false
				for _, p := range j.Preds {
					if tr.Dominates(b, p.Index) && !(b != j.Index && tr.Dominates(b, j.Index)) {
						want = true
					}
				}
				if got := inDF(b, j.Index); got != want {
					t.Fatalf("seed %d: DF membership (%d,%d) = %v, want %v", seed, b, j.Index, got, want)
				}
			}
		}
	}
}
