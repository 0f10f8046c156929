package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
	"repro/internal/verify"
)

// The registry serves the four built-ins, in registration order, and a
// lookup miss names every valid choice.
func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	for _, want := range []string{"chaitin", "remat", "spill-everywhere", "ssa-spill"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry lacks %q (have %v)", want, names)
		}
	}
	if len(Strategies()) != len(names) {
		t.Fatalf("Strategies() has %d entries, StrategyNames() %d", len(Strategies()), len(names))
	}
	for _, s := range Strategies() {
		if s.Description() == "" {
			t.Errorf("strategy %q has no description", s.Name())
		}
	}

	_, err := LookupStrategy("bogus")
	var use *UnknownStrategyError
	if !errors.As(err, &use) {
		t.Fatalf("LookupStrategy(bogus) = %v, want *UnknownStrategyError", err)
	}
	if len(use.Registered) < 4 || !strings.Contains(err.Error(), "ssa-spill") {
		t.Fatalf("unknown-strategy error does not list the registry: %v", err)
	}
	_, err = Allocate(context.Background(), iloc.MustParse(fig1Src), Options{Strategy: "bogus"})
	if !errors.As(err, &use) {
		t.Fatalf("Allocate with an unknown strategy = %v, want *UnknownStrategyError", err)
	}
}

// Parameterized specs canonicalize: every spelling of the same
// configuration has one Spec, and parameters the strategy does not
// accept are rejected.
func TestStrategySpecCanonicalization(t *testing.T) {
	a, err := LookupStrategy("remat:no-bias,split=all-loops")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LookupStrategy("remat:split=all-loops,no-bias")
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec() != b.Spec() {
		t.Fatalf("specs differ: %q vs %q", a.Spec(), b.Spec())
	}
	if plain, _ := LookupStrategy("remat"); plain.Spec() != "remat" {
		t.Fatalf("plain spec = %q", plain.Spec())
	}

	if p := a.params; !p.remat || p.split != SplitAllLoops || !p.noBias {
		t.Fatalf("parameters not applied: %+v", p)
	}

	for _, bad := range []string{
		"remat:frobnicate", "remat:split=sideways", "spill-everywhere:split=all-loops", "ssa-spill:x=1",
		// The ablation switches are bare flags: a value, even one that
		// reads as "off", is rejected rather than silently turning the
		// switch on.
		"remat:no-bias=false", "remat:no-coalesce=no", "remat:no-lookahead=1", "remat:no-bias=",
	} {
		if _, err := LookupStrategy(bad); err == nil {
			t.Errorf("LookupStrategy(%q) succeeded, want error", bad)
		}
	}
}

// Back compatibility of the spec grammar: spellings clients already
// send — explicit defaults, the Unicode metric name, repeated or
// reordered parameters, stray spaces — allocate byte-identically to
// their canonical spec.
func TestStrategyBackCompatByteIdentical(t *testing.T) {
	cases := []struct {
		name       string
		old, canon Options
	}{
		{"remat", Options{Strategy: "remat:split=none,metric=cost/degree"}, Options{Strategy: "remat"}},
		{"chaitin", Options{Strategy: "chaitin:metric=cost/degree"}, Options{Strategy: "chaitin"}},
		{"remat-starved", Options{Strategy: "remat:split=none", Machine: target.WithRegs(3)},
			Options{Strategy: "remat", Machine: target.WithRegs(3)}},
		{"split-param", Options{Strategy: "remat:split=outer-loops,split=all-loops"},
			Options{Strategy: "remat:split=all-loops"}},
		{"ablation-params", Options{Strategy: "remat: no-coalesce ,no-bias"},
			Options{Strategy: "remat:no-bias,no-coalesce"}},
		{"metric-param", Options{Strategy: "remat:metric=cost/degree²"},
			Options{Strategy: "remat:metric=cost/degree2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oldRes, err := Allocate(context.Background(), iloc.MustParse(fig1Src), c.old)
			if err != nil {
				t.Fatal(err)
			}
			newRes, err := Allocate(context.Background(), iloc.MustParse(fig1Src), c.canon)
			if err != nil {
				t.Fatal(err)
			}
			if oldRes.Strategy != newRes.Strategy || newRes.Strategy != c.canon.Strategy {
				t.Fatalf("Result.Strategy = %q and %q, want %q", oldRes.Strategy, newRes.Strategy, c.canon.Strategy)
			}
			if got, want := iloc.Print(oldRes.Routine), iloc.Print(newRes.Routine); got != want {
				t.Fatalf("spelling %q allocates differently from %q:\n--- canonical\n%s\n--- spelling\n%s",
					c.old.Strategy, c.canon.Strategy, want, got)
			}
		})
	}
}

// Every registered strategy allocates the Figure 1 kernel, passes the
// independent verifier (standard and starved machines), computes the
// same answer as the virtual-register input, and stamps its canonical
// spec on the result.
func TestEveryStrategyAllocatesAndVerifies(t *testing.T) {
	for _, strat := range Strategies() {
		for _, m := range []*target.Machine{target.Standard(), target.WithRegs(3)} {
			name := strat.Name() + "@" + m.Name
			t.Run(name, func(t *testing.T) {
				rt := iloc.MustParse(fig1Src)
				res, err := Allocate(context.Background(), rt,
					Options{Strategy: strat.Name(), Machine: m, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Degraded {
					t.Fatalf("degraded: %s", res.DegradeReason)
				}
				if res.Strategy != strat.Spec() {
					t.Fatalf("Result.Strategy = %q, want %q", res.Strategy, strat.Spec())
				}
				if err := verify.Check(rt, res.Routine, m, verify.Options{Differential: true}); err != nil {
					t.Fatalf("verifier rejects %s output: %v\n%s", strat.Name(), err, iloc.Print(res.Routine))
				}
				runSame(t, rt, res.Routine, interp.Int(4))
			})
		}
	}
}

// The ssa-spill strategy's SSA-derived improvements are observable:
// relative to plain spill-everywhere it must never execute more memory
// traffic, and on code with a dead definition it elides the store.
func TestSSASpillElidesDeadStores(t *testing.T) {
	// r4 is computed and never used: spill-everywhere stores it, the
	// SSA form sees an unread web and skips the store.
	src := `routine deadstore()
L0:
    ldi r2, 7
    ldi r3, 35
    add r4, r2, r3
    add r5, r3, r2
    retr r5
`
	rt := iloc.MustParse(src)
	plain, err := Allocate(context.Background(), rt.Clone(), Options{Strategy: "spill-everywhere", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	ssa, err := Allocate(context.Background(), rt.Clone(), Options{Strategy: "ssa-spill", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *iloc.Routine) (stores int) {
		r.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
			if in.IsSpill && (in.Op == iloc.OpStoreai || in.Op == iloc.OpFstoreai) {
				stores++
			}
		})
		return
	}
	if ps, ss := count(plain.Routine), count(ssa.Routine); ss >= ps {
		t.Fatalf("ssa-spill emitted %d spill stores, plain spill-everywhere %d — dead store not elided:\n%s",
			ss, ps, iloc.Print(ssa.Routine))
	}
}

// Strategy resolution participates in option canonicalization: the
// spellings of one configuration collapse, distinct strategies stay
// distinct, and an empty spec means chaitin.
func TestStrategyCanonicalOptions(t *testing.T) {
	if a := (Options{}).Canonical(); a.Strategy != "chaitin" {
		t.Fatalf("empty strategy canonicalizes to %q, want chaitin", a.Strategy)
	}
	if b := (Options{Strategy: "remat"}).Canonical(); b.Strategy != "remat" {
		t.Fatalf("remat canonicalizes to %q", b.Strategy)
	}
	c := Options{Strategy: "remat:split=all-loops,no-bias"}.Canonical()
	d := Options{Strategy: "remat:no-bias,split=all-loops"}.Canonical()
	if c.Strategy != d.Strategy || c.Strategy != "remat:no-bias,split=all-loops" {
		t.Fatalf("parameterized canonical forms differ: %q vs %q", c.Strategy, d.Strategy)
	}
	e := Options{Strategy: "ssa-spill"}.Canonical()
	if e.Strategy != "ssa-spill" {
		t.Fatalf("ssa-spill canonical strategy = %q", e.Strategy)
	}
}

// canonicalSpecs pins how specs canonicalize: defaults vanish, a
// repeated key's last value wins, blank parameters and surrounding
// spaces are ignored, parameters sort, and the metric is spelled in
// ASCII. The fuzz target seeds from it.
var canonicalSpecs = []struct{ in, want string }{
	{"", "chaitin"},
	{"chaitin", "chaitin"},
	{"remat", "remat"},
	{"remat:", "remat"},
	{"remat:split=none", "remat"},
	{"remat:metric=cost/degree", "remat"},
	{"remat:split=all-loops,split=none", "remat"},
	{"remat:metric=cost/degree²", "remat:metric=cost/degree2"},
	{"remat:metric=cost/degree2", "remat:metric=cost/degree2"},
	{"chaitin:metric=cost", "chaitin:metric=cost"},
	{"remat: no-bias , ,split=all-loops", "remat:no-bias,split=all-loops"},
	{"remat:split=all-phis,no-lookahead,no-coalesce,no-bias,metric=cost",
		"remat:metric=cost,no-bias,no-coalesce,no-lookahead,split=all-phis"},
	{"ssa-spill", "ssa-spill"},
}

// Every spelling in the table canonicalizes as pinned, and the
// strategy's Spec and the options' Canonical strategy are one string.
func TestCanonicalSpecTable(t *testing.T) {
	for _, c := range canonicalSpecs {
		got := Options{Strategy: c.in}.Canonical().Strategy
		if got != c.want {
			t.Errorf("Canonical(%q).Strategy = %q, want %q", c.in, got, c.want)
		}
		if c.in == "" {
			continue // the empty spec is an Options default, not a spec
		}
		s, err := LookupStrategy(c.in)
		if err != nil {
			t.Errorf("LookupStrategy(%q): %v", c.in, err)
			continue
		}
		if s.Spec() != got {
			t.Errorf("LookupStrategy(%q).Spec() = %q, Canonical().Strategy = %q", c.in, s.Spec(), got)
		}
	}
}

// FuzzLookupStrategy feeds arbitrary spec text — it arrives from HTTP
// bodies and CLI flags — to LookupStrategy: it must never panic, and an
// accepted spec's canonical form must be a fixed point, resolving to
// itself.
func FuzzLookupStrategy(f *testing.F) {
	for _, c := range canonicalSpecs {
		f.Add(c.in)
	}
	f.Add("remat:no-bias=false")
	f.Add("spill-everywhere:,")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := LookupStrategy(spec)
		if err != nil {
			return
		}
		again, err := LookupStrategy(s.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q of %q does not resolve: %v", s.Spec(), spec, err)
		}
		if again.Spec() != s.Spec() || again.params != s.params {
			t.Fatalf("canonical spec %q of %q resolves to %q (%+v vs %+v)",
				s.Spec(), spec, again.Spec(), again.params, s.params)
		}
	})
}
