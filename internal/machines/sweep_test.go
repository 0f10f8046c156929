package machines

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
	"repro/internal/verify"
)

// TestSuiteVerifiesAcrossZoo sweeps the whole kernel suite across every
// registered machine, at its native K and at the starved variant, with
// the independent verifier required to accept every result — zero
// rejections anywhere in the zoo. Degradations are tolerated at
// starved K (three colors can defeat the iterated allocator) but
// logged, so a machine that starts degrading en masse is visible.
func TestSuiteVerifiesAcrossZoo(t *testing.T) {
	type unit struct {
		name string
		rt   *iloc.Routine
	}
	var units []unit
	for _, k := range suite.All() {
		units = append(units, unit{k.Name, k.Routine()})
		for i, crt := range k.CalleeRoutines() {
			units = append(units, unit{fmt.Sprintf("%s/callee%d", k.Name, i), crt})
		}
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			variants := []struct {
				m       *target.Machine
				starved bool
			}{{e.Machine, false}, {Starved(e.Machine), true}}
			for _, v := range variants {
				degraded := 0
				for _, u := range units {
					res, err := core.Allocate(context.Background(), u.rt, core.Options{
						Machine: v.m, Strategy: "remat", Verify: true,
					})
					if err != nil {
						t.Errorf("%s @ %s: %v", u.name, v.m.Name, err)
						continue
					}
					if err := verify.Check(u.rt, res.Routine, v.m, verify.Options{}); err != nil {
						t.Errorf("%s @ %s: verifier rejected result: %v", u.name, v.m.Name, err)
					}
					if res.Degraded {
						degraded++
					}
				}
				if degraded > 0 && !v.starved {
					t.Errorf("%s: %d/%d kernels degraded at native K", v.m.Name, degraded, len(units))
				}
				t.Logf("%s: %d/%d degraded", v.m.Name, degraded, len(units))
			}
		})
	}
}
