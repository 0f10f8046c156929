package suite

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/target"
)

// TestKernelsVerifyUnderPressure runs the post-allocation verifier with
// degradation disabled over the whole suite on small machines, where
// nearly every live range spills. Heavy spill traffic is what exercises
// the verifier's slot-discipline and rematerialization rules; an error
// here is either an allocator bug the standard-K tests are too easy to
// catch, or a verifier false positive.
func TestKernelsVerifyUnderPressure(t *testing.T) {
	machines := []*target.Machine{target.WithRegs(3), target.WithRegs(4), target.WithRegs(5)}
	for _, k := range All() {
		k := k
		t.Run(k.Program+"/"+k.Name, func(t *testing.T) {
			for _, m := range machines {
				for _, mode := range []string{"chaitin", "remat"} {
					_, err := core.Allocate(context.Background(), k.Routine(), core.Options{
						Machine: m, Strategy: mode, Verify: true, DisableDegradation: true,
					})
					if err != nil {
						t.Errorf("%s %v: %v", m.Name, mode, err)
					}
				}
			}
			for _, s := range []core.SplitScheme{
				core.SplitAllLoops, core.SplitOuterLoops, core.SplitInactiveLoops, core.SplitAtPhis,
			} {
				_, err := core.Allocate(context.Background(), k.Routine(), core.Options{
					Machine: target.WithRegs(6), Strategy: "remat:split=" + s.String(),
					Verify: true, DisableDegradation: true,
				})
				if err != nil {
					t.Errorf("scheme %v: %v", s, err)
				}
			}
		})
	}
}
