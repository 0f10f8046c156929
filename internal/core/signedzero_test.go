package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
)

// signedZeroSrc returns 1/0.0 = +Inf on one path and 1/-0.0 = -Inf on
// the other. Spilling f1 is profitable, since rematerializing deletes
// both definitions for one recomputation, so a tag that took the two
// constants for one would return the same infinity on both paths.
const signedZeroSrc = `
routine signedzero(r1)
entry:
    getparam r1, 0
    br gt r1, pos, neg
pos:
    fldi f1, 0.0
    jmp join
neg:
    fldi f1, -0.0
    jmp join
join:
    fldi f2, 1.0
    fdiv f3, f2, f1
    retf f3
`

// The input and both strategies' allocations return the same bits for
// either sign of the argument.
func TestSignedZeroConstantsStayApart(t *testing.T) {
	in := iloc.MustParse(signedZeroSrc)
	run := func(rt *iloc.Routine, arg int64) uint64 {
		t.Helper()
		e, err := interp.New(rt, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(interp.Int(arg))
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(out.RetFloat)
	}
	for _, spec := range []string{"remat", "chaitin"} {
		res, err := Allocate(context.Background(), in, Options{Machine: target.Standard(), Strategy: spec, DisableDegradation: true})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, arg := range []int64{1, -1} {
			if got, want := run(res.Routine, arg), run(in, arg); got != want {
				t.Errorf("%s, argument %d: returns %v, the input %v\n%s", spec, arg,
					math.Float64frombits(got), math.Float64frombits(want), iloc.Print(res.Routine))
			}
		}
	}
}
