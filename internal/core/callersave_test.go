package core

import (
	"context"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/liveness"
	"repro/internal/target"
)

// checkNoCallerSaveAcrossCalls walks the allocated code backward the way
// buildGraph does and asserts that no register in the caller-save band
// (colors 1..CallerSave) is live across any call. This pins select's
// boundary: ranges marked acrossCall start their color scan at
// CallerSave+1, so a caller-save color surviving a call would mean the
// callee's clobber corrupts it.
func checkNoCallerSaveAcrossCalls(t *testing.T, rt *iloc.Routine, m *target.Machine) {
	t.Helper()
	calls := 0
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		live := liveness.Compute(rt, c)
		for _, b := range rt.Blocks {
			out := live.LiveOutOf(b.Index)
			lv := out.Copy()
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Op.IsCall() {
					calls++
					lv.ForEach(func(r int) {
						if r >= 1 && r <= m.CallerSave {
							t.Errorf("machine %s: caller-save r%d (class %d) live across %q",
								m, r, c, rt.InstrString(in))
						}
					})
				}
				if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
					lv.Remove(int(d.N))
				}
				for _, u := range rt.Uses(in) {
					if u.Class == c && u.N != 0 {
						lv.Add(int(u.N))
					}
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("test routine contains no calls; nothing verified")
	}
}

// Two values live across a call, allocated on the standard machine and on
// the 3-register one. On standard both fit above the caller-save band; on
// WithRegs(3) only one callee-save color exists (CallerSave=1, k=2), so
// the other range must spill rather than take color 1. Either way the
// static check and the poisoning interpreter must both be satisfied.
func TestCallerSaveBoundary(t *testing.T) {
	callerSrc := `
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 10           ; live across the call
    ldi r3, 20           ; live across the call
    setarg r1, 0
    call square
    getret r4
    add r5, r2, r3
    add r4, r4, r5
    retr r4
`
	for _, m := range []*target.Machine{target.Standard(), target.WithRegs(3)} {
		for _, mode := range []string{"chaitin", "remat"} {
			res, err := Allocate(context.Background(), iloc.MustParse(callerSrc), Options{Machine: m, Strategy: mode})
			if err != nil {
				t.Fatalf("machine %s mode %v: %v", m, mode, err)
			}
			checkNoCallerSaveAcrossCalls(t, res.Routine, m)

			callee, err := Allocate(context.Background(), iloc.MustParse(squareSrc), Options{Machine: m, Strategy: mode})
			if err != nil {
				t.Fatalf("callee on %s: %v", m, err)
			}
			e, err := interp.New(res.Routine, interp.Config{Routines: []*iloc.Routine{callee.Routine}})
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(interp.Int(6))
			if err != nil {
				t.Fatalf("machine %s mode %v: run: %v\n%s", m, mode, err, iloc.Print(res.Routine))
			}
			if out.RetInt != 36+30 {
				t.Fatalf("machine %s mode %v: result = %d, want 66", m, mode, out.RetInt)
			}
		}
	}
}

// On the tiny machine the sole callee-save color is still preferred over
// spilling: a single range across a call must be colored (with color
// CallerSave+1 = 2), not spilled, and the select stats must show zero
// spills for it.
func TestCallerSaveBoundaryTinyMachineColors(t *testing.T) {
	callerSrc := `
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 10           ; the only value live across the call
    setarg r1, 0
    call square
    getret r3
    add r3, r3, r2
    retr r3
`
	m := target.WithRegs(3)
	res, err := Allocate(context.Background(), iloc.MustParse(callerSrc), Options{Machine: m, Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledRanges != 0 {
		t.Fatalf("spilled %d ranges; the callee-save color should have sufficed", res.SpilledRanges)
	}
	checkNoCallerSaveAcrossCalls(t, res.Routine, m)
}
