package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
)

// programCycles allocates kernel k and every callee under one strategy
// on m, one core.Allocate call per routine, and returns the allocated
// program's dynamic cycles priced on the measured machine.
func programCycles(t *testing.T, k *suite.Kernel, m *target.Machine, strategy string, measured *target.Machine) int64 {
	t.Helper()
	opts := core.Options{Machine: m, Strategy: strategy}
	main, err := core.Allocate(context.Background(), k.Routine(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var callees []*iloc.Routine
	for _, crt := range k.CalleeRoutines() {
		res, err := core.Allocate(context.Background(), crt, opts)
		if err != nil {
			t.Fatal(err)
		}
		callees = append(callees, res.Routine)
	}
	out, err := k.ExecuteWith(main.Routine, callees)
	if err != nil {
		t.Fatal(err)
	}
	return out.Cycles(int64(measured.MemCycles), int64(measured.OtherCycles))
}

// TestSplittingStudyAllocatesCallees: every scheme column of the two
// kernels that make calls is the spill cost of the whole program, main
// routine and callees compiled under that scheme, over the huge-machine
// baseline. A column that ran the callees in virtual-register form reads
// far below it (rkfdrv read 0 under every scheme).
func TestSplittingStudyAllocatesCallees(t *testing.T) {
	m := target.WithRegs(6)
	rows, err := SplittingStudy(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rkfdrv", "fmain"} {
		k := suite.ByName(name)
		if len(k.Callees) == 0 {
			t.Fatalf("%s makes no calls", name)
		}
		var row *SplittingRow
		for i := range rows {
			if rows[i].Routine == name {
				row = &rows[i]
			}
		}
		if row == nil {
			t.Fatalf("no %s row", name)
		}
		base := programCycles(t, k, target.Huge(), "remat", m)
		if want := programCycles(t, k, m, "remat", m) - base; row.Baseline != want {
			t.Errorf("%s remat column = %d, want %d", name, row.Baseline, want)
		}
		for i, s := range SplittingSchemes {
			want := programCycles(t, k, m, "remat:split="+s.String(), m) - base
			if row.Cycles[i] != want {
				t.Errorf("%s under %s = %d, want %d", name, s, row.Cycles[i], want)
			}
		}
	}
}
