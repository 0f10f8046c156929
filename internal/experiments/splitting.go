package experiments

import (
	"context"

	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/suite"
	"repro/internal/target"
)

// runStrategy allocates the kernel and its callees under one strategy
// spec and executes the allocated program.
func runStrategy(k *suite.Kernel, m *target.Machine, strategy string) (*interp.Outcome, error) {
	opts := core.Options{Machine: m, Strategy: strategy}
	res, err := core.Allocate(context.Background(), k.Routine(), opts)
	if err != nil {
		return nil, err
	}
	var callees []*iloc.Routine
	for _, callee := range k.CalleeRoutines() {
		cres, err := core.Allocate(context.Background(), callee, opts)
		if err != nil {
			return nil, err
		}
		callees = append(callees, cres.Routine)
	}
	return k.ExecuteWith(res.Routine, callees)
}

// SplittingRow compares §6's splitting schemes against the plain
// rematerializing allocator on one kernel: spill-code cycles under each
// scheme (same huge-machine baseline as Table 1).
type SplittingRow struct {
	Program string
	Routine string
	// Cycles of spill code per scheme, in SplittingSchemes order;
	// Baseline is SplitNone.
	Baseline int64
	Cycles   []int64
}

// SplittingSchemes lists the schemes the study sweeps (§6 schemes 1–4).
var SplittingSchemes = []core.SplitScheme{
	core.SplitAllLoops,
	core.SplitOuterLoops,
	core.SplitInactiveLoops,
	core.SplitAtPhis,
}

// SplittingStudy reproduces the experimental comparison behind §6: each
// scheme is run over the suite and judged against the §5 results, which
// is exactly how the paper evaluated them ("the results of splitting are
// compared to the results presented in Section 5"). Expect a mix of
// improvements and degradations.
func SplittingStudy(m *target.Machine) ([]SplittingRow, error) {
	if m == nil {
		m = target.WithRegs(6)
	}
	baseMachine := target.Huge()
	var rows []SplittingRow
	for _, k := range suite.All() {
		base, err := runStrategy(k, baseMachine, "remat")
		if err != nil {
			return nil, fmt.Errorf("splitting %s baseline: %w", k.Name, err)
		}
		baseCycles := base.Cycles(int64(m.MemCycles), int64(m.OtherCycles))

		row := SplittingRow{Program: k.Program, Routine: k.Name}
		plain, err := runStrategy(k, m, "remat")
		if err != nil {
			return nil, fmt.Errorf("splitting %s plain: %w", k.Name, err)
		}
		row.Baseline = plain.Cycles(int64(m.MemCycles), int64(m.OtherCycles)) - baseCycles

		for _, s := range SplittingSchemes {
			res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: "remat:split=" + s.String()})
			if err != nil {
				return nil, fmt.Errorf("splitting %s %v: %w", k.Name, s, err)
			}
			out, err := k.Execute(res.Routine)
			if err != nil {
				return nil, fmt.Errorf("splitting %s %v: %w", k.Name, s, err)
			}
			row.Cycles = append(row.Cycles, out.Cycles(int64(m.MemCycles), int64(m.OtherCycles))-baseCycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSplitting renders the study.
func FormatSplitting(rows []SplittingRow) string {
	var b strings.Builder
	b.WriteString("Splitting schemes (§6): spill-code cycles vs the §5 allocator\n")
	fmt.Fprintf(&b, "%-10s %-8s | %9s", "program", "routine", "remat")
	for _, s := range SplittingSchemes {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s | %9d", r.Program, r.Routine, r.Baseline)
		for _, c := range r.Cycles {
			fmt.Fprintf(&b, " %14d", c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
