package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/target"
)

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
	configs := []suiteConfig{{target.Huge(), "remat"}, {m, "remat"}}
	for _, s := range SplittingSchemes {
		configs = append(configs, suiteConfig{m, "remat:split=" + s.String()})
	}
	runs, err := runSuite(configs, 0, nil)
	if err == nil {
		err = firstErr(runs)
	}
	if err != nil {
		return nil, fmt.Errorf("splitting: %w", err)
	}
	rows := make([]SplittingRow, len(runs[0]))
	for ki, base := range runs[0] {
		rows[ki] = SplittingRow{
			Program:  base.kernel.Program,
			Routine:  base.kernel.Name,
			Baseline: spillCycles(runs[1][ki], base, m),
		}
		for _, schemeRuns := range runs[2:] {
			rows[ki].Cycles = append(rows[ki].Cycles, spillCycles(schemeRuns[ki], base, m))
		}
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
