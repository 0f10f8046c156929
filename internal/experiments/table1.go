// Package experiments regenerates the paper's tables and figures from
// the reproduction: Table 1 (spill-cost cycles, Optimistic vs
// Rematerialization, with per-instruction-type contributions), Table 2
// (per-phase allocation times), and Figures 1–4. See DESIGN.md §5 for
// the experiment index.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
)

// Instruction categories of Table 1's middle columns.
var (
	loadOps = []iloc.Op{
		iloc.OpLoad, iloc.OpLoadai, iloc.OpLoadao,
		iloc.OpFload, iloc.OpFloadai, iloc.OpFloadao,
		iloc.OpRload, iloc.OpFrload, iloc.OpGetparam, iloc.OpFgetparam,
	}
	storeOps = []iloc.Op{iloc.OpStore, iloc.OpStoreai, iloc.OpFstore, iloc.OpFstoreai}
	copyOps  = []iloc.Op{iloc.OpMov, iloc.OpFmov}
	ldiOps   = []iloc.Op{iloc.OpLdi, iloc.OpFldi, iloc.OpLda}
	addiOps  = []iloc.Op{iloc.OpAddi, iloc.OpSubi, iloc.OpMuli}
)

// categoryCycles prices one instruction category of an outcome.
func categoryCycles(out *interp.Outcome, m *target.Machine, ops []iloc.Op) int64 {
	var total int64
	for _, op := range ops {
		total += out.Counts[op] * int64(m.Cycles(op))
	}
	return total
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Program string
	Routine string
	// Spill-code cycles: dynamic cycles on the standard machine minus
	// cycles on the huge (128-register) baseline, per allocator (§5.2).
	Optimistic int64
	Remat      int64
	// Percentage contribution of each instruction category to the
	// improvement, and the total improvement, as in the paper
	// (positive = the new allocator wins).
	PctLoad, PctStore, PctCopy, PctLdi, PctAddi, PctTotal float64
}

// Table1Config tunes the experiment.
type Table1Config struct {
	// Standard is the machine whose spill behaviour is measured. The
	// paper uses 16+16 registers on routines averaging hundreds of
	// lines; the synthetic kernels here are roughly a tenth that size,
	// so the default shrinks the register file to 6+6 to reach the same
	// pressure (see EXPERIMENTS.md). Pass target.Standard() for the
	// paper's literal register count, or sweep with target.WithRegs.
	Standard *target.Machine
	Baseline *target.Machine // defaults to the 128-register huge machine
	// IncludeUnchanged keeps rows where the two allocators tie (the
	// paper shows only routines with a difference).
	IncludeUnchanged bool
	// Jobs bounds the batch driver's worker pool for the experiment's
	// allocations (0 = number of CPUs). Rows are deterministic whatever
	// the parallelism.
	Jobs int
	// Cache, when non-nil, is shared with the batch driver; the register
	// sweep reuses the baseline allocations of earlier runs through it.
	Cache *driver.Cache
}

// Table1 reproduces the paper's Table 1 over the synthetic suite from
// three runs of the suite: the huge-machine zero-spill baseline,
// Chaitin's allocator and the rematerializing allocator on the standard
// machine.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Standard == nil {
		cfg.Standard = target.WithRegs(6)
	}
	if cfg.Baseline == nil {
		cfg.Baseline = target.Huge()
	}
	runs, err := runSuite([]suiteConfig{
		{cfg.Baseline, "remat"}, {cfg.Standard, "chaitin"}, {cfg.Standard, "remat"},
	}, cfg.Jobs, cfg.Cache)
	if err == nil {
		err = firstErr(runs)
	}
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}

	var rows []Table1Row
	for ki := range runs[0] {
		row := table1Row(runs[0][ki], runs[1][ki], runs[2][ki], cfg.Standard)
		if row.Optimistic != row.Remat || cfg.IncludeUnchanged {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func table1Row(base, opt, rem kernelRun, m *target.Machine) Table1Row {
	row := Table1Row{
		Program:    base.kernel.Program,
		Routine:    base.kernel.Name,
		Optimistic: spillCycles(opt, base, m),
		Remat:      spillCycles(rem, base, m),
	}
	if row.Optimistic != 0 {
		denom := float64(row.Optimistic)
		pct := func(ops []iloc.Op) float64 {
			d := categoryCycles(opt.out, m, ops) - categoryCycles(rem.out, m, ops)
			return 100 * float64(d) / denom
		}
		row.PctLoad = pct(loadOps)
		row.PctStore = pct(storeOps)
		row.PctCopy = pct(copyOps)
		row.PctLdi = pct(ldiOps)
		row.PctAddi = pct(addiOps)
		row.PctTotal = 100 * float64(row.Optimistic-row.Remat) / denom
	}
	return row
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Effects of Rematerialization\n")
	b.WriteString(fmt.Sprintf("%-10s %-8s | %12s %12s | %6s %6s %6s %6s %6s | %6s\n",
		"program", "routine", "Optimistic", "Remat", "load", "store", "copy", "ldi", "addi", "total"))
	b.WriteString(strings.Repeat("-", 102) + "\n")
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-10s %-8s | %12d %12d | %6s %6s %6s %6s %6s | %6s\n",
			r.Program, r.Routine, r.Optimistic, r.Remat,
			fmtPct(r.PctLoad), fmtPct(r.PctStore), fmtPct(r.PctCopy),
			fmtPct(r.PctLdi), fmtPct(r.PctAddi), fmtPct(r.PctTotal)))
	}
	return b.String()
}

// fmtPct rounds like the paper: blank for exactly zero, "0" for an
// insignificant gain, "-0" for an insignificant loss.
func fmtPct(p float64) string {
	switch {
	case p == 0:
		return ""
	case p > 0 && p < 0.5:
		return "0"
	case p < 0 && p > -0.5:
		return "-0"
	default:
		return fmt.Sprintf("%.0f", p)
	}
}
