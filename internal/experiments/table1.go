// Package experiments regenerates the paper's tables and figures from
// the reproduction: Table 1 (spill-cost cycles, Optimistic vs
// Rematerialization, with per-instruction-type contributions), Table 2
// (per-phase allocation times), and Figures 1–4. See DESIGN.md §5 for
// the experiment index.
package experiments

import (
	"context"

	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/suite"
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

// table1Alloc locates one measurement configuration's allocations in
// the batch: the main routine's unit index and its callees'.
type table1Alloc struct {
	main    int
	callees []int
}

// Table 1 measures three configurations per kernel: the huge-machine
// zero-spill baseline, Chaitin's allocator, and the rematerializing
// allocator on the standard machine.
const table1Configs = 3

// Table1 reproduces the paper's Table 1 over the synthetic suite. All
// allocations — every kernel, callee and configuration — run as one
// batch through the driver; the interpreter measurements then execute
// in suite order.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Standard == nil {
		cfg.Standard = target.WithRegs(6)
	}
	if cfg.Baseline == nil {
		cfg.Baseline = target.Huge()
	}
	machines := [table1Configs]*target.Machine{cfg.Baseline, cfg.Standard, cfg.Standard}
	strategies := [table1Configs]string{"remat", "chaitin", "remat"}

	kernels := suite.All()
	var units []driver.Unit
	plan := make([][table1Configs]table1Alloc, len(kernels))
	for ki, k := range kernels {
		rt := k.Routine()
		calleeRts := k.CalleeRoutines()
		for ci := 0; ci < table1Configs; ci++ {
			// Callees are allocated with the same options, so the measured
			// program is consistently compiled end to end.
			opts := core.Options{Machine: machines[ci], Strategy: strategies[ci]}
			plan[ki][ci].main = len(units)
			units = append(units, driver.Unit{
				Name:    fmt.Sprintf("%s/%s@%s", k.Name, strategies[ci], machines[ci].Name),
				Routine: rt, Options: &opts,
			})
			for i, crt := range calleeRts {
				plan[ki][ci].callees = append(plan[ki][ci].callees, len(units))
				units = append(units, driver.Unit{
					Name:    fmt.Sprintf("%s/callee%d/%s@%s", k.Name, i, strategies[ci], machines[ci].Name),
					Routine: crt, Options: &opts,
				})
			}
		}
	}
	batch := driver.New(driver.Config{Workers: cfg.Jobs, Cache: cfg.Cache}).Run(context.Background(), units)
	if err := batch.FirstErr(); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}

	var rows []Table1Row
	for ki, k := range kernels {
		row, differs, err := table1Row(k, batch, plan[ki], cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s/%s: %w", k.Program, k.Name, err)
		}
		if differs || cfg.IncludeUnchanged {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runAllocated executes one configuration's allocated program.
func runAllocated(k *suite.Kernel, batch *driver.Batch, a table1Alloc) (*interp.Outcome, error) {
	var callees []*iloc.Routine
	for _, i := range a.callees {
		callees = append(callees, batch.Results[i].Result.Routine)
	}
	return k.ExecuteWith(batch.Results[a.main].Result.Routine, callees)
}

func table1Row(k *suite.Kernel, batch *driver.Batch, allocs [table1Configs]table1Alloc, cfg Table1Config) (Table1Row, bool, error) {
	row := Table1Row{Program: k.Program, Routine: k.Name}

	base, err := runAllocated(k, batch, allocs[0])
	if err != nil {
		return row, false, fmt.Errorf("baseline: %w", err)
	}
	opt, err := runAllocated(k, batch, allocs[1])
	if err != nil {
		return row, false, fmt.Errorf("optimistic: %w", err)
	}
	rem, err := runAllocated(k, batch, allocs[2])
	if err != nil {
		return row, false, fmt.Errorf("remat: %w", err)
	}

	mem := int64(cfg.Standard.MemCycles)
	oth := int64(cfg.Standard.OtherCycles)
	baseCycles := base.Cycles(mem, oth)
	row.Optimistic = opt.Cycles(mem, oth) - baseCycles
	row.Remat = rem.Cycles(mem, oth) - baseCycles

	if row.Optimistic != 0 {
		denom := float64(row.Optimistic)
		pct := func(ops []iloc.Op) float64 {
			d := categoryCycles(opt, cfg.Standard, ops) - categoryCycles(rem, cfg.Standard, ops)
			return 100 * float64(d) / denom
		}
		row.PctLoad = pct(loadOps)
		row.PctStore = pct(storeOps)
		row.PctCopy = pct(copyOps)
		row.PctLdi = pct(ldiOps)
		row.PctAddi = pct(addiOps)
		row.PctTotal = 100 * float64(row.Optimistic-row.Remat) / denom
	}
	return row, row.Optimistic != row.Remat, nil
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
