package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/target"
)

// The strategy matrix is the design-space extension of Table 1: instead
// of the paper's two allocators it runs every registered allocation
// strategy over the full kernel suite and compares the dynamic cycle
// counts of the allocated programs. It is how a newly registered
// strategy is placed against the existing ones without writing a new
// experiment.

// StrategyMatrixRow aggregates one strategy's results over the suite.
type StrategyMatrixRow struct {
	Strategy    string // canonical spec
	Description string
	// Cycles is the summed dynamic cycle count of every kernel's
	// allocated program on the measured machine.
	Cycles int64
	// Spilled and Remat total the allocator's static counters across
	// the suite; Degraded and Failed count kernels that fell back or
	// errored.
	Spilled  int
	Remat    int
	Degraded int
	Failed   int
	// AllocMs is the summed allocation wall time across the suite.
	AllocMs float64
}

// StrategyMatrix runs the suite under each strategy spec, every
// registered strategy when specs is empty, and returns one row per spec
// in order (registration order by default). A nil machine measures at
// the calibrated pressure point (6+6 registers, as Table 1). Jobs bounds
// the batch worker pool (0 = number of CPUs).
func StrategyMatrix(m *target.Machine, jobs int, specs ...string) ([]StrategyMatrixRow, error) {
	if m == nil {
		m = target.WithRegs(6)
	}
	var strategies []*core.Strategy
	if len(specs) == 0 {
		strategies = core.Strategies()
	}
	for _, spec := range specs {
		s, err := core.LookupStrategy(spec)
		if err != nil {
			return nil, fmt.Errorf("strategy matrix: %w", err)
		}
		strategies = append(strategies, s)
	}
	configs := make([]suiteConfig, len(strategies))
	for si, s := range strategies {
		configs[si] = suiteConfig{m, s.Spec()}
	}
	runs, err := runSuite(configs, jobs, nil)
	if err != nil {
		return nil, fmt.Errorf("strategy matrix: %w", err)
	}

	mem, oth := int64(m.MemCycles), int64(m.OtherCycles)
	rows := make([]StrategyMatrixRow, len(strategies))
	for si, s := range strategies {
		row := StrategyMatrixRow{Strategy: s.Spec(), Description: s.Description()}
		for _, run := range runs[si] {
			if main := run.main; main.Err == nil {
				row.Spilled += main.Result.SpilledRanges
				row.Remat += main.Result.RematSpills
				if main.Result.Degraded {
					row.Degraded++
				}
				row.AllocMs += float64(main.Wall.Microseconds()) / 1000
			}
			if run.err != nil {
				row.Failed++
				continue
			}
			row.Cycles += run.out.Cycles(mem, oth)
		}
		rows[si] = row
	}
	return rows, nil
}

// FormatStrategyMatrix renders the matrix with the default (remat)
// strategy's cycles as the 1.00x reference.
func FormatStrategyMatrix(rows []StrategyMatrixRow, m *target.Machine) string {
	if m == nil {
		m = target.WithRegs(6)
	}
	var ref int64
	for _, r := range rows {
		if r.Strategy == "remat" {
			ref = r.Cycles
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy matrix: dynamic cycles over the full suite (machine %s)\n", m.Name)
	fmt.Fprintf(&b, "%-18s %14s %8s %8s %6s %9s %9s %9s\n",
		"strategy", "cycles", "vs remat", "spilled", "remat", "degraded", "failed", "alloc ms")
	b.WriteString(strings.Repeat("-", 88) + "\n")
	for _, r := range rows {
		rel := "-"
		if ref > 0 {
			rel = fmt.Sprintf("%.2fx", float64(r.Cycles)/float64(ref))
		}
		fmt.Fprintf(&b, "%-18s %14d %8s %8d %6d %9d %9d %9.1f\n",
			r.Strategy, r.Cycles, rel, r.Spilled, r.Remat, r.Degraded, r.Failed, r.AllocMs)
	}
	return b.String()
}
