package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/suite"
	"repro/internal/target"
)

// Table2Routines are the three routines the paper times, spanning small,
// medium and large (repvid: 144 lines, tomcatv: 133, twldrv: 881).
var Table2Routines = []string{"repvid", "tomcatv", "twldrv"}

// Table2Cell is one (phase, iteration) timing, averaged over runs, for
// the Old (Chaitin-scheme) and New (rematerialization) allocators.
type Table2Cell struct {
	Phase string
	Old   time.Duration
	New   time.Duration
}

// PassTotal aggregates one pipeline pass over a whole allocation: how
// many times it executed and its total wall time, averaged over runs.
type PassTotal struct {
	Pass string
	Old  time.Duration
	New  time.Duration
	// OldRuns and NewRuns count executions of the pass across all
	// iterations of one allocation.
	OldRuns int
	NewRuns int
}

// Table2Column is one routine's timing column: cells in Table 2's row
// order (cfa once, then renum/build/costs/color/spill per iteration),
// plus totals and the finer per-pass breakdown from the instrumented
// pipeline.
type Table2Column struct {
	Routine  string
	Cells    []Table2Cell
	OldTotal time.Duration
	NewTotal time.Duration
	// Passes breaks the totals down by pipeline pass (build vs the two
	// coalescing rounds, simplify/select vs rewrite, ...), in execution
	// order. Passes that never ran for either mode are omitted.
	Passes []PassTotal
}

// table2Modes is the column order within one routine: the paper's Old
// (Chaitin) allocator, then New (rematerialization).
var table2Modes = []string{"chaitin", "remat"}

// Table2 reproduces the paper's allocation-time table: each routine is
// allocated `runs` times per mode (the paper uses 10) and the phase times
// of corresponding iterations are averaged. The default machine is the
// calibrated 6-register one so the color–spill loop iterates a few
// times, as in the paper's table (tomcatv there needed an extra round).
func Table2(m *target.Machine, runs int) ([]Table2Column, error) {
	return Table2Jobs(m, runs, 1)
}

// Table2Jobs is Table2 with the allocations sharded across the batch
// driver's worker pool (jobs <= 0 uses the number of CPUs). Every
// repetition is a distinct unit and caching is off — each timing must
// come from a real allocation. With jobs > 1 the per-phase times include
// scheduling noise from concurrent allocations; use jobs = 1 for
// paper-grade timing columns.
func Table2Jobs(m *target.Machine, runs, jobs int) ([]Table2Column, error) {
	if m == nil {
		m = target.WithRegs(6)
	}
	if runs <= 0 {
		runs = 10
	}

	// One batch: routine-major, then mode, then repetition.
	var units []driver.Unit
	for _, name := range Table2Routines {
		k := suite.ByName(name)
		if k == nil {
			return nil, fmt.Errorf("table2: kernel %s missing", name)
		}
		rt := k.Routine()
		for _, mode := range table2Modes {
			opts := core.Options{Machine: m, Strategy: mode}
			for r := 0; r < runs; r++ {
				units = append(units, driver.Unit{
					Name:    fmt.Sprintf("%s/%s/run%d", name, mode, r),
					Routine: rt, Options: &opts,
				})
			}
		}
	}
	batch := driver.New(driver.Config{Workers: jobs}).Run(context.Background(), units)
	if err := batch.FirstErr(); err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}

	results := func(routine, mode int) []*core.Result {
		start := (routine*len(table2Modes) + mode) * runs
		out := make([]*core.Result, runs)
		for r := 0; r < runs; r++ {
			out[r] = batch.Results[start+r].Result
		}
		return out
	}
	var cols []Table2Column
	for ri, name := range Table2Routines {
		col := table2Column(name, results(ri, 0), results(ri, 1))
		cols = append(cols, col)
	}
	return cols, nil
}

// passTally accumulates per-pass time and execution counts keyed by pass
// name, preserving pipeline order.
type passTally struct {
	time map[string]time.Duration
	runs map[string]int
}

func newPassTally() *passTally {
	return &passTally{time: make(map[string]time.Duration), runs: make(map[string]int)}
}

// table2Rows are Table 2's phase rows in print order; core.PassPhase
// maps every pipeline pass to one of them.
var table2Rows = []string{"cfa", "renum", "build", "costs", "color", "spill"}

// averageIterations folds one mode's repeated allocations (already done
// by the driver) into per-iteration phase averages, keyed by Table 2
// row, and a per-pass tally.
func averageIterations(results []*core.Result) ([]map[string]time.Duration, *passTally) {
	runs := len(results)
	var acc []map[string]time.Duration
	tally := newPassTally()
	for _, res := range results {
		for i, it := range res.Iterations {
			if i >= len(acc) {
				acc = append(acc, make(map[string]time.Duration))
			}
			for _, ps := range it.Passes {
				acc[i][core.PassPhase(ps.Name)] += ps.Time
				tally.time[ps.Name] += ps.Time
				tally.runs[ps.Name]++
			}
		}
	}
	for _, phases := range acc {
		for phase := range phases {
			phases[phase] /= time.Duration(runs)
		}
	}
	for name := range tally.time {
		tally.time[name] /= time.Duration(runs)
		tally.runs[name] /= runs
	}
	return acc, tally
}

func table2Column(name string, oldResults, newResults []*core.Result) Table2Column {
	col := Table2Column{Routine: name}
	old, oldPasses := averageIterations(oldResults)
	nw, newPasses := averageIterations(newResults)
	// Per-pass breakdown in pipeline order, keeping only passes that ran
	// for at least one mode.
	for _, name := range core.PassNames() {
		if oldPasses.runs[name] == 0 && newPasses.runs[name] == 0 {
			continue
		}
		col.Passes = append(col.Passes, PassTotal{
			Pass:    name,
			Old:     oldPasses.time[name],
			New:     newPasses.time[name],
			OldRuns: oldPasses.runs[name],
			NewRuns: newPasses.runs[name],
		})
	}

	iters := max(len(old), len(nw))
	get := func(ts []map[string]time.Duration, i int, phase string) time.Duration {
		if i < len(ts) {
			return ts[i][phase]
		}
		return 0
	}
	cell := func(i int, phase string) Table2Cell {
		return Table2Cell{Phase: phase, Old: get(old, i, phase), New: get(nw, i, phase)}
	}
	// cfa is reported once (first iteration), like the paper; the spill
	// row only for iterations that spilled.
	col.Cells = append(col.Cells, cell(0, "cfa"))
	for i := 0; i < iters; i++ {
		for _, phase := range table2Rows[1:] {
			if c := cell(i, phase); phase != "spill" || c.Old > 0 || c.New > 0 {
				col.Cells = append(col.Cells, c)
			}
		}
	}
	for _, c := range col.Cells {
		col.OldTotal += c.Old
		col.NewTotal += c.New
	}
	// cfa accrues every iteration in reality; fold the remainder into the
	// totals so they reflect true cost.
	for i := 1; i < iters; i++ {
		col.OldTotal += get(old, i, "cfa")
		col.NewTotal += get(nw, i, "cfa")
	}
	return col
}

// FormatTable2 renders the columns like the paper (times in
// milliseconds; the paper's RS/6000 used seconds).
func FormatTable2(cols []Table2Column) string {
	var b strings.Builder
	b.WriteString("Table 2: Allocation Times (ms)\n")
	b.WriteString(fmt.Sprintf("%-8s", "Phase"))
	for _, c := range cols {
		b.WriteString(fmt.Sprintf(" | %9s:Old %9[1]s:New", c.Routine))
	}
	b.WriteString("\n")
	maxRows := 0
	for _, c := range cols {
		if len(c.Cells) > maxRows {
			maxRows = len(c.Cells)
		}
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
	for r := 0; r < maxRows; r++ {
		phase := ""
		for _, c := range cols {
			if r < len(c.Cells) {
				phase = c.Cells[r].Phase
			}
		}
		b.WriteString(fmt.Sprintf("%-8s", phase))
		for _, c := range cols {
			if r < len(c.Cells) {
				b.WriteString(fmt.Sprintf(" | %13s %13s", ms(c.Cells[r].Old), ms(c.Cells[r].New)))
			} else {
				b.WriteString(fmt.Sprintf(" | %13s %13s", "", ""))
			}
		}
		b.WriteString("\n")
	}
	b.WriteString(fmt.Sprintf("%-8s", "total"))
	for _, c := range cols {
		b.WriteString(fmt.Sprintf(" | %13s %13s", ms(c.OldTotal), ms(c.NewTotal)))
	}
	b.WriteString("\n")

	// The finer per-pass breakdown the instrumented pipeline records:
	// where the coarse rows above actually spend their time.
	b.WriteString("\nPer-pass totals (ms)\n")
	b.WriteString(fmt.Sprintf("%-16s", "Pass"))
	for _, c := range cols {
		b.WriteString(fmt.Sprintf(" | %9s:Old %9[1]s:New", c.Routine))
	}
	b.WriteString("\n")
	// Union of pass names across columns, in pipeline order.
	var names []string
	seen := make(map[string]bool)
	for _, name := range core.PassNames() {
		for _, c := range cols {
			for _, p := range c.Passes {
				if p.Pass == name && !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
			}
		}
	}
	for _, name := range names {
		b.WriteString(fmt.Sprintf("%-16s", name))
		for _, c := range cols {
			var cell string
			for _, p := range c.Passes {
				if p.Pass == name {
					cell = fmt.Sprintf(" | %13s %13s", ms(p.Old), ms(p.New))
				}
			}
			if cell == "" {
				cell = fmt.Sprintf(" | %13s %13s", "", "")
			}
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
