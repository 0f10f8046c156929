package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/suite"
	"repro/internal/target"
)

// suiteConfig is one measurement configuration of the evaluation
// harness: the machine allocated for and the strategy spec allocating.
type suiteConfig struct {
	machine  *target.Machine
	strategy string
}

// kernelRun is one suite kernel's program compiled under one
// configuration.
type kernelRun struct {
	kernel *suite.Kernel
	main   driver.UnitResult
	// err is the first allocation failure among the main routine and
	// its callees; out, the allocated program's execution, is set only
	// when every unit allocated.
	err error
	out *interp.Outcome
}

// runSuite is the evaluation harness behind Table 1, the strategy
// matrix and the splitting study. As the paper measures (§5.2), every
// program is compiled end to end by the allocator under test: each
// suite kernel and its callees are allocated under each configuration
// with the same options, all as one driver batch of at most jobs
// workers (0 = number of CPUs) through cache when it is non-nil. Each
// fully allocated program then executes once. The result is indexed
// [configuration][kernel], kernels in suite.All order. Allocation
// failures are recorded per run; a failed or wrong execution fails the
// whole harness.
func runSuite(configs []suiteConfig, jobs int, cache *driver.Cache) ([][]kernelRun, error) {
	kernels := suite.All()
	var units []driver.Unit
	for _, c := range configs {
		opts := &core.Options{Machine: c.machine, Strategy: c.strategy}
		for _, k := range kernels {
			units = append(units, driver.Unit{
				Name:    fmt.Sprintf("%s/%s@%s", k.Name, c.strategy, c.machine.Name),
				Routine: k.Routine(), Options: opts,
			})
			for i, crt := range k.CalleeRoutines() {
				units = append(units, driver.Unit{
					Name:    fmt.Sprintf("%s/callee%d/%s@%s", k.Name, i, c.strategy, c.machine.Name),
					Routine: crt, Options: opts,
				})
			}
		}
	}
	dcfg := driver.Config{Workers: jobs}
	if cache != nil {
		dcfg.Cache = cache
	}
	rest := driver.New(dcfg).Run(context.Background(), units).Results

	runs := make([][]kernelRun, len(configs))
	for ci, c := range configs {
		runs[ci] = make([]kernelRun, len(kernels))
		for ki, k := range kernels {
			// Each kernel's units are its main routine, then its callees.
			results := rest[:1+len(k.Callees)]
			rest = rest[len(results):]
			run := kernelRun{kernel: k, main: results[0]}
			routines := make([]*iloc.Routine, 0, len(results))
			for _, r := range results {
				if r.Err != nil {
					run.err = fmt.Errorf("%s: %w", r.Name, r.Err)
					break
				}
				routines = append(routines, r.Result.Routine)
			}
			if run.err == nil {
				out, err := k.ExecuteWith(routines[0], routines[1:])
				if err != nil {
					return nil, fmt.Errorf("%s under %s on %s: %w", k.Name, c.strategy, c.machine.Name, err)
				}
				run.out = out
			}
			runs[ci][ki] = run
		}
	}
	return runs, nil
}

// spillCycles is a run's spill-code cost on m: its dynamic cycles less
// those of the same kernel's zero-spill baseline run (§5.2).
func spillCycles(run, base kernelRun, m *target.Machine) int64 {
	mem, oth := int64(m.MemCycles), int64(m.OtherCycles)
	return run.out.Cycles(mem, oth) - base.out.Cycles(mem, oth)
}

// firstErr returns the first allocation failure of the runs, or nil.
func firstErr(runs [][]kernelRun) error {
	for _, rs := range runs {
		for _, r := range rs {
			if r.err != nil {
				return r.err
			}
		}
	}
	return nil
}
