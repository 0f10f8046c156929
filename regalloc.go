// Package regalloc is a reproduction of "Rematerialization" by Preston
// Briggs, Keith D. Cooper and Linda Torczon (PLDI 1992): a Chaitin-style
// optimistic graph-coloring register allocator extended so that
// multi-valued live ranges can be rematerialized — recomputed where they
// are needed — instead of spilled to memory.
//
// The public surface wraps the internal packages:
//
//   - ILOC, the paper's low-level intermediate language (Parse, Print,
//     Verify, the Builder);
//   - the allocator itself (Allocate, with Options.Strategy naming the
//     configuration: "chaitin" for the paper's baseline, "remat" for its
//     contribution, parameterized variants such as
//     "remat:split=all-loops,no-bias" — see Strategies);
//   - the execution harness that replaces the paper's translate-to-C
//     methodology (Run, NewEnv) plus the Figure 4 C translator
//     (TranslateC);
//   - the benchmark suite and the experiment drivers that regenerate the
//     paper's tables and figures (Suite, Table1, Table2, Figure1..4).
//
// Quick start:
//
//	rt, err := regalloc.Parse(src)
//	res, err := regalloc.Allocate(rt, regalloc.Options{
//	    Machine:  regalloc.StandardMachine(),
//	    Strategy: "remat",
//	})
//	out, err := regalloc.Run(res.Routine, regalloc.Int(100))
package regalloc

import (
	"context"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ctrans"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/machines"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Core IR types. Routine is a procedure in ILOC form; Instr one
// instruction; Block a basic block; Builder a programmatic constructor.
type (
	Routine = iloc.Routine
	Instr   = iloc.Instr
	Block   = iloc.Block
	Builder = iloc.Builder
	Reg     = iloc.Reg
)

// Machine describes a register file and cycle cost model.
type Machine = target.Machine

// Options configures Allocate; Result is a finished allocation.
// IterationStats and PassStat expose the instrumented pass pipeline's
// per-iteration records (Result.Iterations).
type (
	Options        = core.Options
	Result         = core.Result
	IterationStats = core.IterationStats
	PassStat       = core.PassStat
)

// Strategy is a named, registered allocation pipeline: the unit of
// selection for Options.Strategy, the server's per-request "strategy"
// field and the CLIs' -strategy flag. The built-ins are "chaitin"
// (Chaitin's limited rematerialization, the "Optimistic" column of
// Table 1), "remat" (the paper's allocator, the "Rematerialization"
// column; its split/metric/ablation variants are strategy parameters,
// e.g. "remat:split=all-loops,no-bias"), "spill-everywhere" and
// "ssa-spill". An empty Options.Strategy means "chaitin".
type Strategy = core.Strategy

// UnknownStrategyError reports a strategy lookup miss; Registered lists
// every valid name.
type UnknownStrategyError = core.UnknownStrategyError

// Strategies lists the registered allocation strategies in registration
// order.
func Strategies() []*Strategy { return core.Strategies() }

// StrategyNames lists the registered strategy names in registration
// order.
func StrategyNames() []string { return core.StrategyNames() }

// StrategyByName resolves a strategy spec — a registered name,
// optionally with ":"-prefixed parameters ("remat:split=all-loops").
// A miss returns *UnknownStrategyError listing the valid names.
func StrategyByName(spec string) (*Strategy, error) { return core.LookupStrategy(spec) }

// Execution harness types.
type (
	Env     = interp.Env
	Outcome = interp.Outcome
	Value   = interp.Value
)

// Kernel is one routine of the benchmark suite.
type Kernel = suite.Kernel

// Parse reads the textual form of a routine. See internal/iloc for the
// grammar; Print output round-trips.
func Parse(src string) (*Routine, error) { return iloc.Parse(src) }

// MustParse is Parse that panics on error; for compile-time constant
// sources only. Caller-supplied text must go through Parse, whose
// errors are *ParseError values locating the offending line.
func MustParse(src string) *Routine { return iloc.MustParse(src) }

// ParseError locates a syntax error in Parse/ParseProgram input.
type ParseError = iloc.ParseError

// ParseProgram reads a file holding several routines; the first is the
// entry point, the rest callees for RunProgram.
func ParseProgram(src string) ([]*Routine, error) { return iloc.ParseProgram(src) }

// Print renders a routine in the form Parse accepts.
func Print(rt *Routine) string { return iloc.Print(rt) }

// Verify checks a routine's structural invariants.
func Verify(rt *Routine) error { return iloc.Verify(rt, false) }

// NewBuilder starts programmatic construction of a routine.
func NewBuilder(name string) *Builder { return iloc.NewBuilder(name) }

// StandardMachine returns the paper's test machine: sixteen integer and
// sixteen floating-point registers, loads and stores costing two cycles.
func StandardMachine() *Machine { return target.Standard() }

// HugeMachine returns the paper's 128-register baseline machine.
func HugeMachine() *Machine { return target.Huge() }

// MachineWithRegs returns a machine with n registers per class, for
// register-set sweeps.
func MachineWithRegs(n int) *Machine { return target.WithRegs(n) }

// MachineEntry is one registered target machine in the zoo: a name, a
// one-line description and the validated machine itself.
type MachineEntry = machines.Entry

// UnknownMachineError reports a machine lookup miss; Registered lists
// the valid names so callers can surface them.
type UnknownMachineError = machines.UnknownMachineError

// Machines lists the registered target machines in registration order.
func Machines() []MachineEntry { return machines.All() }

// MachineNames lists the registered machine names in registration
// order.
func MachineNames() []string { return machines.Names() }

// MachineByName resolves a machine spec — a registered zoo name, or
// "regs=N" for a sweep point — to a fresh validated machine. A miss
// returns *UnknownMachineError listing the valid names.
func MachineByName(spec string) (*Machine, error) { return machines.Lookup(spec) }

// RegisterMachine adds a machine to the zoo under its Machine.Name,
// making it selectable by name through the server, the CLIs and
// MachineByName. The name must be new and the machine valid with a
// shape distinct from every machine already registered (distinct
// machines must never share a cache key); violations panic, like a
// duplicate flag registration.
func RegisterMachine(description string, m *Machine) { machines.Register(description, m) }

// StarvedMachine derives the register-starved variant of a machine —
// the shape the verification sweeps use to force spilling.
func StarvedMachine(m *Machine) *Machine { return machines.Starved(m) }

// CorpusSpec parameterizes deterministic corpus generation; CorpusUnit
// is one generated unit (a parsed multi-routine translation unit plus
// its canonical text and content hash); CorpusManifest is the on-disk
// identity of a written corpus.
type (
	CorpusSpec     = corpus.Spec
	CorpusUnit     = corpus.Unit
	CorpusManifest = corpus.Manifest
)

// ParseCorpusSpec parses a "count=N,seed=S,..." corpus spec string,
// applying defaults for absent keys. The empty string is the default
// corpus.
func ParseCorpusSpec(text string) (CorpusSpec, error) { return corpus.ParseSpec(text) }

// GenerateCorpus deterministically generates the corpus a spec
// describes: the same spec always yields byte-identical units.
func GenerateCorpus(spec CorpusSpec) ([]CorpusUnit, error) { return corpus.Generate(spec) }

// WriteCorpus generates a corpus and writes it under dir — one .iloc
// file per unit plus a MANIFEST.json with content hashes.
func WriteCorpus(dir string, spec CorpusSpec) (*CorpusManifest, error) {
	return corpus.WriteDir(dir, spec)
}

// LoadCorpus reads a written corpus back, verifying every file against
// the manifest hashes.
func LoadCorpus(dir string) (*CorpusManifest, []CorpusUnit, error) { return corpus.Load(dir) }

// Allocate maps the routine's virtual registers onto a machine. The
// input is not modified; Result.Routine holds the allocated clone with
// spill code inserted and register numbers equal to physical colors.
// It is AllocateContext with context.Background(): unbounded, for
// callers that do not need deadlines or cancellation.
//
// Robustness: a panic inside the allocator is contained and surfaces as
// an *AllocError. By default a failed allocation — non-convergence, a
// contained panic, or (with Options.Verify) a verifier rejection —
// degrades to a guaranteed-terminating spill-everywhere allocation with
// Result.Degraded set; Options.DisableDegradation turns the failure
// into an error instead.
func Allocate(rt *Routine, opts Options) (*Result, error) {
	return core.Allocate(context.Background(), rt, opts)
}

// AllocateContext is Allocate bounded by a context: it is checked
// between pipeline passes and spill/color iterations, so the allocator
// never runs long past the context's end. An expired deadline degrades
// to the spill-everywhere fallback with DegradeReason "deadline"
// (unless Options.DisableDegradation); a cancelled context returns the
// cancellation error. The serving layer (cmd/rallocd) relies on this to
// give every request a hard time bound.
func AllocateContext(ctx context.Context, rt *Routine, opts Options) (*Result, error) {
	return core.Allocate(ctx, rt, opts)
}

// AllocError is the structured failure report of one allocation: the
// routine, the pipeline pass, the iteration, and the underlying cause
// (with the goroutine stack when a panic was contained).
type AllocError = core.AllocError

// VerifyAllocation independently checks a finished allocation against
// the input routine it came from: register bounds, use-before-def
// liveness, caller-save discipline across calls, spill-slot soundness,
// rematerialization tags, and — where the routine needs no arguments or
// callees — an interpreter differential. A nil error means the
// allocated routine is safe to run in place of the input.
func VerifyAllocation(input, allocated *Routine, m *Machine) error {
	return verify.Check(input, allocated, m, verify.Options{Differential: true})
}

// AllocPassNames lists the allocator pipeline's passes in execution
// order (conditional passes included).
func AllocPassNames() []string { return core.PassNames() }

// FormatAllocStats renders a Result's per-pass, per-iteration pipeline
// statistics (what cmd/ralloc prints under -stats).
func FormatAllocStats(res *Result) string { return core.FormatStats(res) }

// Batch-allocation engine types (internal/driver): a Driver shards a
// module's routines across a worker pool and returns results in input
// order; a ResultCache makes repeated allocation of identical routines
// free. DriverStats reports wall/CPU time, per-worker utilization and
// this run's cache traffic; CacheStats the cache's lifetime counters.
type (
	Driver       = driver.Engine
	DriverConfig = driver.Config
	DriverStats  = driver.Stats
	DriverUnit   = driver.Unit
	DriverBatch  = driver.Batch
	UnitResult   = driver.UnitResult
	ResultCache  = driver.Cache
	CacheStats   = driver.CacheStats
)

// NewDriver builds a batch-allocation engine. Workers <= 0 uses
// runtime.GOMAXPROCS; a nil Cache disables caching.
func NewDriver(cfg DriverConfig) *Driver { return driver.New(cfg) }

// NewResultCache builds a content-addressed allocation cache holding at
// most capacity entries (0 = unbounded). Share one cache across drivers
// and runs to make repeated allocations free.
func NewResultCache(capacity int) *ResultCache { return driver.NewCache(capacity) }

// Persistent result store types (internal/store): a ResultStore is the
// tiered cache — the in-memory LRU as L1 over a disk tier that survives
// restarts — and drops into DriverConfig.Cache wherever a ResultCache
// fits. StoreStats snapshots both tiers plus the disk tier's fault and
// flush counters; BundleImportStats summarizes one bundle import. See
// "Persistent cache & bundles" in docs/ALGORITHMS.md and
// cmd/ralloc-bundle.
type (
	ResultStore       = store.Tiered
	StoreStats        = store.Stats
	BundleImportStats = store.ImportStats
)

// OpenResultStore opens (creating if needed) a persistent result store
// rooted at dir, with the in-memory tier bounded to l1Capacity entries
// (0 = unbounded). Entries are self-validating on read: corruption is
// quarantined and re-allocated, never served. Close the store to land
// write-behind entries before process exit.
func OpenResultStore(dir string, l1Capacity int) (*ResultStore, error) {
	return store.Open(dir, l1Capacity)
}

// AllocateBatch allocates a module — a set of routines — concurrently
// with a throwaway engine, returning per-routine results in input
// order. It is AllocateBatchContext with context.Background().
func AllocateBatch(units []DriverUnit, cfg DriverConfig) *DriverBatch {
	return driver.Allocate(context.Background(), units, cfg)
}

// AllocateBatchContext is AllocateBatch bounded by a context: units
// already allocating when it ends are aborted by the allocator's own
// checks, unstarted units fail with ctx.Err(), and results finished
// before the end are kept unchanged.
func AllocateBatchContext(ctx context.Context, units []DriverUnit, cfg DriverConfig) *DriverBatch {
	return driver.Allocate(ctx, units, cfg)
}

// Telemetry types (internal/telemetry): a TelemetrySink carries an
// optional metrics registry and an optional trace recorder; set it on
// Options.Telemetry or DriverConfig.Telemetry to observe a run. A nil
// sink (the default) costs nothing. Tracer.WriteJSON emits the Chrome
// trace_event format (chrome://tracing, Perfetto); Registry.WriteTo the
// flat "name value" metrics dump. See "Telemetry & tracing" in
// docs/ALGORITHMS.md.
type (
	TelemetrySink   = telemetry.Sink
	MetricsRegistry = telemetry.Registry
	Tracer          = telemetry.Tracer
)

// NewMetricsRegistry builds an empty, concurrency-safe registry of
// named counters, gauges and timing histograms.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTracer builds an empty trace recorder; events are timestamped
// relative to this call.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewEnv builds an execution environment for a routine (frame + static
// data). Use Env.Alloc/SetInt/SetFloat to stage inputs, then Env.Run.
func NewEnv(rt *Routine) (*Env, error) { return interp.New(rt, interp.Config{}) }

// Run executes a routine in a fresh environment, returning dynamic
// instruction counts and the returned value.
func Run(rt *Routine, args ...Value) (*Outcome, error) {
	e, err := NewEnv(rt)
	if err != nil {
		return nil, err
	}
	return e.Run(args...)
}

// RunProgram executes a multi-routine program: rt is the entry point and
// callees resolve its call instructions. Counts cover all activations.
func RunProgram(rt *Routine, callees []*Routine, args ...Value) (*Outcome, error) {
	e, err := interp.New(rt, interp.Config{Routines: callees})
	if err != nil {
		return nil, err
	}
	return e.Run(args...)
}

// Int and Float build routine arguments.
func Int(v int64) Value     { return interp.Int(v) }
func Float(f float64) Value { return interp.Float(f) }

// TranslateC renders a routine as the instrumented C of the paper's
// Figure 4.
func TranslateC(rt *Routine) (string, error) { return ctrans.Translate(rt) }

// Suite returns the benchmark kernels (synthetic analogs of the paper's
// seventy-routine FORTRAN suite; see DESIGN.md on substitutions).
func Suite() []*Kernel { return suite.All() }

// KernelByName looks up a suite kernel.
func KernelByName(name string) *Kernel { return suite.ByName(name) }

// Experiment drivers. Each regenerates one of the paper's artifacts.
type (
	Table1Config = experiments.Table1Config
	Table1Row    = experiments.Table1Row
	Table2Column = experiments.Table2Column
)

// Table1 reproduces the spill-cost comparison of the paper's Table 1.
func Table1(cfg Table1Config) ([]Table1Row, error) { return experiments.Table1(cfg) }

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string { return experiments.FormatTable1(rows) }

// Table2 reproduces the per-phase allocation-time table.
func Table2(m *Machine, runs int) ([]Table2Column, error) { return experiments.Table2(m, runs) }

// Table2Jobs is Table2 with the repeated allocations sharded across the
// batch driver's worker pool (jobs <= 0 = number of CPUs).
func Table2Jobs(m *Machine, runs, jobs int) ([]Table2Column, error) {
	return experiments.Table2Jobs(m, runs, jobs)
}

// FormatTable2 renders Table 2 columns.
func FormatTable2(cols []Table2Column) string { return experiments.FormatTable2(cols) }

// Figure1 reproduces the rematerialization-versus-spilling comparison.
func Figure1() (*experiments.Figure1Result, error) { return experiments.Figure1() }

// Figure2 traces the allocator pipeline on a spilling example.
func Figure2() (string, error) { return experiments.Figure2() }

// Figure3 walks the split-insertion example.
func Figure3() (*experiments.Figure3Result, error) { return experiments.Figure3() }

// Figure4 renders the ILOC-and-instrumented-C figure.
func Figure4() (string, error) { return experiments.FormatFigure4() }

// StrategyMatrixRow is one line of the allocation-strategy matrix: one
// registered strategy's dynamic cycle count and allocator totals over
// the full suite.
type StrategyMatrixRow = experiments.StrategyMatrixRow

// StrategyMatrix compares every registered allocation strategy by
// dynamic cycle count over the full kernel suite (nil machine = the
// calibrated 6-register pressure point; jobs bounds the batch workers).
func StrategyMatrix(m *Machine, jobs int) ([]StrategyMatrixRow, error) {
	return experiments.StrategyMatrix(m, jobs)
}

// FormatStrategyMatrix renders the matrix.
func FormatStrategyMatrix(rows []StrategyMatrixRow, m *Machine) string {
	return experiments.FormatStrategyMatrix(rows, m)
}

// SplittingRow is one line of the §6 splitting-scheme study.
type SplittingRow = experiments.SplittingRow

// SplittingSchemes lists the §6 schemes the study sweeps.
func SplittingSchemes() []core.SplitScheme { return experiments.SplittingSchemes }

// SplittingStudy reproduces §6's comparison of live-range splitting
// schemes against the plain rematerializing allocator.
func SplittingStudy(m *Machine) ([]SplittingRow, error) { return experiments.SplittingStudy(m) }

// FormatSplitting renders the study.
func FormatSplitting(rows []SplittingRow) string { return experiments.FormatSplitting(rows) }
