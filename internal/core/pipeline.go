package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/telemetry"
)

// This file turns Figure 2's allocator loop into an explicit pipeline:
// each phase — build, the two coalescing rounds, spill costs, simplify,
// biased select, spill insertion — is a Pass with a uniform signature,
// and a small runner executes them in order, timing every pass and
// recording what it did (graph size, coalesces, spills, splits) into the
// Result. The paper presents the allocator exactly this way ("the
// allocator iterates the sequence renumber, build, coalesce, ...", §4),
// and keeping the stages first-class lets the experiment drivers report
// where allocation time goes without re-instrumenting the loop.

// PassStat records one execution of one pipeline pass within one
// iteration of the allocator loop. Fields that do not apply to a pass
// (e.g. coalesce counts during costs) are left zero.
type PassStat struct {
	Name string
	// Time is the pass's wall time. Disk entries keep only what the
	// allocation determines, so a result restored from one has none.
	Time time.Duration `json:",omitempty"`

	// Nodes and Edges are the interference graph size (both classes
	// summed) after a graph-touching pass: live-range roots present in
	// the code, and edges between them.
	Nodes int
	Edges int

	// Coalesced counts copies removed by a coalescing pass, Splits the
	// split copies renumber inserted, Spilled the live ranges given
	// spill code, and Remat the subset handled by rematerialization
	// rather than store/reload.
	Coalesced int
	Splits    int
	Spilled   int
	Remat     int
}

// roundCtx carries the state that flows between the passes of one
// round; the uncolored ranges select hands to spill insertion are each
// class's classState.spilled.
type roundCtx struct {
	anySpill bool

	stop bool // end this round early and go around the loop again
	done bool // allocation complete: code rewritten to physical colors
}

// A Pass is one named stage of the allocator pipeline. All passes share
// one signature: they mutate the allocator's working routine and
// per-class state, report what they did through the stat, and steer the
// round through the context (stop/done).
type Pass struct {
	// name identifies the pass in stats output.
	name string
	// metric is the pass's timing-histogram name ("core.pass.<name>"),
	// precomputed by init so the hot loop never builds strings.
	metric string
	// phase names the Table 2 row this pass's wall time accrues to
	// (see PassPhase).
	phase string
	// when gates the pass; nil means always run. Skipped passes do not
	// appear in the iteration's stats.
	when func(a *allocator, ctx *roundCtx) bool
	// run does the work.
	run func(a *allocator, ctx *roundCtx, st *IterationStats, ps *PassStat) error
}

// Name returns the pass's name as it appears in stats output.
func (p *Pass) Name() string { return p.name }

// allocPipeline is Figure 2's loop body in order. One trip through it is
// one iteration of the spill/color loop; the runner stops early when a
// pass sets stop (profitable spills found) or when rewrite marks the
// allocation done.
var allocPipeline = []*Pass{
	passCFA,
	passRenumber,
	passBuild,
	passCoalesceAggressive,
	passCoalesceConservative,
	passChaitinTags,
	passCosts,
	passProfitableSpills,
	passSimplify,
	passSelect,
	passRewrite,
	passSpillInsert,
}

func init() {
	for _, p := range allocPipeline {
		p.metric = "core.pass." + p.name
	}
}

// PassNames lists the pipeline's passes in execution order (conditional
// passes included).
func PassNames() []string {
	names := make([]string, len(allocPipeline))
	for i, p := range allocPipeline {
		names[i] = p.name
	}
	return names
}

// PassPhase names the Table 2 row a pipeline pass's time accrues to:
// "cfa", "renum", "build", "costs", "color" or "spill". It is empty for
// a name outside the pipeline, such as the untimed records of the
// spill-everywhere and ssa-spill strategies.
func PassPhase(name string) string {
	for _, p := range allocPipeline {
		if p.name == name {
			return p.phase
		}
	}
	return ""
}

var passCFA = &Pass{
	name:  "cfa",
	phase: "cfa",
	run: func(a *allocator, _ *roundCtx, _ *IterationStats, _ *PassStat) error {
		if a.tree != nil {
			return nil // a later round: round 0's analyses still hold
		}
		tree, loops, err := cfg.Prepare(a.rt)
		if err != nil {
			return err
		}
		a.tree, a.loops, a.df = tree, loops, dom.Frontiers(tree, a.rt)
		return nil
	},
}

var passRenumber = &Pass{
	name:  "renumber",
	phase: "renum",
	run: func(a *allocator, _ *roundCtx, st *IterationStats, ps *PassStat) error {
		splits, err := a.renumber()
		if err != nil {
			return err
		}
		st.Splits = splits
		ps.Splits = splits
		return nil
	},
}

var passBuild = &Pass{
	name:  "build",
	phase: "build",
	run: func(a *allocator, _ *roundCtx, _ *IterationStats, ps *PassStat) error {
		a.solveLiveness()
		a.buildFromLive(a.classes[:]...)
		a.graphStats(ps)
		return nil
	},
}

var passCoalesceAggressive = &Pass{
	name:  "coalesce",
	phase: "build",
	run: func(a *allocator, _ *roundCtx, st *IterationStats, ps *PassStat) error {
		// Unrestricted coalescing of ordinary copies (§4.2's first
		// round), on the graph the build pass just built.
		ps.Coalesced = a.coalesceToFixpoint(false)
		st.Coalesced += ps.Coalesced
		a.graphStats(ps)
		return nil
	},
}

var passCoalesceConservative = &Pass{
	name:  "coalesce-cons",
	phase: "build",
	when: func(a *allocator, _ *roundCtx) bool {
		return a.params.remat && !a.params.noCoalesce
	},
	run: func(a *allocator, _ *roundCtx, st *IterationStats, ps *PassStat) error {
		// Conservative coalescing of split copies (§4.2's second round):
		// a split merges only when the combined range provably still
		// simplifies. The first round's last scan left the graph exact,
		// so this round starts on it without a rebuild.
		ps.Coalesced = a.coalesceToFixpoint(true)
		st.Coalesced += ps.Coalesced
		a.graphStats(ps)
		return nil
	},
}

var passChaitinTags = &Pass{
	name:  "tags",
	phase: "build",
	when:  func(a *allocator, _ *roundCtx) bool { return !a.params.remat },
	run: func(a *allocator, _ *roundCtx, _ *IterationStats, _ *PassStat) error {
		// Chaitin's whole-range rule: a live range rematerializes only
		// if all of its remaining definitions are the same never-killed
		// instruction. Evaluated after coalescing so deleted copies do
		// not count as definitions.
		for _, cs := range a.classes {
			a.computeChaitinTags(cs)
		}
		return nil
	},
}

var passCosts = &Pass{
	name:  "costs",
	phase: "costs",
	run: func(a *allocator, _ *roundCtx, _ *IterationStats, _ *PassStat) error {
		for _, cs := range a.classes {
			a.computeCosts(cs)
		}
		return nil
	},
}

var passProfitableSpills = &Pass{
	name:  "spill-profitable",
	phase: "spill",
	run: func(a *allocator, ctx *roundCtx, st *IterationStats, ps *PassStat) error {
		// Profitable spills (§5.2: "some spills are profitable"): a
		// rematerializable range whose deleted definitions outweigh its
		// per-use recomputation has negative cost — spilling it removes
		// instructions outright, registers or no registers. Handle these
		// before coloring and go around the loop again.
		for ci, cs := range a.classes {
			neg := cs.spilled[:0]
			for v := 1; v < a.rt.NumRegs(cs.c); v++ {
				if cs.inCode[v] && cs.find(v) == v && !cs.mustNot[v] && cs.cost[v] < 0 {
					neg = append(neg, v)
				}
			}
			cs.spilled = neg
			if len(neg) > 0 {
				a.resetSlots()
				spilled, remat := a.insertSpills(cs, neg)
				st.Spilled[ci] += spilled
				st.Remat[ci] += remat
				ps.Spilled += spilled
				ps.Remat += remat
				ctx.stop = true
			}
		}
		return nil
	},
}

var passSimplify = &Pass{
	name:  "simplify",
	phase: "color",
	run: func(a *allocator, _ *roundCtx, _ *IterationStats, _ *PassStat) error {
		for _, cs := range a.classes {
			a.simplify(cs)
		}
		return nil
	},
}

var passSelect = &Pass{
	name:  "select",
	phase: "color",
	run: func(a *allocator, ctx *roundCtx, st *IterationStats, ps *PassStat) error {
		for ci, cs := range a.classes {
			a.selectColors(cs)
			st.Spilled[ci] = len(cs.spilled)
			ps.Spilled += len(cs.spilled)
			if len(cs.spilled) > 0 {
				ctx.anySpill = true
			}
		}
		return nil
	},
}

var passRewrite = &Pass{
	name:  "rewrite",
	phase: "color",
	when:  func(_ *allocator, ctx *roundCtx) bool { return !ctx.anySpill },
	run: func(a *allocator, ctx *roundCtx, _ *IterationStats, _ *PassStat) error {
		if err := a.rewriteColors(); err != nil {
			return err
		}
		if err := a.threadJumps(); err != nil {
			return err
		}
		ctx.done = true
		return nil
	},
}

var passSpillInsert = &Pass{
	name:  "spill",
	phase: "spill",
	when:  func(_ *allocator, ctx *roundCtx) bool { return ctx.anySpill },
	run: func(a *allocator, _ *roundCtx, st *IterationStats, ps *PassStat) error {
		a.resetSlots()
		for ci, cs := range a.classes {
			if len(cs.spilled) > 0 {
				spilled, remat := a.insertSpills(cs, cs.spilled)
				st.Remat[ci] += remat
				ps.Spilled += spilled
				ps.Remat += remat
			}
		}
		return nil
	},
}

// round drives one trip through the pipeline, recording its statistics
// as the result's next iteration. done is true when select colored
// every live range and the code has been rewritten to physical colors.
//
// Telemetry: each executed pass runs inside a telemetry span — the
// span's clock is the PassStat timing source, so the trace, the metrics
// histograms and the -stats table can never disagree — and the whole
// round is wrapped in an iteration span. With no sink installed the
// spans are zero-allocation no-ops that still read the clock.
func (a *allocator) round() (bool, error) {
	a.res.Iterations = append(a.res.Iterations, IterationStats{})
	st := &a.res.Iterations[len(a.res.Iterations)-1]
	*a.passes = (*a.passes)[:0]
	done, err := a.runPasses(st)
	st.Passes = slices.Clone(*a.passes)
	return done, err
}

// runPasses runs the round's passes, recording each one's stats in the
// scratch's pass buffer.
func (a *allocator) runPasses(st *IterationStats) (bool, error) {
	a.rc = roundCtx{}
	ctx := &a.rc
	tel := a.opts.Telemetry
	iterSpan := tel.StartSpan(telemetry.CatIteration, "iteration")
	iterSpan.Arg("iteration", int64(a.roundNo))
	for _, p := range allocPipeline {
		if err := a.ctxErr(); err != nil {
			iterSpan.End()
			return false, err
		}
		if p.when != nil && !p.when(a, ctx) {
			continue
		}
		*a.passes = append(*a.passes, PassStat{Name: p.name})
		ps := &(*a.passes)[len(*a.passes)-1]
		sp := tel.StartSpan(telemetry.CatPass, p.name)
		err := a.runPass(p, ctx, st, ps)
		ps.Time = endPassSpan(&sp, ps)
		if tel.Enabled() {
			tel.Observe(p.metric, ps.Time.Nanoseconds())
		}
		if err != nil {
			iterSpan.End()
			return false, err
		}
		if ctx.stop || ctx.done {
			break
		}
	}
	iterSpan.End()
	return ctx.done, nil
}

// endPassSpan annotates the span with the pass's recorded effect (only
// the fields the pass actually touched, keeping traces compact) and
// ends it, returning the measured wall time. When no tracer is
// attached every Arg call is a no-op and only the clock is read.
func endPassSpan(sp *telemetry.Span, ps *PassStat) time.Duration {
	if sp.Active() {
		if ps.Nodes != 0 {
			sp.Arg("nodes", int64(ps.Nodes))
		}
		if ps.Edges != 0 {
			sp.Arg("edges", int64(ps.Edges))
		}
		if ps.Coalesced != 0 {
			sp.Arg("coalesced", int64(ps.Coalesced))
		}
		if ps.Splits != 0 {
			sp.Arg("splits", int64(ps.Splits))
		}
		if ps.Spilled != 0 {
			sp.Arg("spilled", int64(ps.Spilled))
		}
		if ps.Remat != 0 {
			sp.Arg("remat", int64(ps.Remat))
		}
	}
	return sp.End()
}

// ctxErr reports the allocation's context state as a structured
// *AllocError (pass "context"), or nil while the context is live. The
// pipeline consults it between passes and between iterations — the
// boundaries where the allocator can be abandoned without leaving
// half-mutated state, and the only places it can run for long.
func (a *allocator) ctxErr() error {
	if a.ctx == nil {
		return nil
	}
	if err := a.ctx.Err(); err != nil {
		return &AllocError{Routine: a.rt.Name, Pass: "context", Iteration: a.roundNo, Err: err}
	}
	return nil
}

// runPass executes one pipeline pass with panic containment: a panic
// anywhere inside the pass — an allocator bug, a violated invariant, or
// the PanicHook fault injector — is recovered into a structured
// *AllocError naming the routine, pass and iteration, so one poisoned
// routine fails as an error value rather than unwinding the caller (or
// a whole driver batch). Ordinary pass errors get the same wrapping for
// a uniform error taxonomy.
func (a *allocator) runPass(p *Pass, ctx *roundCtx, st *IterationStats, ps *PassStat) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recovered(a.rt.Name, p.name, a.roundNo, r)
		}
	}()
	if hook := PanicHook; hook != nil {
		hook(a.rt.Name, p.name)
	}
	if err := p.run(a, ctx, st, ps); err != nil {
		return &AllocError{Routine: a.rt.Name, Pass: p.name, Iteration: a.roundNo, Err: err}
	}
	return nil
}

// graphStats records the current interference graph size (both classes)
// into the stat: live-range roots present in the code, and edges.
func (a *allocator) graphStats(ps *PassStat) {
	ps.Nodes, ps.Edges = 0, 0
	for _, cs := range a.classes {
		for v := 1; v < len(cs.inCode); v++ {
			if cs.inCode[v] && cs.find(v) == v {
				ps.Nodes++
			}
		}
		ps.Edges += cs.graph.NumEdges()
	}
}

// FormatStats renders a Result's per-pass, per-iteration statistics as a
// table: one row per executed pass, with wall time, the interference
// graph size the pass left behind, and what it changed. cmd/ralloc
// prints this under -stats; the experiment drivers reuse it when
// reporting where allocation time goes.
func FormatStats(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-16s %12s %7s %8s %6s %7s %7s %6s\n",
		"iter", "pass", "time", "nodes", "edges", "coal", "splits", "spilled", "remat")
	num := func(n int) string {
		if n == 0 {
			return "."
		}
		return fmt.Sprintf("%d", n)
	}
	for i, it := range res.Iterations {
		for _, ps := range it.Passes {
			fmt.Fprintf(&b, "%4d  %-16s %12s %7s %8s %6s %7s %7s %6s\n",
				i, ps.Name, ps.Time.Round(100*time.Nanosecond),
				num(ps.Nodes), num(ps.Edges), num(ps.Coalesced),
				num(ps.Splits), num(ps.Spilled), num(ps.Remat))
		}
	}
	spilled, remat := 0, 0
	var total time.Duration
	for _, it := range res.Iterations {
		for _, ps := range it.Passes {
			total += ps.Time
		}
		for _, n := range it.Spilled {
			spilled += n
		}
		for _, n := range it.Remat {
			remat += n
		}
	}
	fmt.Fprintf(&b, "%d iteration(s), %d range(s) spilled (%d rematerialized), total %v\n",
		len(res.Iterations), spilled, remat, total)
	return b.String()
}
