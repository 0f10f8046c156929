package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/telemetry"
)

// This file is Figure 2: round runs the allocator's passes once, in the
// paper's order ("the allocator iterates the sequence renumber, build,
// coalesce, ...", §4), and run (core.go) repeats it until a round
// colors every live range. Each pass runs through pass, which times it
// and records what it did (graph size, coalesces, spills, splits) in
// the Result, so the experiment drivers report where allocation time
// goes without re-instrumenting the loop.

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

// The passes' ids, in the order round runs them.
const (
	passCFA = iota
	passRenumber
	passBuild
	passCoalesce
	passCoalesceCons
	passTags
	passCosts
	passSpillProfitable
	passSimplify
	passSelect
	passRewrite
	passSpill
	numPasses
)

// passTable names each pass, by id, and the Table 2 row its wall time
// accrues to. PassNames, PassPhase and the snapshot's pass-name codes
// (id+1) all read it.
var passTable = [numPasses]struct{ name, phase string }{
	passCFA:             {"cfa", "cfa"},
	passRenumber:        {"renumber", "renum"},
	passBuild:           {"build", "build"},
	passCoalesce:        {"coalesce", "build"},
	passCoalesceCons:    {"coalesce-cons", "build"},
	passTags:            {"tags", "build"},
	passCosts:           {"costs", "costs"},
	passSpillProfitable: {"spill-profitable", "spill"},
	passSimplify:        {"simplify", "color"},
	passSelect:          {"select", "color"},
	passRewrite:         {"rewrite", "color"},
	passSpill:           {"spill", "spill"},
}

// passMetric is each pass's timing histogram, "core.pass.<name>", built
// once so a round builds no strings.
var passMetric [numPasses]string

func init() {
	for id, p := range passTable {
		passMetric[id] = "core.pass." + p.name
	}
}

// PassNames lists the pipeline's passes in execution order (conditional
// passes included).
func PassNames() []string {
	names := make([]string, numPasses)
	for id, p := range passTable {
		names[id] = p.name
	}
	return names
}

// PassPhase names the Table 2 row a pipeline pass's time accrues to:
// "cfa", "renum", "build", "costs", "color" or "spill". It is empty for
// a name outside the pipeline, such as the untimed records of the
// spill-everywhere and ssa-spill strategies.
func PassPhase(name string) string {
	for _, p := range passTable {
		if p.name == name {
			return p.phase
		}
	}
	return ""
}

// round runs Figure 2 once and records its statistics as the result's
// next iteration. done is true when select colored every live range
// and the code has been rewritten to physical colors; otherwise the
// round inserted spill code and the loop goes round again. The round
// runs inside an iteration span.
func (a *allocator) round() (done bool, err error) {
	a.res.Iterations = append(a.res.Iterations, IterationStats{})
	st := &a.res.Iterations[len(a.res.Iterations)-1]
	// The round's pass stats are the next run of the slab, capped at
	// the passes it ran so that no round's stats share storage with
	// another's. A round past the slab's gets a slab of its own.
	if cap(a.passes)-len(a.passes) < roundPasses {
		a.passes = make([]PassStat, 0, roundPasses)
	}
	first := len(a.passes)
	span := a.opts.Telemetry.StartSpan(telemetry.CatIteration, "iteration")
	span.Arg("iteration", int64(a.roundNo))
	defer func() {
		span.End()
		st.Passes = a.passes[first:len(a.passes):len(a.passes)]
	}()

	if err := a.pass(passCFA, func(*PassStat) error { return a.cfa() }); err != nil {
		return false, err
	}
	if err := a.pass(passRenumber, func(ps *PassStat) (err error) {
		ps.Splits, err = a.renumber()
		st.Splits = ps.Splits
		return err
	}); err != nil {
		return false, err
	}
	if err := a.pass(passBuild, func(ps *PassStat) error {
		a.buildGraph(a.classes[:]...)
		a.graphStats(ps)
		return nil
	}); err != nil {
		return false, err
	}
	// Unrestricted coalescing of ordinary copies (§4.2's first round),
	// on the graph build just built.
	if err := a.pass(passCoalesce, func(ps *PassStat) error {
		a.coalesce(st, ps, false)
		return nil
	}); err != nil {
		return false, err
	}
	// Conservative coalescing of split copies (§4.2's second round): a
	// split merges only when the combined range provably still
	// simplifies. The first round's last scan left the graph exact, so
	// this round starts on it without a rebuild.
	if a.params.remat && !a.params.noCoalesce {
		if err := a.pass(passCoalesceCons, func(ps *PassStat) error {
			a.coalesce(st, ps, true)
			return nil
		}); err != nil {
			return false, err
		}
	}
	// Chaitin's whole-range rule: a live range rematerializes only if
	// all of its remaining definitions are the same never-killed
	// instruction. Evaluated after coalescing so deleted copies do not
	// count as definitions.
	if !a.params.remat {
		if err := a.pass(passTags, func(*PassStat) error {
			for _, cs := range a.classes {
				a.computeChaitinTags(cs)
			}
			return nil
		}); err != nil {
			return false, err
		}
	}
	if err := a.pass(passCosts, func(*PassStat) error {
		for _, cs := range a.classes {
			a.computeCosts(cs)
		}
		return nil
	}); err != nil {
		return false, err
	}
	profitable := false
	if err := a.pass(passSpillProfitable, func(ps *PassStat) error {
		profitable = a.spillProfitable(st, ps)
		return nil
	}); err != nil || profitable {
		return false, err
	}
	if err := a.pass(passSimplify, func(*PassStat) error {
		for _, cs := range a.classes {
			a.simplify(cs)
		}
		return nil
	}); err != nil {
		return false, err
	}
	anySpill := false
	if err := a.pass(passSelect, func(ps *PassStat) error {
		for ci, cs := range a.classes {
			a.selectColors(cs)
			st.Spilled[ci] = len(cs.spilled)
			ps.Spilled += len(cs.spilled)
		}
		anySpill = ps.Spilled > 0
		return nil
	}); err != nil {
		return false, err
	}
	if anySpill {
		return false, a.pass(passSpill, func(ps *PassStat) error {
			a.spillSelected(st, ps)
			return nil
		})
	}
	if err := a.pass(passRewrite, func(*PassStat) error {
		if err := a.rewriteColors(); err != nil {
			return err
		}
		return a.threadJumps()
	}); err != nil {
		return false, err
	}
	return true, nil
}

// pass runs one pass of the round: it checks the context, then calls
// PanicHook and body inside the pass's telemetry span. The span's clock
// times the PassStat body fills in, so the trace, the core.pass.<name>
// histogram and the -stats table never disagree; with no sink installed
// the span is a zero-allocation no-op that still reads the clock. A
// body's error comes back labelled with the pass and round, and a
// panic unwinds to allocate's recover, which labels it from a.running.
func (a *allocator) pass(id int, body func(ps *PassStat) error) error {
	if err := a.ctxErr(); err != nil {
		return err
	}
	name := passTable[id].name
	a.passes = append(a.passes, PassStat{Name: name})
	ps := &a.passes[len(a.passes)-1]
	tel := a.opts.Telemetry
	sp := tel.StartSpan(telemetry.CatPass, name)
	defer func() {
		ps.Time = endPassSpan(&sp, ps)
		if tel.Enabled() {
			tel.Observe(passMetric[id], ps.Time.Nanoseconds())
		}
	}()
	a.running = name
	if hook := PanicHook; hook != nil {
		hook(a.rt.Name, name)
	}
	err := body(ps)
	a.running = ""
	if err != nil {
		return &AllocError{Routine: a.rt.Name, Pass: name, Iteration: a.roundNo, Err: err}
	}
	return nil
}

// cfa prepares the CFG in round 0: it splits critical edges and
// computes the dominator tree, frontiers and loops. Later rounds keep
// round 0's analyses, which still hold (see allocator.tree).
func (a *allocator) cfa() error {
	if a.tree != nil {
		return nil
	}
	tree, loops, err := cfg.Prepare(a.rt)
	if err != nil {
		return err
	}
	a.tree, a.loops, a.df = tree, loops, dom.Frontiers(tree, a.rt)
	return nil
}

// coalesce runs one of §4.2's two coalescing rounds (see
// coalesceToFixpoint) and records what it removed.
func (a *allocator) coalesce(st *IterationStats, ps *PassStat, splitRound bool) {
	ps.Coalesced = a.coalesceToFixpoint(splitRound)
	st.Coalesced += ps.Coalesced
	a.graphStats(ps)
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
// *AllocError (pass "context"), or nil while the context is live. pass
// consults it before every pass, so between passes and between rounds
// — the boundaries where the allocator can be abandoned without leaving
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
