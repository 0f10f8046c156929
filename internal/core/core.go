// Package core implements the paper's register allocator: the optimistic
// graph-coloring allocator of Briggs, Cooper, Kennedy and Torczon,
// extended with the rematerialization machinery of the paper — SSA-based
// renumbering with tag propagation, split insertion, conservative
// coalescing, biased coloring with lookahead, and spill code that
// recomputes never-killed values instead of storing and reloading them.
//
// The same code also runs as the "chaitin" strategy, which reproduces
// the baseline of Table 1: live ranges are formed by unioning every value
// reaching each φ-node (no splits), and a live range is rematerializable
// only when all of its definitions are identical never-killed
// instructions.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/disjoint"
	"repro/internal/dom"
	"repro/internal/ig"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/remat"
	"repro/internal/ssa"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Options configures an allocation.
type Options struct {
	Machine *target.Machine

	// Strategy selects the allocator by strategy spec: a registered name,
	// optionally parameterized ("remat", "chaitin", "spill-everywhere",
	// "ssa-spill", "remat:split=all-loops,no-bias"; see strategy.go).
	// Empty means "chaitin". An unknown spec is an Allocate error.
	Strategy string

	// MaxIterations bounds the spill/color loop (default 32).
	MaxIterations int

	// Verify runs the allocator-independent checker (internal/verify)
	// over the finished allocation — bounds, use-before-def liveness,
	// caller-save discipline, spill-slot soundness, rematerialization
	// tags, and an interpreter differential where possible. A rejected
	// allocation is treated like any other allocator failure: it
	// degrades (below) or errors.
	Verify bool
	// DisableDegradation turns off the spill-everywhere fallback. By
	// default a failed allocation — non-convergence, a contained panic,
	// or a verifier rejection — degrades to a guaranteed-terminating
	// spill-everywhere allocation with Result.Degraded set; with this
	// flag the failure surfaces as an *AllocError instead.
	DisableDegradation bool

	// Telemetry, when non-nil, receives metrics (core.* counters and
	// per-pass timing histograms) and trace events (one span per
	// allocation, iteration and pipeline pass). Telemetry never changes
	// the allocation — it is excluded from the driver cache's option
	// canonicalization — and a nil sink costs nothing on the hot path.
	Telemetry *telemetry.Sink
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = target.Standard()
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 32
	}
	if o.Strategy == "" {
		o.Strategy = "chaitin"
	}
	return o
}

// Canonical returns the options as Allocate uses them, with defaults
// applied (nil Machine becomes the standard machine, zero MaxIterations
// the default bound, an empty Strategy "chaitin"), a valid strategy spec
// rewritten to its canonical Spec, and the non-semantic Telemetry sink
// cleared. Two Options values with equal Canonical semantic fields
// configure identical allocations — the property the driver's
// content-addressed result cache keys on.
func (o Options) Canonical() Options {
	c := o.withDefaults()
	if strat, err := LookupStrategy(c.Strategy); err == nil {
		c.Strategy = strat.Spec()
	}
	c.Telemetry = nil
	return c
}

// IterationStats describes one round of the allocator: aggregate counts
// and the per-pass breakdown round records (see pipeline.go). Each
// PassStat's Time is the round's only timing record; Table 2 groups it
// by PassPhase.
type IterationStats struct {
	Spilled   [iloc.NumClasses]int // live ranges spilled this round
	Remat     [iloc.NumClasses]int // subset of Spilled handled by rematerialization
	Coalesced int                  // copies removed by coalescing
	Splits    int                  // split copies inserted by renumber
	// Passes records each pipeline pass this round actually ran, in
	// execution order, with its wall time and effect.
	Passes []PassStat
}

// Result is a finished allocation.
type Result struct {
	// Routine is the allocated code: register numbers are physical
	// colors in [1, K], fp is register 0, and spill slots occupy
	// FrameWords words of the frame.
	Routine *iloc.Routine
	// Iterations records per-round statistics; Table 2 prints them.
	Iterations []IterationStats
	// SpilledRanges counts live ranges that received spill code, and
	// RematSpills the subset handled by rematerialization.
	SpilledRanges int
	RematSpills   int
	// Strategy is the canonical spec of the strategy that produced the
	// allocation ("remat", "ssa-spill", "remat:split=all-loops", ...).
	Strategy string
	Machine  *target.Machine
	// Degraded reports that the iterated allocator failed and the
	// routine was re-allocated by the spill-everywhere fallback;
	// DegradeReason records why (the original failure's message).
	Degraded      bool
	DegradeReason string
}

// classState is the allocator's view of one register class, and the
// storage every round of every allocation reuses for it. It lives in a
// pooled scratch (scratch.go), so nothing in it outlives a pass that
// did not reset it: renumber resets the live ranges and tags, build
// the graph and the range flags, costs the costs, simplify the stack
// and select the colors, and each table is overwritten in place,
// allocating only where a routine outgrew every earlier one.
type classState struct {
	c    iloc.Class
	sets disjoint.Sets // SSA values unioned into live ranges
	tags []remat.Tag
	// graph, inCode and acrossCall are rebuilt by build and every
	// coalesce rebuild. acrossCall marks live ranges live across a call
	// site; the calling convention restricts them to callee-save colors
	// (those above Machine.CallerSave).
	graph      ig.Graph
	inCode     []bool
	acrossCall []bool
	cost       []float64
	mustNot    []bool
	stack      []int
	colors     []int
	partners   [][]int
	spilled    []int         // the ranges this round spills
	slots      map[int]int64 // spilled live range -> fp offset
	refs       []rangeRefs   // computeCosts' per-range counters
	deg        []int         // simplify's current degrees
	removed    []bool        // simplify's removed nodes
	forbidden  []bool        // select's colors taken by neighbors
	nbColors   []bool        // select's colors held by a partner's neighbors
	isSpilled  []bool        // insertSpills' ranges being spilled
	replaced   []spillTemp   // insertSpills' temporaries in one instruction
	pending    []pendingCopy // renumber's split copies, by predecessor
	live       liveness.Info // the latest liveness solve
	lv         bitset.Set    // build's backward-walk live set
	ssa        ssa.Graph     // renumber's SSA graph
	names      []int32       // renumber's live-range name of each SSA value
	tagWork    []int         // tag propagation's worklist
	out        []*iloc.Instr // insertSpills' rewritten block
	// The most elements of tags, pending and out any pass wrote since
	// the scratch was last released (see restart): past them those
	// tables hold no pointers, so releaseScratch clears only up to them.
	tagsHW, pendingHW, outHW int
}

func (cs *classState) find(n int) int { return cs.sets.Find(n) }

// tagOf returns the tag of the live range containing value n.
func (cs *classState) tagOf(n int) remat.Tag { return cs.tags[cs.find(n)] }

type allocator struct {
	ctx    context.Context
	rt     *iloc.Routine
	opts   Options
	params strategyParams
	res    *Result

	classes [iloc.NumClasses]*classState // the class states of the call's scratch
	passes  []PassStat                   // the slab every round's pass stats are cut from
	phiSlab *[]iloc.Reg                  // the scratch's φ operand slab

	// The control-flow analyses round 0's cfa pass computes. No pass
	// inside the loop adds a block or edits a terminator (jump
	// threading runs only after the final rewrite), so the edges, the
	// split critical edges, the dominator tree with its reverse
	// postorder and frontiers, the loops and Block.Depth all still
	// hold in every later round.
	tree  *dom.Tree
	loops []*cfg.Loop
	df    [][]int

	// inputNames[c], when set, maps each class-c register of the clone
	// to its number in the input (see denseInputNames).
	inputNames [iloc.NumClasses][]int32

	instrs    []iloc.Instr // slab the instructions spill and renumber add are cut from
	frameBase int64        // first fp offset free for spill slots
	nextSlot  int
	roundNo   int    // current round (0-based)
	running   string // the pass running now, "" between passes
}

// resultSlab is the one allocation that holds a result, the statistics
// of its first two rounds (most allocations take one or two) and room
// for those rounds' pass stats.
type resultSlab struct {
	res    Result
	iters  [2]IterationStats
	passes [2 * roundPasses]PassStat
}

// roundPasses is the most passes one round runs: coalesce-cons and
// tags exclude each other, and so do spill and rewrite.
const roundPasses = numPasses - 2

// newAllocator returns an allocator over a clone of rt that keeps its
// per-class tables in sc.
func newAllocator(ctx context.Context, rt *iloc.Routine, opts Options, params strategyParams, sc *scratch) *allocator {
	rs := &resultSlab{res: Result{Machine: opts.Machine}}
	rs.res.Iterations = rs.iters[:0]
	a := &allocator{
		ctx:     ctx,
		rt:      rt.Clone(),
		opts:    opts,
		params:  params,
		res:     &rs.res,
		passes:  rs.passes[:0],
		phiSlab: &sc.phiSlab,
	}
	for c := range sc.classes {
		cs := &sc.classes[c]
		cs.c = iloc.Class(c)
		a.classes[c] = cs
	}
	a.frameBase = scanFrameBase(a.rt)
	a.denseInputNames()
	return a
}

// denseInputNames renames the registers of every class whose register
// space is far larger than the code can name — each instruction names
// at most three registers — to 1..R in ascending order, so the tables
// round 0 sizes by NextReg before renumber compacts the names grow with
// the code, not with its largest register number. Order is kept, so
// the allocation is the one the input's own names give; the input's
// names stay in inputNames for error texts. Register 0, the frame
// pointer, keeps its number.
func (a *allocator) denseInputNames() {
	rt := a.rt
	instrs := 0
	for _, b := range rt.Blocks {
		instrs += len(b.Instrs)
	}
	for c := range iloc.NumClasses {
		if rt.NextReg[c] <= 3*instrs+len(rt.Params)+1 {
			continue
		}
		names := []int32{0}
		forEachRegRef(rt, iloc.Class(c), func(r *iloc.Reg) { names = append(names, r.N) })
		slices.Sort(names)
		names = slices.Compact(names)
		forEachRegRef(rt, iloc.Class(c), func(r *iloc.Reg) {
			n, _ := slices.BinarySearch(names, r.N)
			r.N = int32(n)
		})
		rt.NextReg[c] = len(names)
		a.inputNames[c] = names
	}
}

// forEachRegRef calls f with every class-c register operand of rt other
// than the frame pointer: parameters, sources, destinations and φ
// arguments.
func forEachRegRef(rt *iloc.Routine, c iloc.Class, f func(r *iloc.Reg)) {
	visit := func(r *iloc.Reg) {
		if r.Class == c && r.N > 0 {
			f(r)
		}
	}
	for i := range rt.Params {
		visit(&rt.Params[i].Reg)
	}
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				args := rt.PhiArgs(in)
				for i := range args {
					visit(&args[i])
				}
			} else {
				for i := range in.Src[:in.Op.NSrc()] {
					visit(&in.Src[i])
				}
			}
			if in.Op.HasDst() {
				visit(&in.Dst)
			}
		}
	}
}

// inputReg returns the input's name for register r of the clone.
func (a *allocator) inputReg(r iloc.Reg) iloc.Reg {
	if r.Class < iloc.NumClasses && a.inputNames[r.Class] != nil && r.N >= 0 && int(r.N) < len(a.inputNames[r.Class]) {
		r.N = a.inputNames[r.Class][r.N]
	}
	return r
}

// newInstr returns a zero instruction for the routine, cut from the
// allocator's slab. The slab is not pooled: its instructions end up in
// the result.
func (a *allocator) newInstr() *iloc.Instr {
	if len(a.instrs) == cap(a.instrs) {
		a.instrs = make([]iloc.Instr, 0, min(64, max(8, 2*cap(a.instrs))))
	}
	a.instrs = a.instrs[:len(a.instrs)+1]
	return &a.instrs[len(a.instrs)-1]
}

// Allocate maps the routine's virtual registers onto the machine. The
// input routine is not modified; the returned Result holds an allocated
// clone.
//
// The context bounds the allocation: it is checked between pipeline
// passes and between iterations of the spill/color loop, the only
// places the allocator can run for long (the loop has no a-priori
// iteration bound). When the context's deadline expires mid-allocation
// the allocator does not hang or return empty-handed — it degrades to
// the guaranteed-terminating spill-everywhere allocation with
// DegradeReason "deadline" (unless Options.DisableDegradation, which
// surfaces the expiry as an error). A cancelled context always returns
// the cancellation error: the caller no longer wants any result.
//
// Allocate is safe for concurrent use, including calls sharing the same
// input routine or Machine: the input is only read (verified and
// cloned), the Machine is never written, all working state lives in the
// per-call allocator, and the package-level pass and strategy tables
// are never written after init. The driver package relies on this to
// allocate whole modules in parallel.
func Allocate(ctx context.Context, rt *iloc.Routine, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	strat, err := LookupStrategy(opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts.Strategy = strat.Spec()
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := iloc.Verify(rt, false); err != nil {
		return nil, fmt.Errorf("core: input: %w", err)
	}
	tel := opts.Telemetry
	sp := tel.StartSpan(telemetry.CatAlloc, rt.Name)
	res, err := allocateOrDegrade(ctx, rt, opts, strat)
	if sp.Active() {
		sp.StrArg("strategy", opts.Strategy)
		if res != nil {
			sp.Arg("iterations", int64(len(res.Iterations)))
			sp.Arg("spilled", int64(res.SpilledRanges))
			sp.Arg("remat", int64(res.RematSpills))
			if res.Degraded {
				sp.Arg("degraded", 1)
			}
		}
		if err != nil {
			sp.StrArg("error", err.Error())
		}
	}
	sp.End()
	tel.Count("core.allocations", 1)
	if tel.Enabled() {
		tel.Count("core.allocations.strategy."+opts.Strategy, 1)
	}
	if res != nil {
		tel.Count("core.iterations", int64(len(res.Iterations)))
		tel.Count("core.spilled_ranges", int64(res.SpilledRanges))
		tel.Count("core.remat_spills", int64(res.RematSpills))
	}
	if err != nil {
		tel.Count("core.failures", 1)
	}
	return res, err
}

// allocateOrDegrade is Allocate after validation: the selected
// strategy's pipeline plus the spill-everywhere degradation path.
func allocateOrDegrade(ctx context.Context, rt *iloc.Routine, opts Options, strat *Strategy) (*Result, error) {
	res, err := runStrategy(ctx, rt, opts, strat)
	if err == nil {
		return res, nil
	}
	if errors.Is(err, context.Canceled) {
		// Cancellation means the caller abandoned the request; producing
		// a fallback allocation nobody will read helps no one.
		return nil, err
	}
	if opts.DisableDegradation {
		return nil, err
	}
	// Graceful degradation: the iterated allocator failed (it did not
	// converge, a pass panicked, or the verifier rejected its output).
	// Re-allocate with the spill-everywhere fallback, which terminates
	// on any verifiable input, and record why.
	dres, derr := spillEverywhere(rt, opts)
	if derr != nil {
		return nil, err // fallback failed too; report the original fault
	}
	if opts.Verify {
		if verr := verifyResult(rt, dres, opts); verr != nil {
			return nil, &AllocError{
				Routine: rt.Name, Pass: "verify",
				Err: fmt.Errorf("spill-everywhere fallback rejected (%v) after: %w", verr, err),
			}
		}
	}
	dres.Degraded = true
	dres.Strategy = opts.Strategy
	dres.DegradeReason = err.Error()
	if errors.Is(err, context.DeadlineExceeded) {
		// The fixed reason string is the contract deadline-aware callers
		// (the serving layer, the driver's cache-admission rule) key on.
		dres.DegradeReason = DegradeReasonDeadline
	}
	opts.Telemetry.Count("core.degradations", 1)
	opts.Telemetry.Instant(telemetry.CatDegrade, rt.Name,
		telemetry.Arg{Key: "reason", Str: dres.DegradeReason})
	return dres, nil
}

// runStrategy executes one strategy and, when requested, the
// allocator-independent verifier over its output. A verifier
// rejection is an allocation failure like any other — the caller
// degrades or errors — so every strategy's output is held to the same
// standard whatever its construction.
func runStrategy(ctx context.Context, rt *iloc.Routine, opts Options, strat *Strategy) (*Result, error) {
	// The context gate every strategy shares: single-pass constructions
	// (spill-everywhere, ssa-spill) are linear and need no mid-pipeline
	// checks, but an already-ended context must still surface — expired
	// deadlines degrade, cancellations abort.
	if err := ctx.Err(); err != nil {
		return nil, &AllocError{Routine: rt.Name, Pass: "context", Err: err}
	}
	var res *Result
	var err error
	switch strat.name {
	case "spill-everywhere":
		res, err = spillEverywhere(rt, opts)
	case "ssa-spill":
		res, err = ssaSpill(rt, opts)
	default: // chaitin and remat: Figure 2
		res, err = allocate(ctx, rt, opts, strat.params)
	}
	if err != nil {
		return nil, err
	}
	res.Strategy = opts.Strategy
	if opts.Verify {
		if verr := verifyResult(rt, res, opts); verr != nil {
			return nil, &AllocError{
				Routine: rt.Name, Pass: "verify", Iteration: len(res.Iterations) - 1, Err: verr,
			}
		}
	}
	return res, nil
}

// allocate runs Figure 2's allocator over a clone of rt. It is the one
// place a panic is contained: a panic anywhere inside — an allocator
// bug, a violated invariant, or the PanicHook fault injector — is
// recovered into a structured *AllocError naming the routine and the
// pass and round running at the time, so one poisoned routine fails as
// an error value rather than unwinding the caller (or a whole driver
// batch).
func allocate(ctx context.Context, rt *iloc.Routine, opts Options, params strategyParams) (res *Result, err error) {
	var a *allocator
	defer func() {
		if r := recover(); r != nil {
			pass, round := "", 0
			if a != nil {
				pass, round = a.running, a.roundNo
			}
			res, err = nil, recovered(rt.Name, pass, round, r)
		}
	}()
	sc := getScratch()
	defer releaseScratch(sc)
	a = newAllocator(ctx, rt, opts, params, sc)
	return a.run()
}

// run repeats round until it colors every live range.
func (a *allocator) run() (*Result, error) {
	for iter := 0; iter < a.opts.MaxIterations; iter++ {
		a.roundNo = iter
		done, err := a.round()
		if err != nil {
			return nil, err
		}
		if !done {
			continue
		}
		a.res.Routine = a.rt
		return a.res, nil
	}
	return nil, &AllocError{
		Routine: a.rt.Name, Pass: "loop", Iteration: a.opts.MaxIterations - 1,
		Err: fmt.Errorf("allocation did not converge in %d iterations", a.opts.MaxIterations),
	}
}

// verifyResult runs the independent post-allocation checker against the
// original input routine.
func verifyResult(input *iloc.Routine, res *Result, opts Options) error {
	return verify.Check(input, res.Routine, opts.Machine,
		verify.Options{Differential: true, Telemetry: opts.Telemetry})
}

// scanFrameBase finds the first fp-relative offset beyond any the routine
// already uses, so spill slots do not collide with its locals.
func scanFrameBase(rt *iloc.Routine) int64 {
	var base int64
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		switch in.Op {
		case iloc.OpLoadai, iloc.OpFloadai:
			if in.Src[0].IsFP() && in.Imm+8 > base {
				base = in.Imm + 8
			}
		case iloc.OpStoreai, iloc.OpFstoreai:
			if in.Src[1].IsFP() && in.Imm+8 > base {
				base = in.Imm + 8
			}
		case iloc.OpAddi, iloc.OpSubi:
			if in.Src[0].IsFP() && in.Imm+8 > base {
				base = in.Imm + 8
			}
		}
	})
	return base
}

// resetSlots clears the per-root spill-slot maps. Live-range names are
// reassigned by renumber each round, so slots must never be shared
// across rounds.
func (a *allocator) resetSlots() {
	for _, cs := range a.classes {
		if cs.slots == nil {
			cs.slots = make(map[int]int64)
		}
		clear(cs.slots)
	}
}

// slotFor returns (allocating if needed) the frame offset of a spilled
// live range.
func (a *allocator) slotFor(cs *classState, root int) int64 {
	if off, ok := cs.slots[root]; ok {
		return off
	}
	off := a.frameBase + int64(a.nextSlot)*8
	a.nextSlot++
	cs.slots[root] = off
	a.rt.FrameWords = int(a.frameBase/8) + a.nextSlot
	return off
}
