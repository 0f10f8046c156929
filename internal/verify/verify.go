// Package verify is an allocator-independent checker for finished
// allocations: given the input routine, the allocated routine and the
// machine the allocator colored for, it re-derives every safety property
// the allocation must satisfy without trusting any of the allocator's
// intermediate state. This is translation-validation in the style of
// verified-compiler work (cf. Schneider et al., "A Linear First-Order
// Functional Intermediate Language for Verified Compilers"): the checker
// is a small, separate program whose soundness does not depend on the
// correctness of the coloring, coalescing or spill machinery it audits.
//
// Rules, in the order they run:
//
//	structure     the allocated routine passes iloc.Verify and is
//	              marked Allocated
//	bounds        every register is a physical color within the
//	              machine's bank for its class (1..K; fp is register 0)
//	use-before-def  static liveness over the allocated code shows no
//	              path using a register before it is defined
//	caller-save   no caller-save color is live across a call
//	spill-slots   spill slots lie inside the frame above the words the
//	              input addresses itself (iloc.(*Routine).LocalWords),
//	              are written before they are read on every path, and
//	              are never shared between the integer and float banks
//	remat         every rematerialization recomputes a never-killed
//	              instruction whose operands are always available
//	differential  (optional) both routines execute in the interpreter
//	              and must produce the same return value and memory image
//
// The differential check only runs for routines whose inputs come
// entirely from their static data — no parameters, no calls, since the
// checker has no argument values or callees to supply.
package verify

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/liveness"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// Options tunes a check.
type Options struct {
	// Differential enables the interpreter equivalence check on routines
	// without parameters or calls.
	Differential bool
	// MaxSteps bounds each differential execution (default 2 million).
	MaxSteps int64
	// Telemetry, when non-nil, receives one span per rule (category
	// "verify") and verify.* counters. A nil sink costs nothing.
	Telemetry *telemetry.Sink
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 2_000_000
	}
	return o
}

// Violation is one broken rule.
type Violation struct {
	// Rule names the check that failed (structure, bounds,
	// use-before-def, caller-save, spill-slots, remat, differential).
	Rule string
	// Detail describes the violation, usually quoting the instruction.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Error reports a rejected allocation: every violation found, not just
// the first.
type Error struct {
	Routine    string
	Violations []Violation
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s: %d violation(s)", e.Routine, len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  " + v.String())
	}
	return b.String()
}

// checker accumulates violations for one run.
type checker struct {
	m          *target.Machine
	input      *iloc.Routine
	allocated  *iloc.Routine
	opts       Options
	violations []Violation
}

func (c *checker) flag(rule, format string, args ...any) {
	c.violations = append(c.violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Check validates allocated against input on machine m. Neither routine
// is modified (the checker clones before running CFG analyses). It
// returns nil for a clean allocation and an *Error listing every
// violation otherwise.
func Check(input, allocated *iloc.Routine, m *target.Machine, opts Options) error {
	c := &checker{m: m, input: input, allocated: allocated, opts: opts.withDefaults()}
	tel := c.opts.Telemetry
	tel.Count("verify.checks", 1)
	err := c.run()
	tel.Count("verify.violations", int64(len(c.violations)))
	if err != nil {
		tel.Count("verify.rejections", 1)
	}
	return err
}

// run executes the rules in order, timing each under a telemetry span
// so long batch runs show where verification time goes.
func (c *checker) run() error {
	// Structural soundness gates everything else: the later rules assume
	// well-formed blocks, operands of the right class, and no φ-nodes.
	// (A missing Allocated mark is flagged but does not gate — the code
	// itself is still well-formed enough for the dataflow rules.)
	wellFormed := true
	c.rule("structure", func() {
		if err := iloc.Verify(c.allocated, false); err != nil {
			c.flag("structure", "%v", err)
			wellFormed = false
			return
		}
		if !c.allocated.Allocated {
			c.flag("structure", "routine is not marked allocated")
		}
	})
	if !wellFormed {
		return c.err()
	}
	c.rule("bounds", c.checkBounds)
	if len(c.violations) > 0 {
		// Out-of-bank registers would index liveness sets out of range.
		return c.err()
	}

	// The dataflow rules need CFG edges; cfg.Build prunes unreachable
	// blocks, so run it on a clone to leave the caller's routine alone.
	rt := c.allocated.Clone()
	if err := cfg.Build(rt); err != nil {
		c.flag("structure", "CFG: %v", err)
		return c.err()
	}
	// Both liveness rules read one solve of every class.
	lives := liveness.ComputeAll(rt)
	c.rule("use-before-def", func() { c.checkUseBeforeDef(rt, &lives) })
	c.rule("caller-save", func() { c.checkCallerSave(rt, &lives) })
	c.rule("spill-slots", func() { c.checkSpillSlots(rt) })
	c.rule("remat", c.checkRemat)
	if c.opts.Differential && len(c.violations) == 0 {
		c.rule("differential", c.checkDifferential)
	}
	return c.err()
}

// rule runs one named check under a telemetry span, recording how many
// violations it added; it returns true when the rule passed clean.
func (c *checker) rule(name string, f func()) bool {
	before := len(c.violations)
	sp := c.opts.Telemetry.StartSpan(telemetry.CatVerify, name)
	f()
	added := len(c.violations) - before
	if added != 0 {
		sp.Arg("violations", int64(added))
	}
	sp.End()
	return added == 0
}

func (c *checker) err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &Error{Routine: c.allocated.Name, Violations: c.violations}
}

// checkBounds: every register the code mentions is a physical register
// of its class's bank: 0 (reserved) up to Regs[class]-1, i.e. a color in
// [1, K] or the frame pointer.
func (c *checker) checkBounds() {
	check := func(r iloc.Reg, in *iloc.Instr) {
		if !r.Valid() {
			return
		}
		if r.N < 0 || int(r.N) >= c.m.Regs[r.Class] {
			c.flag("bounds", "register %s outside the %d-register %s bank in %q",
				r, c.m.Regs[r.Class], r.Class, c.allocated.InstrString(in))
		}
	}
	c.allocated.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		check(in.Def(), in)
		for _, u := range c.allocated.Uses(in) {
			check(u, in)
		}
	})
}

// checkUseBeforeDef: solve liveness over the allocated code; a register
// live into the entry block is one some path reads before any write.
// Physical registers hold no values at routine entry (parameters arrive
// through getparam), so the entry's live-in set must be empty apart from
// the always-defined frame pointer.
func (c *checker) checkUseBeforeDef(rt *iloc.Routine, lives *[iloc.NumClasses]*liveness.Info) {
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		in := lives[cl].LiveInOf(rt.Entry().Index)
		in.ForEach(func(r int) {
			if r != 0 {
				c.flag("use-before-def", "register %s%d read before any definition on some path",
					bankPrefix(cl), r)
			}
		})
	}
}

// checkCallerSave: walking each block backward from its live-out set, no
// register in the caller-save band (colors 1..CallerSave) may be live
// across a call — the callee is free to clobber it.
func (c *checker) checkCallerSave(rt *iloc.Routine, lives *[iloc.NumClasses]*liveness.Info) {
	var live bitset.Set
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		live.Reset(rt.NumRegs(cl))
		for _, b := range rt.Blocks {
			out := lives[cl].LiveOutOf(b.Index)
			live.CopyFrom(&out)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Op.IsCall() {
					live.ForEach(func(r int) {
						if r >= 1 && r <= c.m.CallerSave {
							c.flag("caller-save", "caller-save register %s%d live across %q",
								bankPrefix(cl), r, rt.InstrString(in))
						}
					})
				}
				if d := in.Def(); d.Valid() && d.Class == cl && d.N != 0 {
					live.Remove(int(d.N))
				}
				for _, u := range rt.Uses(in) {
					if u.Class == cl && u.N != 0 {
						live.Add(int(u.N))
					}
				}
			}
		}
	}
}

// spillAccess classifies one frame access inserted by the spill phase.
type spillAccess struct {
	off   int64
	class iloc.Class
	store bool
}

// spillAccessOf recognizes the allocator's spill traffic: IsSpill
// loadai/storeai and their float twins addressed off the frame pointer.
func spillAccessOf(in *iloc.Instr) (spillAccess, bool) {
	switch {
	case !in.IsSpill:
	case (in.Op == iloc.OpLoadai || in.Op == iloc.OpFloadai) && in.Src[0].IsFP():
		return spillAccess{off: in.Imm, class: in.Dst.Class}, true
	case (in.Op == iloc.OpStoreai || in.Op == iloc.OpFstoreai) && in.Src[1].IsFP():
		return spillAccess{off: in.Imm, class: in.Src[0].Class, store: true}, true
	}
	return spillAccess{}, false
}

// checkSpillSlots: spill traffic stays inside the frame the routine
// declares and above the words the input addresses itself (its
// LocalWords, where slot 0 starts), every slot is written before it is
// read on all paths (forward must-analysis over slot indices), and no
// slot serves both register banks — the aliasing the
// slot-per-live-range discipline must prevent.
func (c *checker) checkSpillSlots(rt *iloc.Routine) {
	local, frame := int64(c.input.LocalWords())*8, int64(rt.FrameWords)*8
	slots := int(max(frame-local, 0) / 8)
	slotOf := func(off int64) (int, bool) {
		return int((off - local) / 8), off%8 == 0 && off >= local && off+8 <= frame
	}
	// The slots each bank stores to, the meet, and one set per block,
	// over one slab.
	var sets []bitset.Set
	if slots > 0 {
		w := bitset.Words(slots)
		slab := make([]uint64, (len(rt.Blocks)+3)*w)
		sets = make([]bitset.Set, len(rt.Blocks)+3)
		for i := range sets {
			sets[i] = bitset.View(slab[i*w:], slots)
		}
	}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		sa, ok := spillAccessOf(in)
		s, _ := slotOf(sa.off)
		switch other := 1 - sa.class; {
		case !ok:
		case sa.off < 0 || sa.off+8 > frame:
			c.flag("spill-slots", "slot %d outside the %d-word frame in %q", sa.off, rt.FrameWords, rt.InstrString(in))
		case sa.off%8 != 0:
			c.flag("spill-slots", "unaligned slot %d in %q", sa.off, rt.InstrString(in))
		case sa.off < local:
			c.flag("spill-slots", "slot %d aliases the routine's own %d frame words in %q", sa.off, local/8, rt.InstrString(in))
		case !sa.store:
		case sets[other].Has(s):
			c.flag("spill-slots", "slot %d aliased across banks (%s and %s) in %q", sa.off, other, sa.class, rt.InstrString(in))
		default:
			sets[sa.class].Add(s)
		}
	})
	if slots == 0 {
		return
	}

	// Forward must-analysis: a slot is definitely written at a point when
	// every path from the entry stores to it first. Every block starts
	// at ⊤, every slot written: it is the identity of the meet, so a
	// loop header's back edge does not erase the stores that dominate
	// the loop.
	in, written := &sets[2], sets[3:]
	for s := range slots {
		written[0].Add(s)
	}
	for i := range written {
		written[i].CopyFrom(&written[0])
	}
	transfer := func(b *iloc.Block, report bool) {
		in.Clear()
		if b != rt.Entry() && len(b.Preds) > 0 {
			in.CopyFrom(&written[b.Preds[0].Index])
			for _, p := range b.Preds[1:] {
				in.IntersectWith(&written[p.Index])
			}
		}
		for _, instr := range b.Instrs {
			sa, ok := spillAccessOf(instr)
			s, isSlot := slotOf(sa.off)
			switch {
			case !ok || !isSlot:
			case sa.store:
				in.Add(s)
			case report && !in.Has(s):
				c.flag("spill-slots", "slot %d read before any store on some path in %q", sa.off, rt.InstrString(instr))
			}
		}
	}
	rpo := cfg.ReversePostorder(rt)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			transfer(b, false)
			if !in.Equal(&written[b.Index]) {
				written[b.Index].CopyFrom(in)
				changed = true
			}
		}
	}
	for _, b := range rpo {
		transfer(b, true)
	}
}

// checkRemat: a spill-phase instruction that is not slot traffic must be
// a rematerialization — the recomputation of a never-killed instruction.
// Never-killed means the op is in the candidate class and its register
// operands are always available, which in this language is only the
// reserved frame pointer (§3.1 of the paper).
func (c *checker) checkRemat() {
	c.allocated.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if !in.IsSpill {
			return
		}
		if _, isSlot := spillAccessOf(in); isSlot {
			return
		}
		if !in.Op.RematCandidate() {
			c.flag("remat", "spill-phase instruction %q is neither slot traffic nor a never-killed recomputation", c.allocated.InstrString(in))
			return
		}
		for _, u := range c.allocated.Uses(in) {
			if !u.IsFP() {
				c.flag("remat", "rematerialized %q reads %s, which is not always available", c.allocated.InstrString(in), u)
			}
		}
	})
}

// checkDifferential runs the input and the allocated routine in the
// interpreter and compares return values and memory images. Requires a
// self-contained routine: no parameters to fabricate, no callees to
// resolve.
func (c *checker) checkDifferential() {
	if len(c.input.Params) > 0 {
		return
	}
	hasCall := false
	c.input.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Op.IsCall() {
			hasCall = true
		}
	})
	if hasCall {
		return
	}

	run := func(rt *iloc.Routine) (*interp.Outcome, *interp.Env, error) {
		e, err := interp.New(rt, interp.Config{MaxSteps: c.opts.MaxSteps})
		if err != nil {
			return nil, nil, err
		}
		out, err := e.Run()
		return out, e, err
	}
	want, wantEnv, err := run(c.input)
	if err != nil {
		// The input itself faults or exceeds the budget; there is no
		// reference behavior to compare against.
		return
	}
	got, gotEnv, err := run(c.allocated)
	if err != nil {
		c.flag("differential", "allocated code fails where the input succeeds: %v", err)
		return
	}
	if want.HasRet != got.HasRet {
		c.flag("differential", "return presence differs: input %t, allocated %t", want.HasRet, got.HasRet)
		return
	}
	if want.HasRet {
		if want.RetInt != got.RetInt {
			c.flag("differential", "integer result differs: input %d, allocated %d", want.RetInt, got.RetInt)
		}
		if math.Float64bits(want.RetFloat) != math.Float64bits(got.RetFloat) {
			c.flag("differential", "float result differs: input %g, allocated %g", want.RetFloat, got.RetFloat)
		}
	}
	// Writable static data is the only memory both executions share a
	// name for; the images must agree word for word.
	for _, d := range c.input.Data {
		if d.ReadOnly {
			continue
		}
		wantBase := wantEnv.DataAddr(d.Label)
		gotBase := gotEnv.DataAddr(d.Label)
		for w := 0; w < d.Words; w++ {
			a := wantEnv.IntAt(wantBase + int64(w)*8)
			b := gotEnv.IntAt(gotBase + int64(w)*8)
			if a != b {
				c.flag("differential", "memory differs at %s[%d]: input %#x, allocated %#x", d.Label, w, a, b)
			}
		}
	}
}

func bankPrefix(c iloc.Class) string {
	if c == iloc.ClassInt {
		return "r"
	}
	return "f"
}
