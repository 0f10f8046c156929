// Package rgen generates random, verified, terminating ILOC routines for
// property-testing the allocator: whatever the generator produces, the
// allocated code must compute exactly the same result and leave exactly
// the same memory image as the virtual-register code.
//
// Programs are built from nestable regions — straight-line runs,
// diamonds, and counted loops with literal trip counts — over pools of
// already-defined registers, so every routine verifies, terminates, and
// never faults (division is always by a freshly loaded non-zero
// constant; memory access stays inside declared static arrays).
package rgen

import (
	"fmt"
	"math/rand"

	"repro/internal/iloc"
)

// Config bounds the generated routine. The exported knobs are the
// corpus generator's controls (internal/corpus): CFG shape via MaxDepth
// and Regions, call density via Callees and CallDensity, and register
// pressure via Pressure.
type Config struct {
	// MaxDepth bounds loop/diamond nesting (default 2).
	MaxDepth int
	// Regions bounds the number of top-level regions (default 6).
	Regions int
	// DataWords is the size of each static array (default 16).
	DataWords int
	// Pressure is the number of integer/float register pairs seeded into
	// the live pools and folded into the final result (default 3).
	// Values folded at the end stay live from their definitions to the
	// routine's exit, so raising Pressure directly raises MAXLIVE and
	// with it the spill pressure at any register count.
	Pressure int
	// Name names the generated routine (default "rand"); LabelPrefix
	// prefixes its block labels and static data so several generated
	// routines link into one program/interpreter environment.
	Name        string
	LabelPrefix string
	// Callees are routine names this routine may call (each taking one
	// integer argument and returning an integer, the setarg/call/getret
	// convention). CallDensity is the per-instruction-slot probability of
	// emitting such a call when Callees is non-empty (default 0.125;
	// negative disables calls entirely).
	Callees     []string
	CallDensity float64
	// IntParam adds one integer parameter (read with getparam); RetInt
	// converts the result to an integer return. Both are set for the
	// callees GenerateProgram builds.
	IntParam bool
	RetInt   bool
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 2
	}
	if c.Regions == 0 {
		c.Regions = 6
	}
	if c.DataWords == 0 {
		c.DataWords = 16
	}
	if c.Pressure == 0 {
		c.Pressure = 3
	}
	if c.CallDensity == 0 {
		c.CallDensity = 0.125
	}
	if c.Name == "" {
		c.Name = "rand"
	}
	return c
}

type gen struct {
	rng  *rand.Rand
	cfg  Config
	b    *iloc.Builder
	ints []iloc.Reg // defined integer registers (values, not addresses)
	flts []iloc.Reg
	next int // label counter
}

// Generate returns a random routine. The routine takes no parameters
// (inputs come from its static data), returns a float combining its live
// computation, and writes through its read-write arrays, so the property
// test can compare both the return value and the memory image.
func Generate(rng *rand.Rand, cfg Config) *iloc.Routine {
	cfg = cfg.withDefaults()
	g := &gen{rng: rng, cfg: cfg, b: iloc.NewBuilder(cfg.Name)}

	// Static data: one ro and two rw float arrays, one ro int array.
	rovals := make([]float64, cfg.DataWords)
	iovals := make([]float64, cfg.DataWords)
	for i := range rovals {
		rovals[i] = float64(rng.Intn(41)-20) * 0.25
		iovals[i] = float64(rng.Intn(64) - 16)
	}
	g.b.Data(cfg.LabelPrefix+"rodat", true, cfg.DataWords, true, rovals...)
	g.b.Data(cfg.LabelPrefix+"iodat", true, cfg.DataWords, false, iovals...)
	g.b.Data(cfg.LabelPrefix+"rwa", false, cfg.DataWords, true)
	g.b.Data(cfg.LabelPrefix+"rwb", false, cfg.DataWords, true)

	var param iloc.Reg
	if cfg.IntParam {
		param = g.b.IntParam()
	}
	g.b.Block("entry")
	if cfg.IntParam {
		g.b.Getparam(param, 0)
		g.ints = append(g.ints, param)
	}
	// Seed the pools: Pressure register pairs, all folded into the final
	// result below, so each seeded value's live range spans the whole
	// routine body.
	for i := 0; i < cfg.Pressure; i++ {
		r := g.b.Int()
		g.b.Ldi(r, int64(rng.Intn(21)-10))
		g.ints = append(g.ints, r)
		f := g.b.Flt()
		g.b.Fldi(f, float64(rng.Intn(17)-8)*0.5)
		g.flts = append(g.flts, f)
	}

	for i := 0; i < cfg.Regions; i++ {
		g.region(1)
	}

	// Combine live values into the result: Pressure floats plus one
	// converted int, so the seeded pool stays live to the exit.
	res := g.b.Flt()
	g.b.Fldi(res, 0.0)
	folds := cfg.Pressure
	if folds < 2 {
		folds = 2
	}
	for i := 0; i < folds; i++ {
		g.b.Fadd(res, res, g.anyFlt())
	}
	ci := g.b.Flt()
	g.b.Un(iloc.OpCvtif, ci, g.anyInt())
	g.b.Fadd(res, res, ci)
	// Clamp with fabs/fneg so NaNs/Infs from overflow still compare.
	g.b.Fabs(res, res)
	if cfg.RetInt {
		ir := g.b.Int()
		g.b.Un(iloc.OpCvtfi, ir, res)
		g.b.Retr(ir)
	} else {
		g.b.Retf(res)
	}

	rt := g.b.Routine()
	if err := iloc.Verify(rt, false); err != nil {
		panic(fmt.Sprintf("rgen: generated invalid routine: %v\n%s", err, iloc.Print(rt)))
	}
	return rt
}

// GenerateProgram returns a main routine plus the leaf callees it calls
// through the setarg/call/getret convention. Each callee takes one
// integer argument and returns an integer; labels and routine names are
// prefixed so the program links into one interpreter environment.
func GenerateProgram(rng *rand.Rand, cfg Config) (*iloc.Routine, []*iloc.Routine) {
	cfg = cfg.withDefaults()
	n := 1 + rng.Intn(2)
	var callees []*iloc.Routine
	var names []string
	for i := 0; i < n; i++ {
		ccfg := cfg
		ccfg.Name = fmt.Sprintf("%sleaf%d", cfg.Name, i)
		ccfg.LabelPrefix = fmt.Sprintf("%sc%d_", cfg.LabelPrefix, i)
		ccfg.Regions = 2
		ccfg.MaxDepth = 1
		ccfg.IntParam = true
		ccfg.RetInt = true
		ccfg.Callees = nil
		callees = append(callees, Generate(rng, ccfg))
		names = append(names, ccfg.Name)
	}
	mcfg := cfg
	if mcfg.Name == "rand" {
		mcfg.Name = "main"
	}
	mcfg.LabelPrefix = cfg.LabelPrefix + "m_"
	mcfg.Callees = names
	return Generate(rng, mcfg), callees
}

func (g *gen) label(base string) string {
	g.next++
	return fmt.Sprintf("%s%d", base, g.next)
}

func (g *gen) anyInt() iloc.Reg { return g.ints[g.rng.Intn(len(g.ints))] }
func (g *gen) anyFlt() iloc.Reg { return g.flts[g.rng.Intn(len(g.flts))] }

// defInt returns a destination register: usually fresh (SSA-ish, keeps
// ranges interesting), sometimes a redefinition of an existing one
// (multi-valued live ranges).
func (g *gen) defInt() iloc.Reg {
	if len(g.ints) > 2 && g.rng.Intn(3) == 0 {
		return g.anyInt()
	}
	r := g.b.Int()
	g.ints = append(g.ints, r)
	return r
}

func (g *gen) defFlt() iloc.Reg {
	if len(g.flts) > 2 && g.rng.Intn(3) == 0 {
		return g.anyFlt()
	}
	f := g.b.Flt()
	g.flts = append(g.flts, f)
	return f
}

// region emits one construct at the given nesting depth.
func (g *gen) region(depth int) {
	switch r := g.rng.Intn(10); {
	case r < 5 || depth > g.cfg.MaxDepth:
		g.straight(3 + g.rng.Intn(6))
	case r < 8:
		g.loop(depth)
	default:
		g.diamond(depth)
	}
}

// straight emits n random computational instructions.
func (g *gen) straight(n int) {
	for i := 0; i < n; i++ {
		g.instr()
	}
}

func (g *gen) instr() {
	// Call one of the available routines with probability CallDensity:
	// pass an integer, pull the integer result back into the pool.
	if len(g.cfg.Callees) > 0 && g.cfg.CallDensity > 0 && g.rng.Float64() < g.cfg.CallDensity {
		x := g.anyInt()
		g.b.Emit(&iloc.Instr{Op: iloc.OpSetarg, Dst: iloc.NoReg, Src: [2]iloc.Reg{x, iloc.NoReg}, Imm: 0})
		g.b.Emit(&iloc.Instr{Op: iloc.OpCall, Dst: iloc.NoReg, Label: g.b.Label(g.cfg.Callees[g.rng.Intn(len(g.cfg.Callees))])})
		g.b.Emit(&iloc.Instr{Op: iloc.OpGetret, Dst: g.defInt(), Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}})
		return
	}
	// Sources are always drawn before the destination: defInt/defFlt add
	// fresh registers to the pools, and a source picked afterwards could
	// be the not-yet-defined destination itself.
	switch g.rng.Intn(20) {
	case 0:
		g.b.Ldi(g.defInt(), int64(g.rng.Intn(31)-15))
	case 1:
		g.b.Fldi(g.defFlt(), float64(g.rng.Intn(21)-10)*0.25)
	case 2:
		ops := []iloc.Op{iloc.OpAdd, iloc.OpSub, iloc.OpMul, iloc.OpAnd, iloc.OpOr, iloc.OpXor}
		x, y := g.anyInt(), g.anyInt()
		g.b.Bin(ops[g.rng.Intn(len(ops))], g.defInt(), x, y)
	case 3:
		ops := []iloc.Op{iloc.OpFadd, iloc.OpFsub, iloc.OpFmul}
		x, y := g.anyFlt(), g.anyFlt()
		g.b.Bin(ops[g.rng.Intn(len(ops))], g.defFlt(), x, y)
	case 4:
		x := g.anyInt()
		g.b.Addi(g.defInt(), x, int64(g.rng.Intn(15)-7))
	case 5:
		x := g.anyInt()
		g.b.Mov(g.defInt(), x)
	case 6:
		x := g.anyFlt()
		g.b.Un(iloc.OpFmov, g.defFlt(), x)
	case 7: // safe division: divisor is a fresh non-zero constant
		d := g.b.Int()
		g.b.Ldi(d, int64(1+g.rng.Intn(7)))
		x := g.anyInt()
		g.b.Div(g.defInt(), x, d)
	case 8: // safe shift by a fresh small constant
		s := g.b.Int()
		g.b.Ldi(s, int64(g.rng.Intn(4)))
		op := iloc.OpShl
		if g.rng.Intn(2) == 0 {
			op = iloc.OpShr
		}
		x := g.anyInt()
		g.b.Bin(op, g.defInt(), x, s)
	case 9: // rload/frload from read-only data (never-killed loads)
		off := int64(g.rng.Intn(g.cfg.DataWords)) * 8
		if g.rng.Intn(2) == 0 {
			g.b.Emit(&iloc.Instr{Op: iloc.OpRload, Dst: g.defInt(), Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}, Label: g.b.Label(g.cfg.LabelPrefix + "iodat"), Imm: off})
		} else {
			g.b.Emit(&iloc.Instr{Op: iloc.OpFrload, Dst: g.defFlt(), Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}, Label: g.b.Label(g.cfg.LabelPrefix + "rodat"), Imm: off})
		}
	case 10: // indexed load from a constant base
		base := g.b.Int()
		g.b.Lda(base, g.cfg.LabelPrefix+"rodat")
		g.b.Floadai(g.defFlt(), base, int64(g.rng.Intn(g.cfg.DataWords))*8)
	case 11: // store to a read-write array at a constant slot
		base := g.b.Int()
		arr := g.cfg.LabelPrefix + "rwa"
		if g.rng.Intn(2) == 0 {
			arr = g.cfg.LabelPrefix + "rwb"
		}
		g.b.Lda(base, arr)
		g.b.Fstoreai(g.anyFlt(), base, int64(g.rng.Intn(g.cfg.DataWords))*8)
	case 12:
		x := g.anyInt()
		g.b.Un(iloc.OpCvtif, g.defFlt(), x)
	case 13:
		x := g.anyFlt()
		g.b.Fabs(g.defFlt(), x)
	case 14:
		x := g.anyInt()
		g.b.Un(iloc.OpNeg, g.defInt(), x)
	case 15: // cvtfi on a clamped value (fabs then compare-free small range)
		x := g.anyFlt()
		f := g.b.Flt()
		g.b.Fabs(f, x)
		g.b.Un(iloc.OpCvtfi, g.defInt(), f)
	case 16:
		x := g.anyInt()
		g.b.Subi(g.defInt(), x, int64(g.rng.Intn(9)))
	case 17:
		x, y := g.anyFlt(), g.anyFlt()
		ops := []iloc.Op{iloc.OpFdiv, iloc.OpFsub}
		g.b.Bin(ops[g.rng.Intn(2)], g.defFlt(), x, y)
	case 18: // frame traffic: store to a fixed fp slot, read it back.
		// The allocator's spill slots must stay disjoint from these.
		slot := int64(g.rng.Intn(6)) * 8
		x := g.anyInt()
		g.b.Storeai(x, iloc.FP, slot)
		g.b.Loadai(g.defInt(), iloc.FP, slot)
	case 19: // fp-relative address arithmetic (never-killed).
		slot := int64(g.rng.Intn(6)) * 8
		addr := g.b.Int()
		g.b.Addi(addr, iloc.FP, slot)
		x := g.anyFlt()
		g.b.Fstore(x, addr)
		g.b.Fload(g.defFlt(), addr)
	}
}

// loop emits a counted loop with a literal trip count, optionally
// walking a pointer across an array (the multi-valued live range the
// paper is about).
func (g *gen) loop(depth int) {
	trips := 2 + g.rng.Intn(5)
	head, body, exit := g.label("head"), g.label("body"), g.label("exit")

	i := g.b.Int()
	n := g.b.Int()
	g.b.Ldi(i, 0)
	g.b.Ldi(n, int64(trips))

	var walker iloc.Reg
	walk := g.rng.Intn(2) == 0 && trips <= g.cfg.DataWords
	arr := g.cfg.LabelPrefix + "rodat"
	if walk {
		walker = g.b.Int()
		if g.rng.Intn(2) == 0 {
			arr = g.cfg.LabelPrefix + "rwa"
		}
		g.b.Lda(walker, arr)
	}

	g.b.Jmp(head)
	g.b.Block(head)
	t := g.b.Int()
	g.b.Sub(t, i, n)
	g.b.Br(iloc.CondGE, t, exit, body)

	// Registers first defined inside the body are not defined on the
	// zero-trip path through head; they must not escape the loop.
	snapI, snapF := len(g.ints), len(g.flts)

	g.b.Block(body)
	// Loop-carried float accumulation keeps ranges live around the back
	// edge.
	acc := g.anyFlt()
	if walk {
		v := g.b.Flt()
		g.b.Fload(v, walker)
		g.b.Fadd(acc, acc, v)
		if arr == g.cfg.LabelPrefix+"rwa" && g.rng.Intn(2) == 0 {
			g.b.Fstore(acc, walker)
		}
		g.b.Addi(walker, walker, 8)
	} else {
		g.b.Fadd(acc, acc, g.anyFlt())
	}
	inner := 1 + g.rng.Intn(3)
	for k := 0; k < inner; k++ {
		g.instr()
	}
	if depth < g.cfg.MaxDepth && g.rng.Intn(3) == 0 {
		g.region(depth + 1)
	}
	g.b.Addi(i, i, 1)
	g.b.Jmp(head)

	g.b.Block(exit)
	g.ints = g.ints[:snapI]
	g.flts = g.flts[:snapF]
	// The walker is exhausted; it was never in the pool.
	_ = walker
}

// diamond emits an if/else joining at a fresh block, with both arms
// defining the same registers differently (φ material).
func (g *gen) diamond(depth int) {
	a, b, join := g.label("then"), g.label("else"), g.label("join")
	g.b.Br(iloc.CondGT, g.anyInt(), a, b)

	mergedI := g.b.Int()
	mergedF := g.b.Flt()

	// Registers first defined inside one arm are undefined on the other
	// path; only the merged pair (defined in both arms) survives the join.
	snapI, snapF := len(g.ints), len(g.flts)

	g.b.Block(a)
	g.b.Ldi(mergedI, int64(g.rng.Intn(9)))
	g.b.Fldi(mergedF, 1.5)
	g.straight(1 + g.rng.Intn(3))
	if depth < g.cfg.MaxDepth && g.rng.Intn(4) == 0 {
		g.region(depth + 1)
	}
	g.b.Jmp(join)
	g.ints = g.ints[:snapI]
	g.flts = g.flts[:snapF]

	g.b.Block(b)
	g.b.Ldi(mergedI, int64(10+g.rng.Intn(9)))
	g.b.Un(iloc.OpFneg, mergedF, g.anyFlt())
	g.straight(1 + g.rng.Intn(3))
	g.b.Jmp(join)
	g.ints = g.ints[:snapI]
	g.flts = g.flts[:snapF]

	g.b.Block(join)
	g.ints = append(g.ints, mergedI)
	g.flts = append(g.flts, mergedF)
}
