// Package interp executes ILOC routines directly, counting every
// instruction it retires. The paper translated allocated ILOC into
// instrumented C, compiled it and ran it with real data to collect
// dynamic counts of loads, stores, copies, load-immediates and
// add-immediates (§5); interpreting the ILOC gives the identical
// measurements without an offline C toolchain (DESIGN.md §4).
//
// Memory is byte-addressed with 8-byte words. The layout is:
//
//	[0, data)            static data items, read-only ones first
//	[data, data+frame)   the frame (fp = data): the routine's LocalWords,
//	                     its spill slots up to FrameWords, 8 spare words
//	[.., ..)             memory handed out by Alloc, callee frames too
//
// Data addresses depend only on the data, so a routine and its
// allocation, whose spill slots make its frame larger, agree on them.
//
// Loads and stores must be 8-byte aligned and in bounds; stores into
// read-only data items fail. Both checks catch allocator bugs loudly.
package interp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/iloc"
)

// Value is a routine argument: an integer (often an address) or a double.
type Value struct {
	I       int64
	F       float64
	IsFloat bool
}

// Int makes an integer argument.
func Int(v int64) Value { return Value{I: v} }

// Float makes a floating-point argument.
func Float(f float64) Value { return Value{F: f, IsFloat: true} }

// Config tunes an execution environment.
type Config struct {
	// MaxSteps bounds retired instructions (default 200 million).
	MaxSteps int64
	// Display simulates the lexical-scope display: ldisp rD, L reads
	// Display[L]. Levels beyond the slice read zero. Entries typically
	// hold addresses of scratch memory allocated with Env.Alloc.
	Display []int64
	// Routines supplies callees for call instructions, resolved by name.
	// Each activation gets a fresh register file and its own frame; if
	// the calling routine is allocated, its caller-save registers are
	// poisoned after the call returns, so an allocation that wrongly
	// keeps a live value in a caller-save color computes garbage.
	Routines []*iloc.Routine
	// MaxDepth bounds call nesting (default 256).
	MaxDepth int
}

// Env is an execution environment for one routine: its memory image plus
// data-section addresses. Create with New, optionally Alloc scratch
// memory and pass its addresses as arguments, then Run.
type Env struct {
	rt       *iloc.Routine
	cfg      Config
	mem      []byte
	fp       int64 // the main activation's frame base
	data     map[string]int64
	roHi     int64 // read-only data span [0, roHi)
	routines map[string]*iloc.Routine
	code     map[*iloc.Routine]code          // each routine's blocks and frame size
	names    map[*iloc.Routine]iloc.RegNames // the input register names of each clone dense made
}

// code is what each activation of a routine needs besides the routine.
type code struct {
	blocks     []*iloc.Block // BlockOf
	frameWords int           // the words of each activation's frame
}

// Outcome reports one execution.
type Outcome struct {
	Counts   map[iloc.Op]int64 // dynamic instruction counts
	Steps    int64
	RetInt   int64
	RetFloat float64
	HasRet   bool // retr/retf executed (ret alone leaves HasRet false)
}

// Cycles prices the execution with a cost model: memCycles per load and
// store, otherCycles for the rest (the paper uses 2 and 1).
func (o *Outcome) Cycles(memCycles, otherCycles int64) int64 {
	var total int64
	for op, n := range o.Counts {
		if op.IsMem() {
			total += n * memCycles
		} else {
			total += n * otherCycles
		}
	}
	return total
}

// Count sums the dynamic counts of the given ops.
func (o *Outcome) Count(ops ...iloc.Op) int64 {
	var n int64
	for _, op := range ops {
		n += o.Counts[op]
	}
	return n
}

// New builds an environment for the routine: static data, then frame.
// A routine whose register names are sparse runs as a densely named
// clone (see dense); error texts still name its registers as it does.
func New(rt *iloc.Routine, cfg Config) (*Env, error) {
	if err := iloc.Verify(rt, false); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 256
	}
	e := &Env{cfg: cfg, data: make(map[string]int64), routines: make(map[string]*iloc.Routine)}
	for _, callee := range cfg.Routines {
		if err := iloc.Verify(callee, false); err != nil {
			return nil, fmt.Errorf("interp: callee: %w", err)
		}
		if _, dup := e.routines[callee.Name]; dup {
			return nil, fmt.Errorf("interp: duplicate routine %q", callee.Name)
		}
		e.routines[callee.Name] = e.dense(callee)
	}
	e.rt = e.dense(rt)
	e.routines[rt.Name] = e.rt
	e.code = make(map[*iloc.Routine]code, len(e.routines))
	for _, r := range e.routines {
		e.code[r] = code{blocks: r.BlockOf(), frameWords: max(r.FrameWords, r.LocalWords()) + 8}
	}

	// Static data of the main routine and every callee; read-only items
	// first so they form one contiguous protected span.
	all := append([]*iloc.Routine{rt}, cfg.Routines...)
	for pass := 0; pass < 2; pass++ {
		for _, r := range all {
			for i := range r.Data {
				d := &r.Data[i]
				if d.ReadOnly != (pass == 0) {
					continue
				}
				if _, dup := e.data[d.Label]; dup {
					return nil, fmt.Errorf("interp: duplicate data label %q across routines", d.Label)
				}
				addr := e.Alloc(d.Words)
				e.data[d.Label] = addr
				for w, v := range d.Init {
					if d.IsFloat {
						e.SetFloat(addr+int64(w)*8, v)
					} else {
						e.SetInt(addr+int64(w)*8, int64(v))
					}
				}
				if pass == 0 {
					e.roHi = int64(len(e.mem))
				}
			}
		}
	}
	e.fp = e.Alloc(e.code[e.rt].frameWords)
	return e, nil
}

// dense returns the routine activations of rt run: rt, or a clone
// named densely (iloc.(*Routine).DenseRegs) when rt's names are sparse
// and it is not allocated, so register files grow with the code, not
// with its largest register number.
func (e *Env) dense(rt *iloc.Routine) *iloc.Routine {
	if rt.Allocated || !rt.SparseRegs() {
		return rt
	}
	c := rt.Clone()
	if e.names == nil {
		e.names = make(map[*iloc.Routine]iloc.RegNames)
	}
	e.names[c] = c.DenseRegs()
	return c
}

// instrString prints instruction in of rt as its input names it.
func (e *Env) instrString(rt *iloc.Routine, in *iloc.Instr) string {
	if names, ok := e.names[rt]; ok {
		named := *in
		named.Dst = names.Input(named.Dst)
		for i := range named.Src {
			named.Src[i] = names.Input(named.Src[i])
		}
		in = &named
	}
	return rt.InstrString(in)
}

// Alloc extends memory by words 8-byte words of scratch space and returns
// its base address.
func (e *Env) Alloc(words int) int64 {
	addr := int64(len(e.mem))
	e.mem = append(e.mem, make([]byte, words*8)...)
	return addr
}

// DataAddr returns the address of a static data item.
func (e *Env) DataAddr(label string) int64 {
	a, ok := e.data[label]
	if !ok {
		panic(fmt.Sprintf("interp: no data item %q", label))
	}
	return a
}

// SetInt stores an integer word at a byte address.
func (e *Env) SetInt(addr, v int64) {
	binary.LittleEndian.PutUint64(e.mem[addr:], uint64(v))
}

// SetFloat stores a double at a byte address.
func (e *Env) SetFloat(addr int64, f float64) {
	binary.LittleEndian.PutUint64(e.mem[addr:], math.Float64bits(f))
}

// IntAt reads an integer word.
func (e *Env) IntAt(addr int64) int64 {
	return int64(binary.LittleEndian.Uint64(e.mem[addr:]))
}

// FloatAt reads a double.
func (e *Env) FloatAt(addr int64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(e.mem[addr:]))
}

// checkAddr checks an access of instruction in of routine rt.
func (e *Env) checkAddr(addr int64, store bool, rt *iloc.Routine, in *iloc.Instr) error {
	if addr < 0 || addr+8 > int64(len(e.mem)) {
		return fmt.Errorf("interp: %s: address %d out of bounds [0,%d)", e.instrString(rt, in), addr, len(e.mem))
	}
	if addr%8 != 0 {
		return fmt.Errorf("interp: %s: unaligned address %d", e.instrString(rt, in), addr)
	}
	if store && addr < e.roHi {
		return fmt.Errorf("interp: %s: store into read-only data at %d", e.instrString(rt, in), addr)
	}
	return nil
}

// Run executes the routine with the given arguments (one per declared
// parameter, classes matching) and returns the dynamic counts, which
// include the work of any routines it calls.
func (e *Env) Run(args ...Value) (*Outcome, error) {
	out := &Outcome{Counts: make(map[iloc.Op]int64, 32)}
	ret, err := e.exec(e.rt, args, e.fp, 0, out)
	if err != nil {
		return nil, err
	}
	out.RetInt, out.RetFloat, out.HasRet = ret.i, ret.f, ret.has
	return out, nil
}

// retval is what one activation returns.
type retval struct {
	i   int64
	f   float64
	has bool
}

// Values written into caller-save registers after a call returns, when
// the caller is allocated code: any use of a stale caller-save value
// turns into conspicuous garbage instead of silently working.
const poisonInt = int64(-0x5EEDBAD5EEDBAD)

var poisonFloat = math.NaN()

// exec runs one activation of rt with its own register file, frame base
// and argument list.
func (e *Env) exec(rt *iloc.Routine, args []Value, fpBase int64, depth int, out *Outcome) (retval, error) {
	if depth > e.cfg.MaxDepth {
		return retval{}, fmt.Errorf("interp: call depth exceeds %d", e.cfg.MaxDepth)
	}
	if len(args) != len(rt.Params) {
		return retval{}, fmt.Errorf("interp: %s takes %d args, got %d", rt.Name, len(rt.Params), len(args))
	}
	for i, p := range rt.Params {
		if args[i].IsFloat != (p.Reg.Class == iloc.ClassFlt) {
			return retval{}, fmt.Errorf("interp: %s: arg %d class mismatch", rt.Name, i)
		}
	}

	ri := make([]int64, rt.NumRegs(iloc.ClassInt))
	rf := make([]float64, rt.NumRegs(iloc.ClassFlt))
	ri[0] = fpBase // fp: this activation's frame base

	var lastRet retval  // the return latch getret/fgetret read
	var pending []Value // outgoing argument slots for the next call
	setPending := func(slot int64, v Value) {
		for int64(len(pending)) <= slot {
			pending = append(pending, Value{})
		}
		pending[slot] = v
	}

	cur := rt.Entry()
	ip := 0
	blocks := e.code[rt].blocks
	branchTo := func(l iloc.Label) error {
		var b *iloc.Block
		if l >= 0 && int(l) < len(blocks) {
			b = blocks[l]
		}
		if b == nil {
			return fmt.Errorf("interp: jump to unknown label %q", rt.LabelText(l))
		}
		cur, ip = b, 0
		return nil
	}

	for {
		if ip >= len(cur.Instrs) {
			if cur.Index+1 >= len(rt.Blocks) {
				return retval{}, fmt.Errorf("interp: fell off the end of %s", rt.Name)
			}
			cur = rt.Blocks[cur.Index+1]
			ip = 0
			continue
		}
		in := cur.Instrs[ip]
		ip++
		if out.Steps++; out.Steps > e.cfg.MaxSteps {
			return retval{}, fmt.Errorf("interp: %s exceeded %d steps", rt.Name, e.cfg.MaxSteps)
		}
		out.Counts[in.Op]++

		switch in.Op {
		case iloc.OpNop:
		case iloc.OpAdd:
			ri[in.Dst.N] = ri[in.Src[0].N] + ri[in.Src[1].N]
		case iloc.OpSub:
			ri[in.Dst.N] = ri[in.Src[0].N] - ri[in.Src[1].N]
		case iloc.OpMul:
			ri[in.Dst.N] = ri[in.Src[0].N] * ri[in.Src[1].N]
		case iloc.OpDiv:
			if ri[in.Src[1].N] == 0 {
				return retval{}, fmt.Errorf("interp: %s: division by zero", e.instrString(rt, in))
			}
			ri[in.Dst.N] = ri[in.Src[0].N] / ri[in.Src[1].N]
		case iloc.OpAnd:
			ri[in.Dst.N] = ri[in.Src[0].N] & ri[in.Src[1].N]
		case iloc.OpOr:
			ri[in.Dst.N] = ri[in.Src[0].N] | ri[in.Src[1].N]
		case iloc.OpXor:
			ri[in.Dst.N] = ri[in.Src[0].N] ^ ri[in.Src[1].N]
		case iloc.OpShl:
			ri[in.Dst.N] = ri[in.Src[0].N] << (uint64(ri[in.Src[1].N]) & 63)
		case iloc.OpShr:
			ri[in.Dst.N] = int64(uint64(ri[in.Src[0].N]) >> (uint64(ri[in.Src[1].N]) & 63))
		case iloc.OpNeg:
			ri[in.Dst.N] = -ri[in.Src[0].N]
		case iloc.OpAddi:
			ri[in.Dst.N] = ri[in.Src[0].N] + in.Imm
		case iloc.OpSubi:
			ri[in.Dst.N] = ri[in.Src[0].N] - in.Imm
		case iloc.OpMuli:
			ri[in.Dst.N] = ri[in.Src[0].N] * in.Imm
		case iloc.OpLdi:
			ri[in.Dst.N] = in.Imm
		case iloc.OpLda:
			ri[in.Dst.N] = e.DataAddr(rt.LabelText(in.Label))
		case iloc.OpMov:
			ri[in.Dst.N] = ri[in.Src[0].N]

		case iloc.OpLoad, iloc.OpLoadai, iloc.OpLoadao:
			addr := ri[in.Src[0].N]
			if in.Op == iloc.OpLoadai {
				addr += in.Imm
			} else if in.Op == iloc.OpLoadao {
				addr += ri[in.Src[1].N]
			}
			if err := e.checkAddr(addr, false, rt, in); err != nil {
				return retval{}, err
			}
			ri[in.Dst.N] = e.IntAt(addr)
		case iloc.OpStore, iloc.OpStoreai:
			addr := ri[in.Src[1].N]
			if in.Op == iloc.OpStoreai {
				addr += in.Imm
			}
			if err := e.checkAddr(addr, true, rt, in); err != nil {
				return retval{}, err
			}
			e.SetInt(addr, ri[in.Src[0].N])
		case iloc.OpRload:
			ri[in.Dst.N] = e.IntAt(e.DataAddr(rt.LabelText(in.Label)) + in.Imm)

		case iloc.OpFadd:
			rf[in.Dst.N] = rf[in.Src[0].N] + rf[in.Src[1].N]
		case iloc.OpFsub:
			rf[in.Dst.N] = rf[in.Src[0].N] - rf[in.Src[1].N]
		case iloc.OpFmul:
			rf[in.Dst.N] = rf[in.Src[0].N] * rf[in.Src[1].N]
		case iloc.OpFdiv:
			rf[in.Dst.N] = rf[in.Src[0].N] / rf[in.Src[1].N]
		case iloc.OpFabs:
			rf[in.Dst.N] = math.Abs(rf[in.Src[0].N])
		case iloc.OpFneg:
			rf[in.Dst.N] = -rf[in.Src[0].N]
		case iloc.OpFmov:
			rf[in.Dst.N] = rf[in.Src[0].N]
		case iloc.OpFldi:
			rf[in.Dst.N] = in.FImm

		case iloc.OpFload, iloc.OpFloadai, iloc.OpFloadao:
			addr := ri[in.Src[0].N]
			if in.Op == iloc.OpFloadai {
				addr += in.Imm
			} else if in.Op == iloc.OpFloadao {
				addr += ri[in.Src[1].N]
			}
			if err := e.checkAddr(addr, false, rt, in); err != nil {
				return retval{}, err
			}
			rf[in.Dst.N] = e.FloatAt(addr)
		case iloc.OpFstore, iloc.OpFstoreai:
			addr := ri[in.Src[1].N]
			if in.Op == iloc.OpFstoreai {
				addr += in.Imm
			}
			if err := e.checkAddr(addr, true, rt, in); err != nil {
				return retval{}, err
			}
			e.SetFloat(addr, rf[in.Src[0].N])
		case iloc.OpFrload:
			rf[in.Dst.N] = e.FloatAt(e.DataAddr(rt.LabelText(in.Label)) + in.Imm)

		case iloc.OpCvtif:
			rf[in.Dst.N] = float64(ri[in.Src[0].N])
		case iloc.OpCvtfi:
			ri[in.Dst.N] = int64(rf[in.Src[0].N])
		case iloc.OpFcmp:
			a, b := rf[in.Src[0].N], rf[in.Src[1].N]
			switch {
			case a < b:
				ri[in.Dst.N] = -1
			case a > b:
				ri[in.Dst.N] = 1
			default:
				ri[in.Dst.N] = 0
			}

		case iloc.OpGetparam:
			ri[in.Dst.N] = args[in.Imm].I
		case iloc.OpFgetparam:
			rf[in.Dst.N] = args[in.Imm].F
		case iloc.OpLdisp:
			if in.Imm >= 0 && in.Imm < int64(len(e.cfg.Display)) {
				ri[in.Dst.N] = e.cfg.Display[in.Imm]
			} else {
				ri[in.Dst.N] = 0
			}

		case iloc.OpSetarg:
			setPending(in.Imm, Int(ri[in.Src[0].N]))
		case iloc.OpFsetarg:
			setPending(in.Imm, Float(rf[in.Src[0].N]))
		case iloc.OpCall:
			callee, ok := e.routines[rt.LabelText(in.Label)]
			if !ok {
				return retval{}, fmt.Errorf("interp: call to unknown routine %q", rt.LabelText(in.Label))
			}
			calleeFP := e.Alloc(e.code[callee].frameWords)
			r, err := e.exec(callee, pending, calleeFP, depth+1, out)
			if err != nil {
				return retval{}, err
			}
			lastRet = r
			pending = nil
			if rt.Allocated {
				for n := 1; n <= rt.CallerSave[iloc.ClassInt] && n < len(ri); n++ {
					ri[n] = poisonInt
				}
				for n := 1; n <= rt.CallerSave[iloc.ClassFlt] && n < len(rf); n++ {
					rf[n] = poisonFloat
				}
			}
		case iloc.OpGetret:
			ri[in.Dst.N] = lastRet.i
		case iloc.OpFgetret:
			rf[in.Dst.N] = lastRet.f

		case iloc.OpJmp:
			if err := branchTo(in.Label); err != nil {
				return retval{}, err
			}
		case iloc.OpBr:
			l := in.Label
			if !in.Cond.Holds(ri[in.Src[0].N]) {
				l = in.Label2
			}
			if err := branchTo(l); err != nil {
				return retval{}, err
			}
		case iloc.OpRet:
			return retval{}, nil
		case iloc.OpRetr:
			return retval{i: ri[in.Src[0].N], has: true}, nil
		case iloc.OpRetf:
			return retval{f: rf[in.Src[0].N], has: true}, nil

		case iloc.OpPhi:
			return retval{}, fmt.Errorf("interp: cannot execute φ-node in %s", rt.Name)
		default:
			return retval{}, fmt.Errorf("interp: unimplemented op %s", in.Op)
		}
	}
}
