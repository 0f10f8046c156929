// Package interp executes ILOC routines directly, counting every
// instruction it retires. The paper translated allocated ILOC into
// instrumented C, compiled it and ran it with real data to collect
// dynamic counts of loads, stores, copies, load-immediates and
// add-immediates (§5); interpreting the ILOC gives the identical
// measurements without an offline C toolchain (DESIGN.md §4).
//
// Memory is a set of objects of 8-byte words, as in C (Leroy and
// Blazy, "Formal verification of a C-like memory model", 2008): each
// static data item, each activation's frame and each block Alloc hands
// out is one object. An address is an object's number times 2^32 plus
// a byte offset into it, so pointer arithmetic inside an object works
// as on flat memory, and no object is number 0, so 0 is a null
// pointer. A frame holds max(FrameWords, LocalWords()) words: the
// routine's own words, then its spill slots. A callee's frame is freed
// when the call returns, so a pointer into it then faults.
//
// A load or store must be 8-byte aligned and fall inside a live
// object, and a store must not write a read-only data item. So input
// code that reaches past the object it addresses faults instead of
// reading what lies next to it, and allocator bugs fail loudly. Static
// data and live frames together hold at most MaxWords words; New and a
// call that would exceed that fail with ErrMemory.
package interp

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
}

// maxDepth bounds call nesting.
const maxDepth = 256

// MaxWords bounds the words static data and live frames hold together.
const MaxWords = 1 << 20

// ErrMemory reports a routine whose static data and frames would hold
// more than MaxWords words. It says nothing about the routine's
// correctness: a check that runs code treats it as no evidence.
var ErrMemory = errors.New("interp: memory bound exceeded")

// objShift places an object's number above a 32-bit byte offset.
const objShift = 32

// object is one allocation: a data item, a frame or an Alloc block.
type object struct {
	num int64 // unique within its Env, and rising along Env.objs
	mem []byte
	ro  bool // a read-only data item
}

// Env is an execution environment for one routine: its memory image plus
// data-section addresses. Create with New, optionally Alloc scratch
// memory and pass its addresses as arguments, then Run.
type Env struct {
	rt       *iloc.Routine
	cfg      Config
	objs     []object // live objects; callee frames on top
	words    int      // the words static data and live frames hold
	fp       int64    // the main activation's frame base
	data     map[string]int64
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

// New builds an environment for the routine: its static data and its
// callees', then its frame. A routine whose register names are sparse
// runs as a densely named clone (see dense); error texts still name
// its registers as it does.
func New(rt *iloc.Routine, cfg Config) (*Env, error) {
	if err := iloc.Verify(rt, false); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
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
		e.code[r] = code{blocks: r.BlockOf(), frameWords: max(r.FrameWords, r.LocalWords())}
	}

	all := append([]*iloc.Routine{rt}, cfg.Routines...)
	e.words = min(e.code[e.rt].frameWords, MaxWords+1)
	for _, r := range all {
		for i := range r.Data {
			e.words += min(r.Data[i].Words, MaxWords+1)
		}
	}
	if e.words > MaxWords {
		return nil, fmt.Errorf("%w: the static data and the frame of %s hold over %d words", ErrMemory, rt.Name, MaxWords)
	}
	e.objs = append(e.objs, object{}) // number 0: the null pointer
	for _, r := range all {
		for i := range r.Data {
			d := &r.Data[i]
			if _, dup := e.data[d.Label]; dup {
				return nil, fmt.Errorf("interp: duplicate data label %q across routines", d.Label)
			}
			addr := e.add(d.Words, d.ReadOnly)
			e.data[d.Label] = addr
			for w, v := range d.Init {
				if d.IsFloat {
					e.SetFloat(addr+int64(w)*8, v)
				} else {
					e.SetInt(addr+int64(w)*8, int64(v))
				}
			}
		}
	}
	e.fp = e.add(e.code[e.rt].frameWords, false)
	return e, nil
}

// add appends a live object of words zeroed words, numbered one above
// the last live object, and returns its address.
func (e *Env) add(words int, ro bool) int64 {
	n := e.objs[len(e.objs)-1].num + 1
	e.objs = append(e.objs, object{num: n, mem: make([]byte, words*8), ro: ro})
	return n << objShift
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

// Alloc adds an object of words 8-byte words of scratch space, at most
// 2^29 so that every offset fits below the object number, and returns
// its base address. It does not count against MaxWords: the caller
// chooses its size, where code chooses its data and frames.
func (e *Env) Alloc(words int) int64 {
	return e.add(words, false)
}

// DataAddr returns the address of a static data item.
func (e *Env) DataAddr(label string) int64 {
	a, ok := e.data[label]
	if !ok {
		panic(fmt.Sprintf("interp: no data item %q", label))
	}
	return a
}

// word returns the 8 bytes at a byte address, and whether they are
// read-only; nil when they are not inside one live object.
func (e *Env) word(addr int64) ([]byte, bool) {
	n := addr >> objShift
	i := int(n)
	if n < 0 || n >= int64(len(e.objs)) || e.objs[n].num != n {
		var ok bool
		if i, ok = slices.BinarySearchFunc(e.objs, n, func(o object, n int64) int { return cmp.Compare(o.num, n) }); !ok {
			return nil, false
		}
	}
	o := &e.objs[i]
	off := addr & (1<<objShift - 1)
	if off+8 > int64(len(o.mem)) {
		return nil, false
	}
	return o.mem[off : off+8], o.ro
}

// mustWord is word for the harness accessors, which panic on a bad
// address as a slice index would.
func (e *Env) mustWord(addr int64) []byte {
	w, _ := e.word(addr)
	if w == nil {
		panic(fmt.Sprintf("interp: address %#x outside every live object", addr))
	}
	return w
}

// SetInt stores an integer word at a byte address.
func (e *Env) SetInt(addr, v int64) {
	binary.LittleEndian.PutUint64(e.mustWord(addr), uint64(v))
}

// SetFloat stores a double at a byte address.
func (e *Env) SetFloat(addr int64, f float64) {
	binary.LittleEndian.PutUint64(e.mustWord(addr), math.Float64bits(f))
}

// IntAt reads an integer word.
func (e *Env) IntAt(addr int64) int64 {
	return int64(binary.LittleEndian.Uint64(e.mustWord(addr)))
}

// FloatAt reads a double.
func (e *Env) FloatAt(addr int64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(e.mustWord(addr)))
}

// access returns the word an access of instruction in of routine rt
// reads or writes.
func (e *Env) access(addr int64, store bool, rt *iloc.Routine, in *iloc.Instr) ([]byte, error) {
	if addr%8 != 0 {
		return nil, fmt.Errorf("interp: %s: unaligned address %#x", e.instrString(rt, in), addr)
	}
	w, ro := e.word(addr)
	if w == nil {
		return nil, fmt.Errorf("interp: %s: address %#x out of bounds of every live object", e.instrString(rt, in), addr)
	}
	if store && ro {
		return nil, fmt.Errorf("interp: %s: store into read-only data at %#x", e.instrString(rt, in), addr)
	}
	return w, nil
}

// Run executes the routine with the given arguments (one per declared
// parameter, classes matching) and returns the dynamic counts, which
// include the work of any routines it calls.
func (e *Env) Run(args ...Value) (*Outcome, error) {
	out := &Outcome{Counts: make(map[iloc.Op]int64, 32)}
	live, words := len(e.objs), e.words
	ret, err := e.exec(e.rt, args, e.fp, 0, out)
	e.objs, e.words = e.objs[:live], words // frames a fault left live
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
	if depth > maxDepth {
		return retval{}, fmt.Errorf("interp: call depth exceeds %d", maxDepth)
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
			w, err := e.access(addr, false, rt, in)
			if err != nil {
				return retval{}, err
			}
			ri[in.Dst.N] = int64(binary.LittleEndian.Uint64(w))
		case iloc.OpStore, iloc.OpStoreai:
			addr := ri[in.Src[1].N]
			if in.Op == iloc.OpStoreai {
				addr += in.Imm
			}
			w, err := e.access(addr, true, rt, in)
			if err != nil {
				return retval{}, err
			}
			binary.LittleEndian.PutUint64(w, uint64(ri[in.Src[0].N]))
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
			w, err := e.access(addr, false, rt, in)
			if err != nil {
				return retval{}, err
			}
			rf[in.Dst.N] = math.Float64frombits(binary.LittleEndian.Uint64(w))
		case iloc.OpFstore, iloc.OpFstoreai:
			addr := ri[in.Src[1].N]
			if in.Op == iloc.OpFstoreai {
				addr += in.Imm
			}
			w, err := e.access(addr, true, rt, in)
			if err != nil {
				return retval{}, err
			}
			binary.LittleEndian.PutUint64(w, math.Float64bits(rf[in.Src[0].N]))
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
			words := e.code[callee].frameWords
			if words > MaxWords-e.words {
				return retval{}, fmt.Errorf("%w: the frame of %s takes %d words, %d of %d are in use", ErrMemory, callee.Name, words, e.words, MaxWords)
			}
			e.words += words
			r, err := e.exec(callee, pending, e.add(words, false), depth+1, out)
			if err != nil {
				return retval{}, err
			}
			e.objs = e.objs[:len(e.objs)-1]
			e.words -= words
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
