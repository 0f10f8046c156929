package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/iloc"
	"repro/internal/target"
)

// A Snapshot is a finished allocation frozen into one byte slice that
// holds no pointers: the result cache keeps one per entry instead of a
// cloned routine of 64-byte instructions, so an entry costs a few
// hundred bytes and the garbage collector never scans it. It carries
// everything iloc.(*Routine).Clone copies and every Result field; only
// the machine, which results share and never mutate, stays a pointer.
// A Snapshot is immutable, so any number of goroutines may decode it
// at once, and each decode is a fresh Result its caller may mutate.
//
// The encoding is a header of slab sizes, then every string's bytes
// back to back, then the body in Result field order. Integers are
// varints, a float is its eight bytes, a string is its length (its
// bytes are the next ones in the string section), and a pass name of
// the allocator's round is its id plus one.
type Snapshot struct {
	data    []byte
	machine *target.Machine
}

// Size returns the snapshot's encoded length in bytes.
func (s Snapshot) Size() int { return len(s.data) }

// Instruction field flags: which optional fields follow the opcode.
const (
	snapDst = 1 << iota
	snapSrc0
	snapSrc1
	snapImm
	snapFImm
	snapLabel
	snapLabel2
	snapCond
	snapPhi
	snapSplit
	snapSpill
)

// snapEncoder holds NewSnapshot's string section and body while it
// encodes; both are pooled, and the snapshot is one exact-size copy.
type snapEncoder struct {
	strs, body                   []byte
	instrs, edges, passes, inits int
}

var snapEncoders = sync.Pool{New: func() any { return new(snapEncoder) }}

// maxSnapBuf caps the buffers a pooled encoder keeps; one grown past
// it by an unusually large routine is left to the collector.
const maxSnapBuf = 1 << 20

// NewSnapshot encodes res, which the caller may go on mutating.
func NewSnapshot(res *Result) Snapshot {
	e := snapEncoders.Get().(*snapEncoder)
	*e = snapEncoder{strs: e.strs[:0], body: e.body[:0]}
	e.result(res)

	var hdr [5 * binary.MaxVarintLen64]byte
	h := hdr[:0]
	for _, n := range []int{len(e.strs), e.instrs, e.edges, e.passes, e.inits} {
		h = binary.AppendUvarint(h, uint64(n))
	}
	data := make([]byte, 0, len(h)+len(e.strs)+len(e.body))
	data = append(append(append(data, h...), e.strs...), e.body...)
	if cap(e.strs)+cap(e.body) <= maxSnapBuf {
		snapEncoders.Put(e)
	}
	return Snapshot{data: data, machine: res.Machine}
}

func (e *snapEncoder) uvarint(v uint64) { e.body = binary.AppendUvarint(e.body, v) }
func (e *snapEncoder) int(v int)        { e.body = binary.AppendVarint(e.body, int64(v)) }
func (e *snapEncoder) count(n int)      { e.uvarint(uint64(n)) }

func (e *snapEncoder) bool(b bool) {
	if b {
		e.body = append(e.body, 1)
	} else {
		e.body = append(e.body, 0)
	}
}

func (e *snapEncoder) string(s string) {
	e.count(len(s))
	e.strs = append(e.strs, s...)
}

func (e *snapEncoder) float(f float64) {
	e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(f))
}

// reg packs a class below 3 and a non-negative number into one varint;
// anything else is escaped as class 3, the class byte and the number.
func (e *snapEncoder) reg(r iloc.Reg) {
	if r.Class < 3 && r.N >= 0 {
		e.uvarint(uint64(r.N)<<2 | uint64(r.Class))
		return
	}
	e.body = append(e.body, 3, byte(r.Class))
	e.int(int(r.N))
}

func (e *snapEncoder) result(res *Result) {
	e.int(res.SpilledRanges)
	e.int(res.RematSpills)
	e.string(res.Strategy)
	e.bool(res.Degraded)
	e.string(res.DegradeReason)
	e.count(len(res.Iterations))
	for i := range res.Iterations {
		it := &res.Iterations[i]
		for c := range iloc.NumClasses {
			e.int(it.Spilled[c])
			e.int(it.Remat[c])
		}
		e.int(it.Coalesced)
		e.int(it.Splits)
		e.count(len(it.Passes))
		e.passes += len(it.Passes)
		for j := range it.Passes {
			e.passStat(&it.Passes[j])
		}
	}
	e.bool(res.Routine != nil)
	if res.Routine != nil {
		e.routine(res.Routine)
	}
}

// passStat writes the pass's name code, its time, a mask of which of
// its six counts are non-zero, and those counts.
func (e *snapEncoder) passStat(ps *PassStat) {
	code := 0
	for id, p := range passTable {
		if p.name == ps.Name {
			code = id + 1
			break
		}
	}
	e.count(code)
	if code == 0 {
		e.string(ps.Name)
	}
	e.body = binary.AppendVarint(e.body, int64(ps.Time))
	counts := [...]int{ps.Nodes, ps.Edges, ps.Coalesced, ps.Splits, ps.Spilled, ps.Remat}
	var mask byte
	for i, n := range counts {
		if n != 0 {
			mask |= 1 << i
		}
	}
	e.body = append(e.body, mask)
	for _, n := range counts {
		if n != 0 {
			e.int(n)
		}
	}
}

func (e *snapEncoder) routine(r *iloc.Routine) {
	e.string(r.Name)
	for c := range iloc.NumClasses {
		e.int(r.NextReg[c])
		e.int(r.CallerSave[c])
	}
	e.bool(r.Allocated)
	e.int(r.FrameWords)
	e.count(len(r.Params))
	for _, p := range r.Params {
		e.reg(p.Reg)
	}
	e.count(len(r.Data))
	for i := range r.Data {
		d := &r.Data[i]
		e.string(d.Label)
		e.bool(d.ReadOnly)
		e.bool(d.IsFloat)
		e.int(d.Words)
		e.count(len(d.Init))
		e.inits += len(d.Init)
		for _, f := range d.Init {
			e.float(f)
		}
	}
	e.count(len(r.Labels))
	for _, l := range r.Labels {
		e.string(l)
	}
	e.count(len(r.PhiSlab))
	for _, a := range r.PhiSlab {
		e.reg(a)
	}
	e.count(len(r.Blocks))
	for _, b := range r.Blocks {
		e.int(b.Index)
		e.int(int(b.Label))
		e.int(b.Depth)
		e.count(len(b.Instrs))
		e.instrs += len(b.Instrs)
		for _, in := range b.Instrs {
			e.instr(in)
		}
		e.blockEdges(r, b.Succs)
		e.blockEdges(r, b.Preds)
	}
}

// blockEdges writes each edge as its target's position in r.Blocks
// plus one, or 0 for a target outside the routine. As in Clone, the
// target's Index is trusted when it is current and scanned for
// otherwise.
func (e *snapEncoder) blockEdges(r *iloc.Routine, to []*iloc.Block) {
	e.count(len(to))
	e.edges += len(to)
	for _, x := range to {
		at := -1
		if x != nil {
			if at = x.Index; at < 0 || at >= len(r.Blocks) || r.Blocks[at] != x {
				at = slices.Index(r.Blocks, x)
			}
		}
		e.count(at + 1)
	}
}

func (e *snapEncoder) instr(in *iloc.Instr) {
	var f uint64
	if in.Dst != iloc.NoReg {
		f |= snapDst
	}
	if in.Src[0] != iloc.NoReg {
		f |= snapSrc0
	}
	if in.Src[1] != iloc.NoReg {
		f |= snapSrc1
	}
	if in.Imm != 0 {
		f |= snapImm
	}
	if math.Float64bits(in.FImm) != 0 {
		f |= snapFImm
	}
	if in.Label != 0 {
		f |= snapLabel
	}
	if in.Label2 != 0 {
		f |= snapLabel2
	}
	if in.Cond != 0 {
		f |= snapCond
	}
	if in.Phi != (iloc.PhiArgs{}) {
		f |= snapPhi
	}
	if in.IsSplit {
		f |= snapSplit
	}
	if in.IsSpill {
		f |= snapSpill
	}
	e.body = append(e.body, byte(in.Op))
	e.uvarint(f)
	if f&snapDst != 0 {
		e.reg(in.Dst)
	}
	if f&snapSrc0 != 0 {
		e.reg(in.Src[0])
	}
	if f&snapSrc1 != 0 {
		e.reg(in.Src[1])
	}
	if f&snapImm != 0 {
		e.body = binary.AppendVarint(e.body, in.Imm)
	}
	if f&snapFImm != 0 {
		e.float(in.FImm)
	}
	if f&snapLabel != 0 {
		e.int(int(in.Label))
	}
	if f&snapLabel2 != 0 {
		e.int(int(in.Label2))
	}
	if f&snapCond != 0 {
		e.body = append(e.body, byte(in.Cond))
	}
	if f&snapPhi != 0 {
		e.int(int(in.Phi.Off))
		e.int(int(in.Phi.Len))
	}
}

// errSnapshot reports a snapshot that does not decode. NewSnapshot's
// output always does; the checks keep a codec bug from reading out of
// bounds or allocating without limit.
var errSnapshot = errors.New("core: malformed result snapshot")

// snapDecoder reads a snapshot. A read past the end, or a count its
// slab cannot hold, sets bad and yields zeros.
type snapDecoder struct {
	buf  []byte
	off  int
	strs string
	soff int
	bad  bool
}

// resultBox lets one allocation hold a decoded Result and its routine.
type resultBox struct {
	res Result
	rt  iloc.Routine
}

// Result decodes a fresh Result, cutting the blocks, instructions,
// instruction lists and edge lists from one slab each as Clone does.
// Empty slices come back as Clone and the allocator leave them: nil
// Params, Init, Labels, PhiSlab, Iterations and Passes, and non-nil
// Data, Instrs, Succs and Preds.
func (s Snapshot) Result() (*Result, error) {
	d := snapDecoder{buf: s.data}
	nStrs := d.count()
	nInstrs, nEdges, nPasses, nInits := d.count(), d.count(), d.count(), d.count()
	if d.bad || nStrs > len(d.buf)-d.off {
		return nil, errSnapshot
	}
	if nStrs > 0 {
		// The snapshot's bytes are never written after NewSnapshot, so
		// decoded strings may point into them instead of copying.
		d.strs = unsafe.String(&d.buf[d.off], nStrs)
	}
	d.off += nStrs

	box := &resultBox{}
	res := &box.res
	res.Machine = s.machine
	res.SpilledRanges = d.int()
	res.RematSpills = d.int()
	res.Strategy = d.string()
	res.Degraded = d.bool()
	res.DegradeReason = d.string()
	if n := d.count(); n > 0 {
		res.Iterations = make([]IterationStats, n)
		passes := make([]PassStat, nPasses)
		for i := range res.Iterations {
			it := &res.Iterations[i]
			for c := range iloc.NumClasses {
				it.Spilled[c] = d.int()
				it.Remat[c] = d.int()
			}
			it.Coalesced = d.int()
			it.Splits = d.int()
			n := d.count()
			if n == 0 {
				continue
			}
			if n > len(passes) {
				return nil, errSnapshot
			}
			it.Passes, passes = passes[:n:n], passes[n:]
			for j := range it.Passes {
				d.passStat(&it.Passes[j])
			}
		}
	}
	if d.bool() {
		res.Routine = &box.rt
		if !d.routine(&box.rt, nInstrs, nEdges, nInits) {
			return nil, errSnapshot
		}
	}
	if d.bad || d.off != len(d.buf) || d.soff != len(d.strs) {
		return nil, errSnapshot
	}
	return res, nil
}

// uvarint reads a varint, most of which are one byte.
func (d *snapDecoder) uvarint() uint64 {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	var v uint64
	for shift := 0; shift < 64 && d.off < len(d.buf); shift += 7 {
		c := d.buf[d.off]
		d.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.bad = true
	return 0
}

// int64 reads a zigzag varint, as binary.AppendVarint writes it.
func (d *snapDecoder) int64() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *snapDecoder) int() int { return int(d.int64()) }

// int32 reads an int, which is bad outside the int32 range.
func (d *snapDecoder) int32() int32 {
	v := d.int64()
	if v != int64(int32(v)) {
		d.bad = true
		return 0
	}
	return int32(v)
}

// count reads a length or an index, which is bad if it exceeds the
// snapshot's length, as no valid one can.
func (d *snapDecoder) count() int {
	v := d.uvarint()
	if v > uint64(len(d.buf)) {
		d.bad = true
		return 0
	}
	return int(v)
}

func (d *snapDecoder) byte() byte {
	if d.off >= len(d.buf) {
		d.bad = true
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

func (d *snapDecoder) bool() bool { return d.byte() != 0 }

func (d *snapDecoder) string() string {
	n := d.count()
	if n > len(d.strs)-d.soff {
		d.bad = true
		return ""
	}
	d.soff += n
	return d.strs[d.soff-n : d.soff]
}

func (d *snapDecoder) float() float64 {
	if len(d.buf)-d.off < 8 {
		d.bad = true
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off-8:]))
}

func (d *snapDecoder) reg() iloc.Reg {
	v := d.uvarint()
	if cc := v & 3; cc != 3 {
		if v>>2 > iloc.MaxRegNum {
			d.bad = true
			return iloc.NoReg
		}
		return iloc.Reg{Class: iloc.Class(cc), N: int32(v >> 2)}
	}
	c := iloc.Class(d.byte())
	return iloc.Reg{Class: c, N: d.int32()}
}

func (d *snapDecoder) passStat(ps *PassStat) {
	code := d.count()
	switch {
	case code == 0:
		ps.Name = d.string()
	case code <= numPasses:
		ps.Name = passTable[code-1].name
	default:
		d.bad = true
	}
	ps.Time = time.Duration(d.int64())
	mask := d.byte()
	if mask&1 != 0 {
		ps.Nodes = d.int()
	}
	if mask&2 != 0 {
		ps.Edges = d.int()
	}
	if mask&4 != 0 {
		ps.Coalesced = d.int()
	}
	if mask&8 != 0 {
		ps.Splits = d.int()
	}
	if mask&16 != 0 {
		ps.Spilled = d.int()
	}
	if mask&32 != 0 {
		ps.Remat = d.int()
	}
}

// routine decodes into r, reporting false when a count overruns its
// slab.
func (d *snapDecoder) routine(r *iloc.Routine, nInstrs, nEdges, nInits int) bool {
	r.Name = d.string()
	for c := range iloc.NumClasses {
		r.NextReg[c] = d.int()
		r.CallerSave[c] = d.int()
	}
	r.Allocated = d.bool()
	r.FrameWords = d.int()
	if n := d.count(); n > 0 {
		r.Params = make([]iloc.Param, n)
		for i := range r.Params {
			r.Params[i].Reg = d.reg()
		}
	}
	r.Data = make([]iloc.Data, d.count())
	inits := make([]float64, nInits)
	for i := range r.Data {
		x := &r.Data[i]
		x.Label = d.string()
		x.ReadOnly = d.bool()
		x.IsFloat = d.bool()
		x.Words = d.int()
		n := d.count()
		if n == 0 {
			continue
		}
		if n > len(inits) {
			return false
		}
		x.Init, inits = inits[:n:n], inits[n:]
		for j := range x.Init {
			x.Init[j] = d.float()
		}
	}

	if n := d.count(); n > 0 {
		r.Labels = make([]string, n)
		for i := range r.Labels {
			r.Labels[i] = d.string()
		}
	}
	if n := d.count(); n > 0 {
		r.PhiSlab = make([]iloc.Reg, n)
		for i := range r.PhiSlab {
			r.PhiSlab[i] = d.reg()
		}
	}

	nBlocks := d.count()
	if d.bad {
		return false
	}
	blocks := make([]iloc.Block, nBlocks)
	ptrs := make([]*iloc.Block, nBlocks+nEdges)
	r.Blocks, ptrs = ptrs[:nBlocks:nBlocks], ptrs[nBlocks:]
	for i := range blocks {
		r.Blocks[i] = &blocks[i]
	}
	instrs := make([]iloc.Instr, nInstrs)
	lists := make([]*iloc.Instr, nInstrs)
	edges := func() []*iloc.Block {
		n := d.count()
		if n > len(ptrs) {
			d.bad = true
			return nil
		}
		var to []*iloc.Block
		to, ptrs = ptrs[:n:n], ptrs[n:]
		for i := range to {
			if at := d.count(); at > nBlocks {
				d.bad = true
			} else if at > 0 {
				to[i] = r.Blocks[at-1]
			}
		}
		return to
	}
	for i := range blocks {
		b := &blocks[i]
		b.Index = d.int()
		b.Label = iloc.Label(d.int32())
		b.Depth = d.int()
		n := d.count()
		if n > len(instrs) {
			return false
		}
		b.Instrs, lists = lists[:n:n], lists[n:]
		for j := range b.Instrs {
			in := &instrs[j]
			b.Instrs[j] = in
			if !d.instr(in) {
				return false
			}
		}
		instrs = instrs[n:]
		b.Succs = edges()
		b.Preds = edges()
		if d.bad {
			return false
		}
	}
	return true
}

// instr decodes one instruction.
func (d *snapDecoder) instr(in *iloc.Instr) bool {
	in.Op = iloc.Op(d.byte())
	f := d.uvarint()
	in.Dst, in.Src[0], in.Src[1] = iloc.NoReg, iloc.NoReg, iloc.NoReg
	if f&snapDst != 0 {
		in.Dst = d.reg()
	}
	if f&snapSrc0 != 0 {
		in.Src[0] = d.reg()
	}
	if f&snapSrc1 != 0 {
		in.Src[1] = d.reg()
	}
	if f&snapImm != 0 {
		in.Imm = d.int64()
	}
	if f&snapFImm != 0 {
		in.FImm = d.float()
	}
	if f&snapLabel != 0 {
		in.Label = iloc.Label(d.int32())
	}
	if f&snapLabel2 != 0 {
		in.Label2 = iloc.Label(d.int32())
	}
	if f&snapCond != 0 {
		in.Cond = iloc.Cond(d.byte())
	}
	if f&snapPhi != 0 {
		in.Phi = iloc.PhiArgs{Off: d.int32(), Len: d.int32()}
	}
	in.IsSplit = f&snapSplit != 0
	in.IsSpill = f&snapSpill != 0
	return !d.bad
}
