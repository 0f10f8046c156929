package iloc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads the textual form of one routine. The grammar, by line:
//
//	routine NAME(r1, r2, f1)        ; header, params by register
//	data NAME ro 4 = 1.0 2.0        ; static data: ro|rw, size in words,
//	data NAME rw 16                 ;   optional float/int initializers
//	label:                          ; starts a new basic block
//	op operands                     ; instruction, operands comma-separated
//	; comment  or  # comment
//
// Instructions follow Routine.InstrString's syntax exactly, so Print output
// round-trips. Control falls through from a block without a terminator to
// the next block in the file.
// A ParseError locates a syntax error in the source handed to Parse or
// ParseProgram. Line is 1-based; 0 means the error concerns the source
// as a whole (no routine header, no code) rather than one line.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return e.Err.Error()
	}
	return fmt.Sprintf("line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

func Parse(src string) (*Routine, error) {
	rts, err := parse(src, false)
	if err != nil {
		return nil, err
	}
	return rts[0], nil
}

// MustParse is Parse that panics on error. It exists for compile-time
// constant sources — test fixtures and the embedded figure listings —
// where a parse failure is a bug in this repository, not in input.
// Anything parsing caller-supplied or generated text must use Parse and
// handle the *ParseError it returns.
func MustParse(src string) *Routine {
	rt, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("iloc.MustParse on embedded source: %v", err))
	}
	return rt
}

// ParseProgram reads a file holding several routines (each introduced by
// its own "routine" header). The first routine is conventionally the
// entry point; the rest are callees. Leading comments stay attached to
// the routine that follows, and error lines count from the start of src.
func ParseProgram(src string) ([]*Routine, error) {
	return parse(src, true)
}

// parse makes one pass over the lines of src. In a program a routine
// header ends the routine before it; otherwise a second header is an
// error.
func parse(src string, program bool) ([]*Routine, error) {
	p := &parser{program: program, names: map[string]bool{}, data: map[string]bool{}}
	// Size the slabs for src at about one instruction per line, and the
	// label index at about one label per block.
	lines := min(strings.Count(src, "\n")+1, 4096)
	p.instrs.buf = make([]Instr, 0, lines)
	p.blocks.buf = make([]Block, 0, lines/4+1)
	p.labels.ids = make(map[string]Label, lines/4+1)
	p.labels.isBlock = make([]bool, 0, lines/4+1)
	p.labelBuf = make([]string, 0, lines/4+1)
	for ln, rest, more := 1, src, true; more; ln++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if err := p.line(line); err != nil {
			if program && !p.started && !hasHeader(rest) {
				// Stray text before a missing header: the whole source
				// is at fault, as in a source with no text at all.
				break
			}
			if pe, ok := err.(*ParseError); ok {
				return nil, pe
			}
			return nil, &ParseError{Line: ln, Err: err}
		}
	}
	if p.rt == nil {
		return nil, &ParseError{Err: fmt.Errorf("no routine header")}
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.out, nil
}

// hasHeader reports whether any line of src is a routine header.
func hasHeader(src string) bool {
	for more := true; more; {
		var line string
		line, src, more = strings.Cut(src, "\n")
		if code, _ := splitComment(line); strings.HasPrefix(strings.TrimSpace(code), "routine ") {
			return true
		}
	}
	return false
}

// parser holds the routine being read. Its blocks and instructions
// are values in slabs shared by every routine of one parse, so a
// routine costs a handful of allocations however many instructions it
// has.
type parser struct {
	program bool
	started bool // a routine header has been seen
	out     []*Routine
	names   map[string]bool // routine names already read (program only)

	rt       *Routine
	blocks   slab[Block] // the routine's blocks; Instrs unset until finish
	starts   []int       // starts[i] indexes block i's first instruction in instrs.run()
	instrs   slab[Instr]
	labels   LabelIndex // rt's label table, built in labelBuf
	labelBuf []string
	data     map[string]bool // data labels of rt
}

// slab hands out values from shared backing arrays. Its run is the
// values added since the last close; when the array fills, the run
// moves to a new one at least as large, so closed runs never move.
type slab[T any] struct {
	buf  []T
	base int // start of the run
}

// add appends a zero value to the run and returns it.
func (s *slab[T]) add() *T {
	if len(s.buf) == cap(s.buf) {
		run := s.buf[s.base:]
		buf := make([]T, len(run), max(2*len(run), cap(s.buf))+16)
		copy(buf, run)
		s.buf, s.base = buf, 0
	}
	var zero T
	s.buf = append(s.buf, zero)
	return &s.buf[len(s.buf)-1]
}

func (s *slab[T]) run() []T { return s.buf[s.base:] }

// last returns the most recently added value.
func (s *slab[T]) last() *T { return &s.buf[len(s.buf)-1] }

// close ends the run and returns it.
func (s *slab[T]) close() []T {
	run := s.buf[s.base:len(s.buf):len(s.buf)]
	s.base = len(s.buf)
	return run
}

// splitComment splits a line at its first ';' or '#'.
func splitComment(s string) (code, comment string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ';' || s[i] == '#' {
			return s[:i], s[i:]
		}
	}
	return s, ""
}

// indexSpace returns the index of the first blank or tab in s, or -1.
func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return i
		}
	}
	return -1
}

func (p *parser) line(raw string) error {
	code, comment := splitComment(raw)
	s := strings.TrimSpace(code)
	if s == "" {
		return nil
	}
	switch {
	case strings.HasPrefix(s, "routine "):
		p.started = true
		if p.rt != nil {
			if !p.program {
				return fmt.Errorf("duplicate routine header")
			}
			if err := p.finish(); err != nil {
				return err
			}
		}
		return p.header(s[len("routine "):])
	case strings.HasPrefix(s, "data "):
		return p.dataItem(s[len("data "):])
	case strings.HasSuffix(s, ":"):
		return p.label(s[:len(s)-1])
	default:
		if err := p.instr(s); err != nil {
			return err
		}
		p.annotate(comment)
		return nil
	}
}

// finish completes the routine being read: it must have code, and in a
// program its name must be new. Each block's Instrs is capped at its
// length, so growing one block never writes into the next.
func (p *parser) finish() error {
	rt := p.rt
	blocks := p.blocks.close()
	instrs := p.instrs.close()
	if len(blocks) == 0 {
		return &ParseError{Err: fmt.Errorf("routine %s has no code", rt.Name)}
	}
	if p.program {
		if p.names[rt.Name] {
			return &ParseError{Err: fmt.Errorf("duplicate routine %q", rt.Name)}
		}
		p.names[rt.Name] = true
	}
	rt.Labels = slices.Clone(p.labelBuf)
	ptrs := make([]*Instr, len(instrs))
	for i := range instrs {
		ptrs[i] = &instrs[i]
	}
	rt.Blocks = make([]*Block, len(blocks))
	for i := range blocks {
		b := &blocks[i]
		b.Index = i
		lo, hi := p.starts[i], len(ptrs)
		if i+1 < len(blocks) {
			hi = p.starts[i+1]
		}
		if lo < hi {
			b.Instrs = ptrs[lo:hi:hi]
		}
		rt.Blocks[i] = b
	}
	p.out = append(p.out, rt)
	p.rt = nil
	p.starts = p.starts[:0]
	clear(p.data)
	return nil
}

// annotate restores the structured annotations Print attaches as
// comments ("; split", "; spill") onto the instruction just parsed, so
// Print(Parse(Print(rt))) round-trips byte for byte — the persistent
// result store depends on that. Only a comment segment that is exactly
// one marker word counts; free-form comments stay comments.
func (p *parser) annotate(comment string) {
	if comment == "" {
		return
	}
	in := p.instrs.last()
	for comment != "" {
		// comment starts at a ';' or '#'; its segment runs to the next.
		end := 1
		for end < len(comment) && comment[end] != ';' && comment[end] != '#' {
			end++
		}
		switch strings.TrimSpace(comment[1:end]) {
		case "split":
			in.IsSplit = true
		case "spill":
			in.IsSpill = true
		}
		comment = comment[end:]
	}
}

func (p *parser) header(s string) error {
	open := strings.IndexByte(s, '(')
	closeP := strings.LastIndexByte(s, ')')
	if open < 0 || closeP < open {
		return fmt.Errorf("malformed routine header %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return fmt.Errorf("routine needs a name")
	}
	p.rt = &Routine{Name: name}
	p.labels.reset(&p.labelBuf)
	args := strings.TrimSpace(s[open+1 : closeP])
	if args == "" {
		return nil
	}
	p.rt.Params = make([]Param, 0, strings.Count(args, ",")+1)
	for ops := newOperands(args); !ops.done; {
		a, _ := ops.next()
		r, err := parseReg(a)
		if err != nil {
			return fmt.Errorf("parameter: %w", err)
		}
		if r.IsFP() {
			return fmt.Errorf("fp cannot be a parameter")
		}
		p.rt.Params = append(p.rt.Params, Param{Reg: r})
		p.noteReg(r)
	}
	return nil
}

func (p *parser) dataItem(s string) error {
	if p.rt == nil {
		return fmt.Errorf("data before routine header")
	}
	var init string
	if i := strings.IndexByte(s, '='); i >= 0 {
		init = strings.TrimSpace(s[i+1:])
		s = s[:i]
	}
	label, s := nextField(s)
	mode, s := nextField(s)
	size, s := nextField(s)
	if extra, _ := nextField(s); size == "" || extra != "" {
		return fmt.Errorf("data wants: data NAME ro|rw WORDS [= v...]")
	}
	d := Data{Label: label}
	switch mode {
	case "ro":
		d.ReadOnly = true
	case "rw":
	default:
		return fmt.Errorf("data mode %q (want ro or rw)", mode)
	}
	words, err := strconv.Atoi(size)
	if err != nil || words <= 0 {
		return fmt.Errorf("bad data size %q", size)
	}
	d.Words = words
	if init != "" {
		// Fields are at least one byte and a separator apart.
		d.Init = make([]float64, 0, min(d.Words, len(init)/2+1))
		for tok, rest := nextField(init); tok != ""; tok, rest = nextField(rest) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("bad initializer %q", tok)
			}
			if strings.ContainsAny(tok, ".eE") {
				d.IsFloat = true
			}
			d.Init = append(d.Init, v)
		}
		if len(d.Init) > d.Words {
			return fmt.Errorf("data %s: %d initializers for %d words", d.Label, len(d.Init), d.Words)
		}
	}
	if p.data[d.Label] {
		return fmt.Errorf("duplicate data label %q", d.Label)
	}
	p.data[d.Label] = true
	p.rt.Data = append(p.rt.Data, d)
	return nil
}

// nextField returns the first field of s and what follows it, with
// fields separated as strings.Fields separates them.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if space := unicode.IsSpace(c); space && start >= 0 {
			return s[start:i], s[i:]
		} else if !space && start < 0 {
			start = i
		}
		i += size
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

func (p *parser) label(name string) error {
	if p.rt == nil {
		return fmt.Errorf("label before routine header")
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("empty label")
	}
	if p.labels.hasBlock(name) {
		return fmt.Errorf("duplicate label %q", name)
	}
	p.newBlock(name)
	return nil
}

func (p *parser) newBlock(label string) {
	p.blocks.add().Label = p.labels.block(label)
	p.starts = append(p.starts, len(p.instrs.run()))
}

// takeLabel interns op's next operand as a label.
func (p *parser) takeLabel(op Op, ops *operands) (Label, error) {
	t, err := ops.take(op)
	if err != nil {
		return 0, err
	}
	return p.labels.Intern(t), nil
}

func (p *parser) instr(s string) error {
	if p.rt == nil {
		return fmt.Errorf("instruction before routine header")
	}
	if len(p.starts) == 0 {
		// Implicit entry block.
		p.newBlock("entry")
	}
	if n := len(p.instrs.run()); n > p.starts[len(p.starts)-1] && p.instrs.last().Op.IsTerminator() {
		p.rt.Labels = p.labelBuf // the message prints the terminator's labels
		return fmt.Errorf("instruction after terminator %q", p.rt.InstrString(p.instrs.last()))
	}
	return p.parseInstr(p.instrs.add(), s)
}

// operands walks a comma-separated operand list in place, yielding the
// tokens strings.Split would, each trimmed.
type operands struct {
	rest string
	done bool
}

func newOperands(s string) operands { return operands{rest: s, done: s == ""} }

func (o *operands) next() (string, bool) {
	if o.done {
		return "", false
	}
	t := o.rest
	if i := strings.IndexByte(t, ','); i >= 0 {
		t, o.rest = t[:i], t[i+1:]
	} else {
		o.rest, o.done = "", true
	}
	return strings.TrimSpace(t), true
}

// left returns the operands not taken yet.
func (o *operands) left() []string {
	if o.done {
		return nil
	}
	toks := strings.Split(o.rest, ",")
	for i, t := range toks {
		toks[i] = strings.TrimSpace(t)
	}
	return toks
}

// parseInstr parses instruction text s into in, which is zero.
func (p *parser) parseInstr(in *Instr, s string) error {
	// Mnemonic is the first space-delimited token.
	mn := s
	rest := ""
	if i := indexSpace(s); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	op, ok := OpFromString(mn)
	if !ok {
		return fmt.Errorf("unknown op %q", mn)
	}
	in.Op, in.Dst, in.Src = op, NoReg, [2]Reg{NoReg, NoReg}

	if op == OpBr {
		// br cond rS, Ltrue, Lfalse
		i := indexSpace(rest)
		if i < 0 {
			return fmt.Errorf("br wants a condition")
		}
		cond, ok := CondFromString(rest[:i])
		if !ok {
			return fmt.Errorf("unknown condition %q", rest[:i])
		}
		in.Cond = cond
		rest = strings.TrimSpace(rest[i+1:])
	}

	ops := newOperands(rest)
	var err error
	switch op {
	case OpPhi:
		return fmt.Errorf("phi is not accepted in source text")
	case OpJmp:
		in.Label, err = p.takeLabel(op, &ops)
		return err
	case OpBr:
		if in.Src[0], err = p.takeReg(op, &ops, ClassInt); err != nil {
			return err
		}
		if in.Label, err = p.takeLabel(op, &ops); err != nil {
			return err
		}
		if in.Label2, err = p.takeLabel(op, &ops); err != nil {
			return err
		}
		if !ops.done {
			return fmt.Errorf("br: trailing operands")
		}
		return nil
	}

	if op.HasDst() {
		if in.Dst, err = p.takeReg(op, &ops, op.DstClass()); err != nil {
			return err
		}
		if in.Dst.IsFP() {
			return fmt.Errorf("%s: fp is not writable", op)
		}
	}
	for i := 0; i < op.NSrc(); i++ {
		if in.Src[i], err = p.takeReg(op, &ops, op.SrcClass(i)); err != nil {
			return err
		}
	}
	if op.HasLabel() {
		if in.Label, err = p.takeLabel(op, &ops); err != nil {
			return err
		}
	}
	if op.HasImm() {
		t, err := ops.take(op)
		if err != nil {
			return err
		}
		if in.Imm, err = strconv.ParseInt(t, 10, 64); err != nil {
			return fmt.Errorf("%s: bad immediate %q", op, t)
		}
	}
	if op.HasFImm() {
		t, err := ops.take(op)
		if err != nil {
			return err
		}
		if in.FImm, err = strconv.ParseFloat(t, 64); err != nil {
			return fmt.Errorf("%s: bad float immediate %q", op, t)
		}
	}
	if !ops.done {
		return fmt.Errorf("%s: trailing operands %v", op, ops.left())
	}
	return nil
}

// take returns op's next operand.
func (o *operands) take(op Op) (string, error) {
	t, ok := o.next()
	if !ok {
		return "", fmt.Errorf("%s: missing operand", op)
	}
	return t, nil
}

// takeReg returns op's next operand, which must be a register of class
// want.
func (p *parser) takeReg(op Op, ops *operands, want Class) (Reg, error) {
	t, err := ops.take(op)
	if err != nil {
		return NoReg, err
	}
	r, err := parseReg(t)
	if err != nil {
		return NoReg, err
	}
	if r.Class != want {
		return NoReg, fmt.Errorf("%s: operand %s has class %s, want %s", op, t, r.Class, want)
	}
	p.noteReg(r)
	return r, nil
}

func (p *parser) noteReg(r Reg) {
	if n := int(r.N); n >= p.rt.NextReg[r.Class] {
		p.rt.NextReg[r.Class] = n + 1
	}
}

func parseReg(s string) (Reg, error) {
	if s == "fp" {
		return FP, nil
	}
	if len(s) < 2 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	var c Class
	switch s[0] {
	case 'r':
		c = ClassInt
	case 'f':
		c = ClassFlt
	default:
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > MaxRegNum {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	if n == 0 {
		return NoReg, fmt.Errorf("register %s0 is reserved", string(s[0]))
	}
	return Reg{Class: c, N: int32(n)}, nil
}
