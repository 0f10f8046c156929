package iloc

import (
	"errors"
	"testing"
)

// TestParseErrorMessages pins the exact text of every ParseError the
// parser can report, with its line.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "no routine header"},
		{"; only a comment\n", "no routine header"},
		{"routine a()\n", "routine a has no code"},
		{"routine a()\n; nothing\n", "routine a has no code"},
		{"routine a()\nroutine b()\nx:\n ret\n", "line 2: duplicate routine header"},
		{"routine a\nx:\n ret\n", "line 1: malformed routine header \"a\""},
		{"routine a)(\nx:\n ret\n", "line 1: malformed routine header \"a)(\""},
		{"routine (r1)\nx:\n ret\n", "line 1: routine needs a name"},
		{"routine a(r1, q2)\nx:\n ret\n", "line 1: parameter: bad register \"q2\""},
		{"routine a(r1,)\nx:\n ret\n", "line 1: parameter: bad register \"\""},
		{"routine a(r0)\nx:\n ret\n", "line 1: parameter: register r0 is reserved"},
		{"routine a(fp)\nx:\n ret\n", "line 1: fp cannot be a parameter"},
		{"data t ro 1\n", "line 1: data before routine header"},
		{"routine a()\ndata t ro\nx:\n ret\n", "line 2: data wants: data NAME ro|rw WORDS [= v...]"},
		{"routine a()\ndata t ro 1 2\nx:\n ret\n", "line 2: data wants: data NAME ro|rw WORDS [= v...]"},
		{"routine a()\ndata t xx 1\nx:\n ret\n", "line 2: data mode \"xx\" (want ro or rw)"},
		{"routine a()\ndata t ro 0\nx:\n ret\n", "line 2: bad data size \"0\""},
		{"routine a()\ndata t ro zz\nx:\n ret\n", "line 2: bad data size \"zz\""},
		{"routine a()\ndata t ro 2 = 1 q\nx:\n ret\n", "line 2: bad initializer \"q\""},
		{"routine a()\ndata t ro 1 = 1 2\nx:\n ret\n", "line 2: data t: 2 initializers for 1 words"},
		{"routine a()\ndata t ro 1\ndata t rw 1\nx:\n ret\n", "line 3: duplicate data label \"t\""},
		{"x:\n", "line 1: label before routine header"},
		{"routine a()\n :\n ret\n", "line 2: empty label"},
		{"routine a()\nx:\n ret\nx:\n ret\n", "line 4: duplicate label \"x\""},
		{"ret\n", "line 1: instruction before routine header"},
		{"routine a()\nx:\n ret\n nop\n", "line 4: instruction after terminator \"ret\""},
		{"routine a()\nx:\n jmp y\n ret\ny:\n ret\n", "line 4: instruction after terminator \"jmp y\""},
		{"routine a()\nx:\n bogus r1\n", "line 3: unknown op \"bogus\""},
		{"routine a()\nx:\n br\n", "line 3: br wants a condition"},
		{"routine a()\nx:\n br r1, x, x\n", "line 3: unknown condition \"r1,\""},
		{"routine a()\nx:\n br zz r1, x, x\n", "line 3: unknown condition \"zz\""},
		{"routine a()\nx:\n br ge f1, x, x\n", "line 3: br: operand f1 has class flt, want int"},
		{"routine a()\nx:\n br ge r1, x\n", "line 3: br: missing operand"},
		{"routine a()\nx:\n br ge r1\n", "line 3: br: missing operand"},
		{"routine a()\nx:\n br ge r1, x, x, x\n", "line 3: br: trailing operands"},
		{"routine a()\nx:\n jmp\n", "line 3: jmp: missing operand"},
		{"routine a()\nx:\n phi r1, r2\n", "line 3: phi is not accepted in source text"},
		{"routine a()\nx:\n add r1, r2\n", "line 3: add: missing operand"},
		{"routine a()\nx:\n add r1, r2, f3\n", "line 3: add: operand f3 has class flt, want int"},
		{"routine a()\nx:\n add r1, r2, q3\n", "line 3: bad register \"q3\""},
		{"routine a()\nx:\n add r1, r2, r\n", "line 3: bad register \"r\""},
		{"routine a()\nx:\n add r1, r2, r-3\n", "line 3: bad register \"r-3\""},
		{"routine a()\nx:\n mov r1, r0\n", "line 3: register r0 is reserved"},
		{"routine a()\nx:\n fmov f1, f0\n", "line 3: register f0 is reserved"},
		{"routine a()\nx:\n ldi fp, 3\n", "line 3: ldi: fp is not writable"},
		{"routine a()\nx:\n ldi r1, zap\n", "line 3: ldi: bad immediate \"zap\""},
		{"routine a()\nx:\n ldi r1, 2, 3\n", "line 3: ldi: trailing operands [3]"},
		{"routine a()\nx:\n ldi r1, 2,\n", "line 3: ldi: trailing operands []"},
		{"routine a()\nx:\n ldi r1, 2, 3 , 4\n", "line 3: ldi: trailing operands [3 4]"},
		{"routine a()\nx:\n fldi f1, zap\n", "line 3: fldi: bad float immediate \"zap\""},
		{"routine a()\nx:\n lda r1\n", "line 3: lda: missing operand"},
		{"routine a()\nx:\n ret r1\n", "line 3: ret: trailing operands [r1]"},
		{"routine a()\nx:\n\tbr\tge\tr1,x,x ; c\n ret\n", "line 4: instruction after terminator \"br ge r1, x, x\""},
		// A register number must fit the 31 bits of Reg.N: truncating
		// r4294967297 would make it alias r1.
		{"routine a()\nx:\n ldi r2147483648, 1\n", "line 3: bad register \"r2147483648\""},
		{"routine a()\nx:\n mov r1, r4294967297\n", "line 3: bad register \"r4294967297\""},
		{"routine a(f2147483648)\nx:\n ret\n", "line 1: parameter: bad register \"f2147483648\""},
		{"routine a()\nx:\n fldi f99999999999999999999, 1.0\n", "line 3: bad register \"f99999999999999999999\""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) = %v, want a *ParseError", c.src, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("Parse(%q):\n got %q\nwant %q", c.src, err, c.want)
		}
	}

	// ParseProgram adds the whole-source errors of a multi-routine file.
	programCases := []struct{ src, want string }{
		{"", "no routine header"},
		{"; header in a comment: routine a()\n", "no routine header"},
		{"routine a()\nx:\n ret\nroutine a()\ny:\n ret\n", `duplicate routine "a"`},
		{"routine a()\nx:\n bogus\nroutine b()\ny:\n ret\n", `line 3: unknown op "bogus"`},
		{"routine a()\nroutine b()\ny:\n ret\n", "routine a has no code"},
	}
	for _, c := range programCases {
		_, err := ParseProgram(c.src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseProgram(%q) = %v, want a *ParseError", c.src, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseProgram(%q):\n got %q\nwant %q", c.src, err, c.want)
		}
	}
}

// TestParseProgramErrorLines checks that ParseProgram counts error lines
// from the start of the source, not from the routine holding the error.
func TestParseProgramErrorLines(t *testing.T) {
	const good = "; leading comment\nroutine a()\nx:\n ret\n"
	cases := []struct {
		src  string
		line int
		want string
	}{
		{"routine a()\nx:\n bogus r1\n ret\nroutine b()\ny:\n ret\n", 3, `line 3: unknown op "bogus"`},
		{good + "\nroutine b()\ny:\n bogus r1\n ret\n", 8, `line 8: unknown op "bogus"`},
		{good + "routine b()\ny:\n ret\n; c\nroutine c()\nz:\n ldi r1, q\n", 11, `line 11: ldi: bad immediate "q"`},
		{good + "routine b\ny:\n ret\n", 5, `line 5: malformed routine header "b"`},
		{good + "routine b()\ny:\n ret\ny:\n ret\n", 8, `line 8: duplicate label "y"`},
	}
	for _, c := range cases {
		_, err := ParseProgram(c.src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseProgram(%q) = %v, want a *ParseError", c.src, err)
			continue
		}
		if pe.Line != c.line || err.Error() != c.want {
			t.Errorf("ParseProgram(%q) = line %d %q, want line %d %q", c.src, pe.Line, err, c.line, c.want)
		}
	}
}
