package iloc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics feeds the parser mutated fragments of valid
// source plus random byte soup; it must return errors, never panic.
func TestParseNeverPanics(t *testing.T) {
	tokens := []string{
		"routine", "data", "ldi", "add", "br", "ge", "fp", "r1", "f2",
		"(", ")", ",", ":", "-", "8", "1.5", "entry", "loop", "ro", "rw",
		"=", "jmp", "retr", "retf", "phi", "\n", " ", "\t", ";x", "#y",
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				b.WriteByte(byte(rng.Intn(256)))
			} else {
				b.WriteString(tokens[rng.Intn(len(tokens))])
			}
			if rng.Intn(3) == 0 {
				b.WriteByte(' ')
			}
			if rng.Intn(6) == 0 {
				b.WriteByte('\n')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			rt, err := Parse(src)
			if err == nil {
				// Rare but possible: a valid routine. It must verify or
				// fail verification gracefully, and print/reparse.
				if verr := Verify(rt, false); verr == nil {
					if _, perr := Parse(Print(rt)); perr != nil {
						t.Fatalf("round trip of accidentally-valid routine failed: %v", perr)
					}
				}
			}
		}()
	}
}

// FuzzParse is the native fuzz target behind the deterministic smoke
// tests above: any input must either parse into a routine or produce a
// located *ParseError — never a panic — and whatever parses and
// verifies must print/reparse stably.
func FuzzParse(f *testing.F) {
	f.Add(sampleSrc)
	f.Add("routine a()\nx:\n ldi r1, 2\n retr r1\n")
	f.Add("routine a(r1)\ndata t rw 4 = 1 2 3 4\nx:\n lda r2, t\n load r3, r2\n add r3, r3, r1\n retr r3\n")
	f.Add("routine a()\nx:\n br ge r1, x, y\ny:\n ret\n")
	f.Add("routine \xffbad()\nx:\n ret\n")
	f.Add("routine a()\nx:\n ldi r2147483647, 1\n retr r2147483647\n")
	f.Add("routine a()\nx:\n mov r1, r4294967297\n retr r1\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		rt, err := Parse(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error is not a *ParseError: %T %v", err, err)
			}
			if pe.Line < 0 || pe.Line > strings.Count(src, "\n")+1 {
				t.Fatalf("ParseError line %d out of range for input", pe.Line)
			}
			return
		}
		if Verify(rt, false) != nil {
			return
		}
		text := Print(rt)
		rt2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of valid routine failed: %v\n%s", err, text)
		}
		if Print(rt2) != text {
			t.Fatalf("print/reparse unstable:\n%s\nvs\n%s", text, Print(rt2))
		}
	})
}

// FuzzParseProgram fuzzes the multi-routine reader the serving hops
// decode request bodies with. An error must be a *ParseError whose line
// lies in the source; a program whose routines all verify must print
// and reparse stably, and the concatenation of its printed routines
// must read back as the same routines in order.
func FuzzParseProgram(f *testing.F) {
	f.Add(sampleSrc)
	f.Add("routine a(r1,)\nx:\n ret\n")
	f.Add("routine a()\nx:\n ldi r1, 2,\n retr r1\n")
	f.Add("routine\ta()\nx:\n\tldi\tr1,\t2\n\tretr\tr1\n")
	f.Add("routine a()\r\nx:\r\n ldi r1, 2\r\n retr r1\r\n")
	f.Add("routine a(r1)\nx:\n mov r2, r1    ; split    ; spill\n retr r2 # done\n")
	f.Add("# routine b()\nroutine a()\nx:\n ret ; routine c()\n")
	f.Add("routine a()\nx:\n ret\nroutine a()\ny:\n ret\n")
	f.Add("\u00a0routine a()\nx:\n ret\n\u2003routine b()\ny:\n ret\n")
	f.Add("routine a(f2147483647)\nx:\n retf f2147483647\nroutine b()\ny:\n ldi r2147483648, 1\n retr r1\n")
	f.Add("routine main(r1)\nentry:\n getparam r1, 0\n setarg r1, 0\n call leaf\n getret r2\n retr r2\n" +
		"; leaf\nroutine leaf(r1)\ndata k ro 2 = 1.5 2\nentry:\n getparam r1, 0\n frload f1, k, 8\n retf f1\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		rts, err := ParseProgram(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseProgram error is not a *ParseError: %T %v", err, err)
			}
			if pe.Line < 0 || pe.Line > strings.Count(src, "\n")+1 {
				t.Fatalf("ParseError line %d out of range for input", pe.Line)
			}
			return
		}
		var all strings.Builder
		for _, rt := range rts {
			if Verify(rt, false) != nil {
				return
			}
			text := Print(rt)
			again, err := ParseProgram(text)
			if err != nil {
				t.Fatalf("reparse of valid routine failed: %v\n%s", err, text)
			}
			if len(again) != 1 || Print(again[0]) != text {
				t.Fatalf("print/reparse unstable:\n%s", text)
			}
			all.WriteString(text)
		}
		again, err := ParseProgram(all.String())
		if err != nil {
			t.Fatalf("reparse of printed program failed: %v\n%s", err, all.String())
		}
		if len(again) != len(rts) {
			t.Fatalf("printed program reads back as %d routines, want %d", len(again), len(rts))
		}
		for i, rt := range again {
			if Print(rt) != Print(rts[i]) {
				t.Fatalf("routine %d of the printed program reads back as\n%s\nwant\n%s", i, Print(rt), Print(rts[i]))
			}
		}
	})
}

// TestParseErrorLocation pins the error API the tools rely on: a
// per-line failure carries its 1-based line number, whole-source
// failures use line 0, and Unwrap exposes the cause.
func TestParseErrorLocation(t *testing.T) {
	_, err := Parse("routine a()\nx:\n ldi r1, 2\n bogus r9\n ret\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("not a *ParseError: %T %v", err, err)
	}
	if pe.Line != 4 {
		t.Fatalf("Line = %d, want 4 (%v)", pe.Line, err)
	}
	if !strings.Contains(err.Error(), "line 4:") {
		t.Fatalf("message %q does not locate the line", err)
	}
	if pe.Unwrap() == nil || !strings.Contains(pe.Unwrap().Error(), "unknown op") {
		t.Fatalf("Unwrap = %v", pe.Unwrap())
	}

	_, err = Parse("")
	if !errors.As(err, &pe) || pe.Line != 0 {
		t.Fatalf("whole-source error = %v, want *ParseError with Line 0", err)
	}
	if strings.Contains(err.Error(), "line") {
		t.Fatalf("line-0 message should not cite a line: %q", err)
	}

	_, err = ParseProgram("routine a()\nx:\n ret\nroutine a()\ny:\n ret\n")
	if !errors.As(err, &pe) {
		t.Fatalf("ParseProgram error not a *ParseError: %T %v", err, err)
	}
}

// TestParseMutatedKernels mutates a valid source byte-wise: still no
// panics, and successful parses stay structurally sound.
func TestParseMutatedKernels(t *testing.T) {
	base := sampleSrc
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		buf := []byte(base)
		for k := 0; k < 1+rng.Intn(4); k++ {
			pos := rng.Intn(len(buf))
			switch rng.Intn(3) {
			case 0:
				buf[pos] = byte(rng.Intn(128))
			case 1:
				buf = append(buf[:pos], buf[pos+1:]...)
			default:
				buf = append(buf[:pos], append([]byte{byte(rng.Intn(128))}, buf[pos:]...)...)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on mutation: %v", r)
				}
			}()
			_, _ = Parse(string(buf))
		}()
	}
}
