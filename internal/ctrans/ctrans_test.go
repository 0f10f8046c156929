package ctrans

import (
	"strings"
	"testing"

	"repro/internal/iloc"
)

// The Figure 4 fragment: ILOC on the left of the figure, and the C lines
// it must turn into on the right.
const fig4Src = `
routine fig4(r15, r11, r10)
entry:
    getparam r15, 0
    getparam r11, 1
    getparam r10, 2
LL43:
    nop
LL44:
    ldi r14, 8
    add r9, r15, r11
    fmov f15, f1
    jmp L0023
L0023:
    floadao f14, r14, r9
    fabs f14, f14
    fadd f15, f15, f14
    addi r14, r14, 8
    sub r7, r10, r14
    br ge r7, N6, N7
N6:
    retf f15
N7:
    jmp L0023
`

func translate(t *testing.T, src string) string {
	t.Helper()
	rt := iloc.MustParse(src)
	// fig4 uses f1 before definition (stands in for f0 of the figure);
	// give it a def so the routine verifies and translates.
	c, err := Translate(rt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFigure4Shape(t *testing.T) {
	c := translate(t, fig4Src)
	wants := []string{
		"r14 = (long) (8); i++;",                  // ldi ... (int) in the figure, long here
		"r9 = r15 + r11;",                         // add
		"f15 = f1; c++;",                          // mvf / fmov
		"goto L_L0023;",                           // bc
		"f14 = *((double *) (r14 + r9)); l++;",    // lddrr / floadao
		"f14 = fabs(f14);",                        // dabs
		"f15 = f15 + f14;",                        // dadd
		"r14 = r14 + (8); a++;",                   // addi
		"r7 = r10 - r14;",                         // sub
		"if (r7 >= 0) goto L_N6; else goto L_N7;", // br ge
		"long l, s, c, i, a;",                     // the counters
		"register long r14;",                      // register declarations
		"register double f15;",
	}
	for _, w := range wants {
		if !strings.Contains(c, w) {
			t.Errorf("missing %q in translation:\n%s", w, c)
		}
	}
	if !strings.HasPrefix(c, "#include <math.h>") {
		t.Error("missing math.h include")
	}
	if !strings.Contains(c, "double fig4(long p0, long p1, long p2)") {
		t.Errorf("signature wrong:\n%s", c)
	}
}

func TestDataSections(t *testing.T) {
	c := translate(t, `
routine f()
data tab ro 2 = 1.5 -2.5
data buf rw 3
entry:
    lda r1, tab
    fload f1, r1
    frload f2, tab, 8
    fadd f1, f1, f2
    lda r2, buf
    fstore f1, r2
    retf f1
`)
	for _, w := range []string{
		"static const double tab[2] = {1.5, -2.5};",
		"static long buf[3];",
		"r1 = (long) tab; i++;",
		"f2 = tab[1]; l++;",
		"*((double *) (r2)) = f1; s++;",
	} {
		if !strings.Contains(c, w) {
			t.Errorf("missing %q in:\n%s", w, c)
		}
	}
}

func TestStoresLoadsFrame(t *testing.T) {
	c := translate(t, `
routine f()
entry:
    ldi r1, 7
    storeai r1, fp, 16
    loadai r2, fp, 16
    retr r2
`)
	for _, w := range []string{
		"register long fp = (long) frame;",
		"*((long *) (fp + 16)) = r1; s++;",
		"r2 = *((long *) (fp + 16)); l++;",
		"long f(", // integer-returning routine
	} {
		if !strings.Contains(c, w) {
			t.Errorf("missing %q in:\n%s", w, c)
		}
	}
}

func TestAllOpsTranslate(t *testing.T) {
	// A routine touching every translatable op must not error.
	c := translate(t, `
routine all(r1, f1)
data k ro 1 = 3
entry:
    getparam r1, 0
    fgetparam f1, 1
    ldi r2, 2
    lda r3, k
    rload r4, k, 0
    mov r5, r2
    add r6, r2, r4
    sub r6, r6, r2
    mul r6, r6, r2
    div r6, r6, r2
    and r6, r6, r2
    or r6, r6, r2
    xor r6, r6, r2
    shl r6, r6, r2
    shr r6, r6, r2
    neg r6, r6
    addi r6, r6, 1
    subi r6, r6, 1
    muli r6, r6, 2
    load r7, r3
    loadai r7, r3, 0
    loadao r7, r3, r2
    nop
    fldi f2, 1.5
    fmov f3, f2
    fadd f4, f2, f3
    fsub f4, f4, f2
    fmul f4, f4, f2
    fdiv f4, f4, f2
    fabs f4, f4
    fneg f4, f4
    cvtif f5, r6
    cvtfi r8, f4
    fcmp r9, f4, f5
    br ne r9, a, b
a:
    store r6, r3
    storeai r6, r3, 0
    fstore f4, r3
    fstoreai f4, r3, 0
    ret
b:
    retr r8
`)
	if !strings.Contains(c, "r9 = (f4 < f5) ? -1 : ((f4 > f5) ? 1 : 0);") {
		t.Errorf("fcmp translation missing:\n%s", c)
	}
}

func TestRejectsPhi(t *testing.T) {
	rt := iloc.MustParse("routine f()\na:\n ldi r1, 1\n retr r1\n")
	phi := rt.NewPhi(iloc.IntReg(1), 1)
	rt.Blocks[0].Instrs = append([]*iloc.Instr{&phi}, rt.Blocks[0].Instrs...)
	if _, err := Translate(rt); err == nil {
		t.Fatal("φ accepted")
	}
}
