package interp

import (
	"strings"
	"testing"

	"repro/internal/iloc"
)

const doubleSrc = `
routine double(r1)
entry:
    getparam r1, 0
    add r2, r1, r1
    retr r2
`

func TestCallBasic(t *testing.T) {
	caller := iloc.MustParse(`
routine main()
entry:
    ldi r1, 21
    setarg r1, 0
    call double
    getret r2
    retr r2
`)
	e, err := New(caller, Config{Routines: []*iloc.Routine{iloc.MustParse(doubleSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 42 {
		t.Fatalf("double(21) = %d", out.RetInt)
	}
	if out.Counts[iloc.OpCall] != 1 || out.Counts[iloc.OpGetparam] != 1 {
		t.Fatalf("callee work not counted: %v", out.Counts)
	}
}

func TestCallFloatArgsAndResult(t *testing.T) {
	callee := iloc.MustParse(`
routine scale(f1, r1)
entry:
    fgetparam f1, 0
    getparam r1, 1
    cvtif f2, r1
    fmul f1, f1, f2
    retf f1
`)
	caller := iloc.MustParse(`
routine main()
entry:
    fldi f1, 2.5
    ldi r1, 4
    fsetarg f1, 0
    setarg r1, 1
    call scale
    fgetret f2
    retf f2
`)
	e, err := New(caller, Config{Routines: []*iloc.Routine{callee}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetFloat != 10 {
		t.Fatalf("scale(2.5, 4) = %g", out.RetFloat)
	}
}

func TestCallRecursionFactorial(t *testing.T) {
	fact := iloc.MustParse(`
routine fact(r1)
entry:
    getparam r1, 0
    br gt r1, rec, base
base:
    ldi r2, 1
    retr r2
rec:
    subi r2, r1, 1
    setarg r2, 0
    call fact
    getret r3
    mul r3, r3, r1
    retr r3
`)
	e, err := New(iloc.MustParse(`
routine main(r1)
entry:
    getparam r1, 0
    setarg r1, 0
    call fact
    getret r2
    retr r2
`), Config{Routines: []*iloc.Routine{fact}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 3628800 {
		t.Fatalf("10! = %d", out.RetInt)
	}
}

func TestCallDepthLimit(t *testing.T) {
	loop := iloc.MustParse(`
routine forever()
entry:
    call forever
    ret
`)
	e, err := New(loop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallUnknownRoutine(t *testing.T) {
	e, err := New(iloc.MustParse(`
routine main()
entry:
    call nowhere
    ret
`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "unknown routine") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallArgMismatch(t *testing.T) {
	e, err := New(iloc.MustParse(`
routine main()
entry:
    call double      ; no setarg: double wants one argument
    ret
`), Config{Routines: []*iloc.Routine{iloc.MustParse(doubleSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("missing arguments accepted")
	}
}

func TestCalleeDataMergedAndFramesSeparate(t *testing.T) {
	callee := iloc.MustParse(`
routine peek()
data ctab ro 1 = 7
entry:
    ldi r1, 123
    storeai r1, fp, 0   ; callee frame slot: must not clobber the caller's
    rload r2, ctab, 0
    retr r2
`)
	caller := iloc.MustParse(`
routine main()
entry:
    ldi r1, 55
    storeai r1, fp, 0
    call peek
    getret r2
    loadai r3, fp, 0    ; caller frame must still hold 55
    mul r2, r2, r3
    retr r2
`)
	e, err := New(caller, Config{Routines: []*iloc.Routine{callee}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 7*55 {
		t.Fatalf("result = %d, want %d (callee frame clobbered the caller?)", out.RetInt, 7*55)
	}
}

func TestCallerSavePoisoning(t *testing.T) {
	// An "allocated" caller that wrongly keeps a value in caller-save r1
	// across a call must observe the poison.
	callee := iloc.MustParse(`
routine leaf()
entry:
    ret
`)
	caller := iloc.MustParse(`
routine main()
entry:
    ldi r1, 42
    call leaf
    retr r1
`)
	caller.Allocated = true
	caller.NextReg = [2]int{16, 16}
	caller.CallerSave = [2]int{6, 6}
	e, err := New(caller, Config{Routines: []*iloc.Routine{callee}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt == 42 {
		t.Fatal("caller-save register survived a call in allocated code")
	}
	// A value in callee-save r7 must survive.
	caller2 := iloc.MustParse(`
routine main()
entry:
    ldi r7, 42
    call leaf
    retr r7
`)
	caller2.Allocated = true
	caller2.NextReg = [2]int{16, 16}
	caller2.CallerSave = [2]int{6, 6}
	e2, err := New(caller2, Config{Routines: []*iloc.Routine{callee}})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.RetInt != 42 {
		t.Fatalf("callee-save register clobbered: %d", out2.RetInt)
	}
}
