package regalloc_test

import (
	"fmt"
	"strings"

	regalloc "repro"
)

// ExampleParse shows the round trip between ILOC text and the IR.
func ExampleParse() {
	rt, err := regalloc.Parse(`
routine inc(r1)
entry:
    getparam r1, 0
    addi r2, r1, 1
    retr r2
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(regalloc.Print(rt))
	// Output:
	// routine inc(r1)
	// entry:
	//     getparam r1, 0
	//     addi r2, r1, 1
	//     retr r2
}

// ExampleRun executes a routine in the dynamic-counting interpreter.
func ExampleRun() {
	rt := regalloc.MustParse(`
routine sum(r1)
entry:
    getparam r1, 0
    ldi r2, 0
    ldi r3, 0
loop:
    sub r4, r3, r1
    br ge r4, done, body
body:
    addi r3, r3, 1
    add r2, r2, r3
    jmp loop
done:
    retr r2
`)
	out, err := regalloc.Run(rt, regalloc.Int(10))
	if err != nil {
		panic(err)
	}
	fmt.Printf("sum(10) = %d in %d cycles\n", out.RetInt, out.Cycles(2, 1))
	// Output:
	// sum(10) = 55 in 57 cycles
}

// ExampleAllocate maps a routine onto a small machine and shows that a
// never-killed constant is rematerialized rather than spilled: the
// allocated code contains a spill-marked ldi and no stores.
func ExampleAllocate() {
	rt := regalloc.MustParse(`
routine f()
entry:
    ldi r1, 11
    ldi r2, 22
    ldi r3, 33
    ldi r4, 44
    add r5, r1, r2
    add r5, r5, r3
    add r5, r5, r4
    add r5, r5, r1
    retr r5
`)
	res, err := regalloc.Allocate(rt, regalloc.Options{
		Machine:  regalloc.MachineWithRegs(3), // two allocatable colors
		Strategy: "remat",
	})
	if err != nil {
		panic(err)
	}
	text := regalloc.Print(res.Routine)
	fmt.Println("spilled ranges:", res.SpilledRanges)
	fmt.Println("rematerialized:", res.RematSpills)
	fmt.Println("has remat ldi: ", strings.Contains(text, "; spill"))
	fmt.Println("has stores:    ", strings.Contains(text, "storeai"))
	out, _ := regalloc.Run(res.Routine)
	fmt.Println("result:        ", out.RetInt)
	// Output:
	// spilled ranges: 3
	// rematerialized: 3
	// has remat ldi:  true
	// has stores:     false
	// result:         121
}

// ExampleTranslateC renders the instrumented C of the paper's Figure 4.
func ExampleTranslateC() {
	rt := regalloc.MustParse(`
routine f(r1)
entry:
    getparam r1, 0
    addi r2, r1, 8
    load r3, r2
    retr r3
`)
	c, err := regalloc.TranslateC(rt)
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(c, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "r") && !strings.HasPrefix(line, "register") && !strings.HasPrefix(line, "return") {
			fmt.Println(line)
		}
	}
	// Output:
	// r1 = p0; l++;
	// r2 = r1 + (8); a++;
	// r3 = *((long *) (r2)); l++;
}
