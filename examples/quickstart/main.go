// Quickstart: parse an ILOC routine, allocate its registers with the
// rematerializing allocator, run both versions and compare the dynamic
// cost — the whole public API in one page.
package main

import (
	"fmt"
	"log"

	regalloc "repro"
)

const src = `
routine dot(r1)                 ; n
data xs ro 8 = 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0
data ys ro 8 = 0.5 0.25 0.5 0.25 0.5 0.25 0.5 0.25
entry:
    getparam r1, 0
    lda r2, xs
    lda r3, ys
    fldi f1, 0.0                ; acc
    ldi r4, 0                   ; i
    jmp loop
loop:
    sub r5, r4, r1
    br ge r5, done, body
body:
    fload f2, r2                ; *x  (x walks)
    fload f3, r3                ; *y  (y walks)
    fmul f2, f2, f3
    fadd f1, f1, f2
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, 1
    jmp loop
done:
    retf f1
`

func main() {
	rt, err := regalloc.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	// Run with unlimited virtual registers first.
	before, err := regalloc.Run(rt, regalloc.Int(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual registers : dot = %g in %d cycles\n", before.RetFloat, before.Cycles(2, 1))

	// Allocate for a tight 4-register machine under both strategies.
	for _, strategy := range []string{"chaitin", "remat"} {
		res, err := regalloc.Allocate(rt, regalloc.Options{
			Machine:  regalloc.MachineWithRegs(4),
			Strategy: strategy,
		})
		if err != nil {
			log.Fatal(err)
		}
		after, err := regalloc.Run(res.Routine, regalloc.Int(8))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18v: dot = %g in %d cycles (%d ranges spilled, %d rematerialized)\n",
			strategy, after.RetFloat, after.Cycles(2, 1), res.SpilledRanges, res.RematSpills)
	}

	// The allocated code is ordinary ILOC; print it or translate it to
	// the instrumented C of the paper's Figure 4.
	res, _ := regalloc.Allocate(rt, regalloc.Options{Machine: regalloc.StandardMachine(), Strategy: "remat"})
	fmt.Println("\n--- allocated ILOC (16 registers) ---")
	fmt.Print(regalloc.Print(res.Routine))
}
