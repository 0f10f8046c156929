// Calls: allocate a two-routine program under the paper's §5.1 calling
// convention. The driver keeps state live across two calls; the
// allocator must put it in callee-save registers (the interpreter
// poisons caller-save colors after every call, so a mistake would
// change the answer).
package main

import (
	"fmt"
	"log"

	regalloc "repro"
)

const programSrc = `
; main calls square twice and combines the results with state
; that stays live across both calls.
routine main(r1)
entry:
    getparam r1, 0
    ldi r2, 1000          ; live across both calls
    setarg r1, 0
    call square
    getret r3             ; n², live across the second call
    addi r4, r1, 1
    setarg r4, 0
    call square
    getret r5
    add r3, r3, r5
    add r3, r3, r2
    retr r3

routine square(r1)
entry:
    getparam r1, 0
    mul r2, r1, r1
    retr r2
`

func main() {
	rts, err := regalloc.ParseProgram(programSrc)
	if err != nil {
		log.Fatal(err)
	}
	main, square := rts[0], rts[1]

	for _, strategy := range []string{"chaitin", "remat"} {
		opts := regalloc.Options{Machine: regalloc.StandardMachine(), Strategy: strategy}
		am, err := regalloc.Allocate(main, opts)
		if err != nil {
			log.Fatal(err)
		}
		asq, err := regalloc.Allocate(square, opts)
		if err != nil {
			log.Fatal(err)
		}
		out, err := regalloc.RunProgram(am.Routine, []*regalloc.Routine{asq.Routine}, regalloc.Int(6))
		if err != nil {
			log.Fatal(err)
		}
		// 6² + 7² + 1000 = 1085
		fmt.Printf("%-8v n=6 -> %d (%d cycles)\n", strategy, out.RetInt, out.Cycles(2, 1))
	}

	// Show the allocated driver: the across-call values sit in
	// callee-save colors (> 6 on the standard machine).
	am, _ := regalloc.Allocate(main, regalloc.Options{Machine: regalloc.StandardMachine(), Strategy: "remat"})
	fmt.Println("\n--- allocated driver ---")
	fmt.Print(regalloc.Print(am.Routine))
}
