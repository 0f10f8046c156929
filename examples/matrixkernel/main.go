// Matrix kernel: run the sgemm suite kernel (matrix multiply, the
// matrix300 workload of the paper's Table 1) through both allocators
// across a register-set sweep, reproducing the crossover where
// rematerialization starts to pay.
package main

import (
	"fmt"
	"log"

	regalloc "repro"
)

func main() {
	k := regalloc.KernelByName("sgemm")
	if k == nil {
		log.Fatal("sgemm kernel missing")
	}

	// Baseline: the 128-register huge machine approximates a perfect
	// allocation (§5.2 of the paper).
	base, err := measure(k, regalloc.HugeMachine(), "remat")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("huge-machine baseline: %d cycles\n\n", base)
	fmt.Printf("%6s %12s %12s %8s\n", "regs", "chaitin", "remat", "gain")

	for _, regs := range []int{6, 8, 10, 12, 16} {
		m := regalloc.MachineWithRegs(regs)
		ch, err := measure(k, m, "chaitin")
		if err != nil {
			log.Fatal(err)
		}
		re, err := measure(k, m, "remat")
		if err != nil {
			log.Fatal(err)
		}
		gain := "0%"
		if ch != base {
			gain = fmt.Sprintf("%.0f%%", 100*float64(ch-re)/float64(ch-base))
		}
		fmt.Printf("%6d %12d %12d %8s\n", regs, ch-base, re-base, gain)
	}
}

func measure(k *regalloc.Kernel, m *regalloc.Machine, strategy string) (int64, error) {
	res, err := regalloc.Allocate(k.Routine(), regalloc.Options{Machine: m, Strategy: strategy})
	if err != nil {
		return 0, err
	}
	out, err := k.Execute(res.Routine)
	if err != nil {
		return 0, err
	}
	return out.Cycles(2, 1), nil
}
