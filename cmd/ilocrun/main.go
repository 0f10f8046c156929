// Command ilocrun executes an ILOC routine in the dynamic-counting
// interpreter and reports the result and instruction counts.
//
//	ilocrun [-args v1,v2,...] [-counts] file.iloc
//
// A file may hold several routines; the first is the entry point and
// the rest are callees (allocated with the same options when -strategy
// is given). Arguments match the routine's declared parameters in order;
// values containing '.' are floats, others integers. Suite kernels are
// also runnable by name with -kernel (their Setup provides the
// arguments):
//
//	ilocrun -kernel sgemm [-regs N -strategy remat]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/suite"
	"repro/internal/target"
)

func main() {
	argsFlag := flag.String("args", "", "comma-separated routine arguments")
	counts := flag.Bool("counts", false, "print per-opcode dynamic counts")
	kernel := flag.String("kernel", "", "run a suite kernel by name instead of a file")
	strategy := flag.String("strategy", "", "allocate first under this strategy spec, e.g. remat or chaitin (default: run virtual-register code)")
	regs := flag.Int("regs", 16, "registers per class when allocating")
	flag.Parse()

	var out *interp.Outcome
	var err error
	if *kernel != "" {
		out, err = runKernel(*kernel, *strategy, *regs)
	} else {
		out, err = runFile(flag.Arg(0), *argsFlag, *strategy, *regs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilocrun:", err)
		os.Exit(1)
	}

	if out.HasRet {
		fmt.Printf("result: int=%d float=%g\n", out.RetInt, out.RetFloat)
	} else {
		fmt.Println("result: (void)")
	}
	fmt.Printf("steps: %d   cycles(2/1): %d\n", out.Steps, out.Cycles(2, 1))
	if *counts {
		type kv struct {
			op iloc.Op
			n  int64
		}
		var list []kv
		for op, n := range out.Counts {
			list = append(list, kv{op, n})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n })
		for _, e := range list {
			fmt.Printf("%10d  %s\n", e.n, e.op)
		}
	}
}

func maybeAllocate(rt *iloc.Routine, strategy string, regs int) (*iloc.Routine, error) {
	if strategy == "" {
		return rt, nil
	}
	res, err := core.Allocate(context.Background(), rt, core.Options{Machine: target.WithRegs(regs), Strategy: strategy})
	if err != nil {
		return nil, err
	}
	return res.Routine, nil
}

func runKernel(name, strategy string, regs int) (*interp.Outcome, error) {
	k := suite.ByName(name)
	if k == nil {
		var names []string
		for _, x := range suite.All() {
			names = append(names, x.Name)
		}
		return nil, fmt.Errorf("no kernel %q (have: %s)", name, strings.Join(names, ", "))
	}
	rt, err := maybeAllocate(k.Routine(), strategy, regs)
	if err != nil {
		return nil, err
	}
	return k.Execute(rt)
}

func runFile(path, argsFlag, strategy string, regs int) (*interp.Outcome, error) {
	var src []byte
	var err error
	if path == "" || path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	rts, err := iloc.ParseProgram(string(src))
	if err != nil {
		return nil, err
	}
	rt, err := maybeAllocate(rts[0], strategy, regs)
	if err != nil {
		return nil, err
	}
	var callees []*iloc.Routine
	for _, c := range rts[1:] {
		ac, err := maybeAllocate(c, strategy, regs)
		if err != nil {
			return nil, err
		}
		callees = append(callees, ac)
	}
	var args []interp.Value
	if argsFlag != "" {
		for _, tok := range strings.Split(argsFlag, ",") {
			tok = strings.TrimSpace(tok)
			if strings.ContainsAny(tok, ".eE") {
				f, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, fmt.Errorf("bad argument %q", tok)
				}
				args = append(args, interp.Float(f))
			} else {
				v, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad argument %q", tok)
				}
				args = append(args, interp.Int(v))
			}
		}
	}
	e, err := interp.New(rt, interp.Config{Routines: callees})
	if err != nil {
		return nil, err
	}
	return e.Run(args...)
}
