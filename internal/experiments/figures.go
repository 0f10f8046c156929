package experiments

import (
	"context"

	"fmt"
	"strings"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ctrans"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/liveness"
	"repro/internal/remat"
	"repro/internal/ssa"
	"repro/internal/target"
)

// Figure1Source is the paper's motivating example: p is constant in the
// first loop and varying in the second.
const Figure1Source = `
routine fig1(r9)
data arr rw 64
data lab rw 16 = 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5 3.5
entry:
    getparam r9, 0
    lda r1, lab       ; p <- Label
    fldi f1, 0.0
    ldi r2, 0
    jmp loop1
loop1:
    fload f2, r1      ; y <- y + [p]
    fadd f1, f1, f2
    addi r2, r2, 1
    sub r3, r9, r2
    br gt r3, loop1, mid
mid:
    ldi r4, 0
    jmp loop2
loop2:
    fload f3, r1      ; y <- y + [p]
    fadd f1, f1, f3
    addi r1, r1, 8    ; p <- p + 1 (words)
    addi r4, r4, 1
    sub r5, r9, r4
    br gt r5, loop2, done
done:
    retf f1
`

// Figure1Result holds the four columns of Figure 1 as concrete code from
// the reproduction: the source, and the allocations produced by the
// Chaitin-rule allocator and the rematerializing allocator under enough
// register pressure to spill p, together with their measured costs.
type Figure1Result struct {
	Source        string
	Chaitin       string
	Remat         string
	ChaitinCycles int64
	RematCycles   int64
	ChaitinLoads  int64
	RematLoads    int64
	ChaitinStores int64
	RematStores   int64
	RematLdaCount int64 // the rematerialized p in loop1
	ChaitinLdaCnt int64
}

// Figure1 reproduces Figure 1: on a machine with only two allocatable
// integer registers, p must spill; Chaitin's allocator stores and reloads
// the whole live range, while the rematerializing allocator recomputes
// the constant value with lda inside the first loop.
func Figure1() (*Figure1Result, error) {
	m := target.WithRegs(3)
	iters := int64(10)
	r := &Figure1Result{Source: Figure1Source}

	run := func(strategy string) (string, *interp.Outcome, error) {
		rt, err := iloc.Parse(Figure1Source)
		if err != nil {
			return "", nil, err
		}
		res, err := core.Allocate(context.Background(), rt, core.Options{Machine: m, Strategy: strategy})
		if err != nil {
			return "", nil, err
		}
		e, err := interp.New(res.Routine, interp.Config{})
		if err != nil {
			return "", nil, err
		}
		out, err := e.Run(interp.Int(iters))
		if err != nil {
			return "", nil, err
		}
		return iloc.Print(res.Routine), out, nil
	}

	var outC, outR *interp.Outcome
	var err error
	if r.Chaitin, outC, err = run("chaitin"); err != nil {
		return nil, fmt.Errorf("figure1 chaitin: %w", err)
	}
	if r.Remat, outR, err = run("remat"); err != nil {
		return nil, fmt.Errorf("figure1 remat: %w", err)
	}
	if outC.RetFloat != outR.RetFloat {
		return nil, fmt.Errorf("figure1: allocations disagree: %g vs %g", outC.RetFloat, outR.RetFloat)
	}
	r.ChaitinCycles = outC.Cycles(2, 1)
	r.RematCycles = outR.Cycles(2, 1)
	r.ChaitinLoads = outC.Count(loadOps...)
	r.RematLoads = outR.Count(loadOps...)
	r.ChaitinStores = outC.Count(storeOps...)
	r.RematStores = outR.Count(storeOps...)
	r.ChaitinLdaCnt = outC.Count(iloc.OpLda)
	r.RematLdaCount = outR.Count(iloc.OpLda)
	return r, nil
}

// FormatFigure1 renders the comparison.
func (r *Figure1Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 1: Rematerialization versus Spilling (measured)\n\n")
	b.WriteString("--- Source ---\n" + strings.TrimSpace(r.Source) + "\n\n")
	b.WriteString("--- Chaitin allocation (2 int colors) ---\n" + r.Chaitin + "\n")
	b.WriteString("--- Rematerializing allocation (2 int colors) ---\n" + r.Remat + "\n")
	fmt.Fprintf(&b, "chaitin: %5d cycles, %d loads, %d stores, %d lda\n",
		r.ChaitinCycles, r.ChaitinLoads, r.ChaitinStores, r.ChaitinLdaCnt)
	fmt.Fprintf(&b, "remat:   %5d cycles, %d loads, %d stores, %d lda\n",
		r.RematCycles, r.RematLoads, r.RematStores, r.RematLdaCount)
	return b.String()
}

// Figure2 traces one allocation through Figure 2's pipeline: the phases
// executed per iteration, with the spill counts that send the allocator
// around the loop again.
func Figure2() (string, error) {
	rt, err := iloc.Parse(Figure1Source)
	if err != nil {
		return "", err
	}
	res, err := core.Allocate(context.Background(), rt, core.Options{
		Machine: target.WithRegs(3), Strategy: "remat",
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: The Optimistic Allocator (trace)\n\n")
	b.WriteString("renumber -> build -> coalesce -> spill costs -> simplify -> select -> [spill code]\n\n")
	for i, it := range res.Iterations {
		spills := it.Spilled[0] + it.Spilled[1]
		fmt.Fprintf(&b, "iteration %d: renumber(%d splits) build/coalesce(%d copies removed) costs color(%d spilled)",
			i+1, it.Splits, it.Coalesced, spills)
		if spills > 0 {
			b.WriteString(" -> spill code, repeat")
		} else {
			b.WriteString(" -> allocation complete")
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Figure3Result shows the stages of §3.3 on the Figure 1 example: the
// pruned SSA form with its φ-node, the rematerialization tags of p's
// three values, and the final renumbered code with the single split copy
// of the Minimal column.
type Figure3Result struct {
	SSA     string
	Tags    []string
	Minimal string
	Splits  int
}

// Figure3 reproduces Figure 3's "Introducing Splits" walk-through.
func Figure3() (*Figure3Result, error) {
	// Stage 1: SSA with φ-nodes, as the SSA column shows.
	rt, err := iloc.Parse(Figure1Source)
	if err != nil {
		return nil, err
	}
	tree, _, err := cfg.Prepare(rt)
	if err != nil {
		return nil, err
	}
	live := liveness.Compute(rt, iloc.ClassInt)
	g, err := ssa.Build(rt, iloc.ClassInt, tree, live)
	if err != nil {
		return nil, err
	}
	r := &Figure3Result{SSA: iloc.Print(rt)}

	// Stage 2: tags for p's values (original register r1).
	tags := remat.Propagate(g)
	for v := 1; v < g.NumValues; v++ {
		if g.OrigOf[v] == 1 {
			r.Tags = append(r.Tags, fmt.Sprintf("p value %d (%s): %s",
				v, g.DefOf[v].Op, tags[v]))
		}
	}

	// Stage 3: the full renumber pass produces the Minimal column — the
	// single split isolating the never-killed lda value.
	fresh, err := iloc.Parse(Figure1Source)
	if err != nil {
		return nil, err
	}
	res, err := core.Allocate(context.Background(), fresh, core.Options{
		Machine: target.Huge(), Strategy: "remat",
	})
	if err != nil {
		return nil, err
	}
	r.Minimal = iloc.Print(res.Routine)
	if len(res.Iterations) > 0 {
		r.Splits = res.Iterations[0].Splits
	}
	return r, nil
}

// Format renders the Figure 3 stages.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3: Introducing Splits\n\n")
	b.WriteString("--- SSA (pruned, with φ-nodes) ---\n" + r.SSA + "\n")
	b.WriteString("--- Rematerialization tags for p's values ---\n")
	for _, t := range r.Tags {
		b.WriteString("  " + t + "\n")
	}
	fmt.Fprintf(&b, "\n--- Minimal (after renumber; %d split copies) ---\n%s", r.Splits, r.Minimal)
	return b.String()
}

// Figure4 reproduces the ILOC-and-C figure: the sum-of-absolute-values
// loop on the left, its instrumented C translation on the right.
func Figure4() (iloc.Routine, string, string, error) {
	src := `
routine fig4(r15, r11, r10)
entry:
    getparam r15, 0
    getparam r11, 1
    getparam r10, 2
    fldi f1, 0.0
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
    br ge r7, L0023, N7
N7:
    retf f15
`
	rt, err := iloc.Parse(src)
	if err != nil {
		return iloc.Routine{}, "", "", err
	}
	c, err := ctrans.Translate(rt)
	if err != nil {
		return iloc.Routine{}, "", "", err
	}
	return *rt, iloc.Print(rt), c, nil
}

// FormatFigure4 renders the two columns.
func FormatFigure4() (string, error) {
	_, left, right, err := Figure4()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: ILOC and C\n\n--- ILOC ---\n")
	b.WriteString(left)
	b.WriteString("\n--- Instrumented C ---\n")
	b.WriteString(right)
	return b.String(), nil
}
