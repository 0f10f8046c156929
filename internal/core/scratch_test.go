package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/suite"
)

// reuseItem is one allocation of the reuse-safety tests.
type reuseItem struct {
	name string
	rt   *iloc.Routine
	opts Options
}

// reuseItems returns every routine of the golden corpora under each
// golden machine and strategy, with the suite's largest kernel
// (twldrv, the biggest scratch footprint measured) allocated after
// every 25th: each small routine after it runs on tables the big one
// grew, stale contents past its own size included.
func reuseItems(t *testing.T) []reuseItem {
	t.Helper()
	big := suite.ByName("twldrv").Routine()
	var items []reuseItem
	for _, g := range goldenCorpusDigests {
		spec, err := corpus.ParseSpec(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		units, err := corpus.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machines.Lookup(g.machine)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Machine: m, Strategy: g.strategy}.withDefaults()
		for i, rt := range corpus.Routines(units) {
			if i%25 == 0 {
				items = append(items, reuseItem{g.strategy + "/" + big.Name, big, opts})
			}
			items = append(items, reuseItem{g.strategy + "/" + rt.Name, rt, opts})
		}
	}
	return items
}

// resultDigest hashes what hashResult pins for the golden corpora.
func resultDigest(res *Result) string {
	h := sha256.New()
	hashResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

// allocateOnNewScratch allocates like Allocate's iterated strategies,
// on a scratch no other call has used.
func allocateOnNewScratch(rt *iloc.Routine, opts Options) (*Result, error) {
	strat, err := LookupStrategy(opts.Strategy)
	if err != nil {
		return nil, err
	}
	return newAllocator(context.Background(), rt, opts, strat.params, new(scratch)).run()
}

// A scratch whose footprint is over maxPooledScratch is dropped, not
// pooled; one under it is pooled.
func TestOversizedScratchNotPooled(t *testing.T) {
	small := new(scratch)
	small.classes[iloc.ClassInt].graph.Reset(100)
	if small.footprint() > maxPooledScratch {
		t.Fatalf("a 100-node graph's scratch is %d bytes, over the %d-byte cap", small.footprint(), maxPooledScratch)
	}
	if !releaseScratch(small) {
		t.Fatal("a scratch under the cap was not pooled")
	}
	// A matrix of n(n-1)/2 bits is over the cap from about 4,100 nodes.
	big := new(scratch)
	big.classes[iloc.ClassFlt].graph.Reset(5000)
	if big.footprint() <= maxPooledScratch {
		t.Fatalf("a 5000-node graph's scratch is %d bytes, not over the %d-byte cap", big.footprint(), maxPooledScratch)
	}
	if releaseScratch(big) {
		t.Fatal("a scratch over the cap was pooled")
	}
}

// The control-flow analyses round 0 computes hold in every later round:
// recomputing them from scratch on a clone of the code a round starts
// from gives the same blocks in the same order, the same dominator
// tree, frontiers and loops, and the same loop depths.
func TestCachedCFAMatchesRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale CFA test skipped in -short mode")
	}
	rounds := 0
	for _, it := range reuseItems(t) {
		strat, err := LookupStrategy(it.opts.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		a := newAllocator(context.Background(), it.rt, it.opts, strat.params, new(scratch))
		for iter := 0; ; iter++ {
			if iter == it.opts.MaxIterations {
				t.Fatalf("%s: did not converge", it.name)
			}
			a.roundNo = iter
			if iter > 0 {
				if err := checkCachedCFA(a); err != nil {
					t.Fatalf("%s, round %d: %v", it.name, iter, err)
				}
				rounds++
			}
			done, err := a.round()
			if err != nil {
				t.Fatalf("%s: %v", it.name, err)
			}
			if done {
				break
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no routine took a second round; the test checked nothing")
	}
}

// checkCachedCFA compares the allocator's cached analyses with the cfa
// pass's work redone on a clone of its current code.
func checkCachedCFA(a *allocator) error {
	rt := a.rt.Clone()
	if err := cfg.Build(rt); err != nil {
		return err
	}
	if n, err := cfg.SplitCriticalEdges(rt); err != nil || n != 0 {
		return fmt.Errorf("%d critical edges split (err %v), want 0", n, err)
	}
	tree, loops, err := cfg.Analyze(rt)
	if err != nil {
		return err
	}
	if len(rt.Blocks) != len(a.rt.Blocks) {
		return fmt.Errorf("%d blocks, cached %d", len(rt.Blocks), len(a.rt.Blocks))
	}
	for i, b := range rt.Blocks {
		cb := a.rt.Blocks[i]
		if b.Label != cb.Label || b.Index != cb.Index || b.Depth != cb.Depth {
			return fmt.Errorf("block %d is %s (index %d, depth %d), cached %s (index %d, depth %d)",
				i, b.Label, b.Index, b.Depth, cb.Label, cb.Index, cb.Depth)
		}
		if !sameBlocks(b.Succs, cb.Succs) || !sameBlocks(b.Preds, cb.Preds) {
			return fmt.Errorf("block %s: edges differ", b.Label)
		}
	}
	if !reflect.DeepEqual(tree.Idom, a.tree.Idom) {
		return fmt.Errorf("idom %v, cached %v", tree.Idom, a.tree.Idom)
	}
	if !reflect.DeepEqual(tree.Children, a.tree.Children) {
		return fmt.Errorf("dominator-tree children %v, cached %v", tree.Children, a.tree.Children)
	}
	if !sameBlocks(tree.Order, a.tree.Order) {
		return fmt.Errorf("reverse postorder differs")
	}
	if df := dom.Frontiers(tree, rt); !reflect.DeepEqual(df, a.df) {
		return fmt.Errorf("frontiers %v, cached %v", df, a.df)
	}
	if len(loops) != len(a.loops) {
		return fmt.Errorf("%d loops, cached %d", len(loops), len(a.loops))
	}
	for i, l := range loops {
		cl := a.loops[i]
		if l.Header.Index != cl.Header.Index || l.Depth != cl.Depth || !sameBlocks(l.Blocks, cl.Blocks) {
			return fmt.Errorf("loop %d at %s (depth %d), cached at %s (depth %d)",
				i, l.Header.Label, l.Depth, cl.Header.Label, cl.Depth)
		}
	}
	return nil
}

// sameBlocks reports whether two block lists name the same blocks by
// index, in the same order.
func sameBlocks(x, y []*iloc.Block) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].Index != y[i].Index {
			return false
		}
	}
	return true
}

// Re-allocating one corpus routine allocates at most allocsPerRoutine
// times once the pooled scratch has grown to it: the clone that becomes
// the result, the round-0 control-flow analyses, the per-round stats,
// and the instructions spill code and splits add. The routine (10
// blocks, 80 instructions, 2 rounds) measured 105 allocations; the
// bound leaves a quarter of headroom. Before scratch was pooled and
// round 0's analyses kept, it took 918.
func TestAllocateAllocsBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const allocsPerRoutine = 130
	spec, err := corpus.ParseSpec("count=50,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machines.Lookup("x86-64")
	if err != nil {
		t.Fatal(err)
	}
	rt := corpus.Routines(units)[0]
	opts := Options{Machine: m, Strategy: "remat"}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Allocate(context.Background(), rt, opts); err != nil {
			t.Fatal(err)
		}
	})
	if n > allocsPerRoutine {
		t.Fatalf("re-allocating %s allocated %v times, want at most %d", rt.Name, n, allocsPerRoutine)
	}
}
