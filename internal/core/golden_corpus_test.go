package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
)

// goldenCorpusDigests pins the allocator's output over two generated
// corpora, byte for byte: for every routine, the sha256 runs over its
// allocated code as iloc.Print renders it and the counts (not the times)
// of every pass of every iteration. A change that alters one allocation
// or one PassStat count anywhere in either corpus changes the digest.
// The constants were computed before the allocator's hot path was made
// allocation-lean, so they hold the lean rounds to the original output.
var goldenCorpusDigests = []struct {
	spec, machine, strategy, digest string
}{
	{"count=200,seed=7", "x86-64", "remat",
		"e0e2eb036bfd87fa6955173d98e2d6089fd5ba36a159ba4f74e290cb938e6ff6"},
	{"count=200,seed=7", "x86-64", "chaitin",
		"365bc78c28a50dff08adc5be922d2345a053b755e83ab62efa174e83561534a3"},
	{"count=200,seed=7", "x86-64", "remat:split=all-loops",
		"1efdccb128439dfdfc772ebb48c1ec5f34adc8107b9875d2771cc2762011f18f"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "remat",
		"0272ae6252bb83c11b74af040f63d7816132770059a8b24ac75bdd8c002200d6"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "chaitin",
		"c5121e46699075dacd80a81b0e563a6d8b09123c677e18a84e9c5214cf6be15a"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "remat:split=all-loops",
		"9ecc22e4768b8b4851fd9b81e926f4fffe037dcad824f29fec2d97cb4e070a2e"},
}

func TestGoldenCorpusDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale golden test skipped in -short mode")
	}
	for _, g := range goldenCorpusDigests {
		t.Run(g.machine+"/"+g.strategy, func(t *testing.T) {
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
			h := sha256.New()
			for _, rt := range corpus.Routines(units) {
				res, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: g.strategy})
				if err != nil {
					fmt.Fprintf(h, "%s: error %v\n", rt.Name, err)
					continue
				}
				hashResult(h, res)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
				t.Errorf("spec %s on %s under %s: digest %s, want %s", g.spec, g.machine, g.strategy, got, g.digest)
			}
		})
	}
}

// hashResult writes the allocated code and each pass's counts to h.
func hashResult(h hash.Hash, res *Result) {
	h.Write([]byte(iloc.Print(res.Routine)))
	for i, it := range res.Iterations {
		for _, ps := range it.Passes {
			fmt.Fprintf(h, "%d %s %d %d %d %d %d %d\n", i, ps.Name,
				ps.Nodes, ps.Edges, ps.Coalesced, ps.Splits, ps.Spilled, ps.Remat)
		}
	}
}
