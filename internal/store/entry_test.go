package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/target"
)

// reframe rewrites an entry's metadata and re-hashes it: a hash-valid
// entry whose metadata says what mutate makes it say.
func reframe(t testing.TB, data []byte, mutate func(*entryMeta)) []byte {
	t.Helper()
	e, err := decodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	mutate(&e.Meta)
	meta, err := json.Marshal(e.Meta)
	if err != nil {
		t.Fatal(err)
	}
	return frameEntry([]byte(e.OptionsKey), meta, e.Code)
}

// TestEntryMetaMustAgreeWithCode: a hash-valid entry whose metadata
// contradicts its code (a register bank smaller than the registers the
// code names, a negative frame, a caller-save count outside the bank)
// is corrupt. The disk tier quarantines it and never serves it; served,
// a bank of [0 0] would crash the interpreter that sizes its register
// file from it.
func TestEntryMetaMustAgreeWithCode(t *testing.T) {
	res, key, optKey := allocateKernel(t, "fehl")
	good, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*entryMeta){
		"bank-zero":         func(m *entryMeta) { m.NextReg = [iloc.NumClasses]int{} },
		"bank-short":        func(m *entryMeta) { m.NextReg[iloc.ClassInt] = 2 },
		"bank-huge":         func(m *entryMeta) { m.NextReg[iloc.ClassFlt] = target.MaxRegs + 1 },
		"frame-negative":    func(m *entryMeta) { m.FrameWords = -1 },
		"caller-save-neg":   func(m *entryMeta) { m.CallerSave[iloc.ClassInt] = -1 },
		"caller-save-whole": func(m *entryMeta) { m.CallerSave[iloc.ClassFlt] = m.NextReg[iloc.ClassFlt] },
	} {
		t.Run(name, func(t *testing.T) {
			bad := reframe(t, good, mutate)
			if _, _, err := decodeResultBytes(bad); err == nil {
				t.Fatal("contradictory metadata decoded")
			}
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.write(key, bad)
			if _, ok := d.Get(key); ok {
				t.Fatal("contradictory entry was served")
			}
			if q := d.Quarantined(); q != 1 {
				t.Fatalf("quarantined = %d, want 1", q)
			}
		})
	}
	if _, _, err := decodeResultBytes(reframe(t, good, func(*entryMeta) {})); err != nil {
		t.Fatalf("unchanged metadata rejected: %v", err)
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder, seeded
// with real entries: every testdata routine allocated for a 6-register
// machine. Decoding never panics; an accepted entry's routine verifies
// and its instructions name no register outside its bank (parameters
// keep their virtual names); and a decoded entry encodes
// to a fixed point (each seed, straight from encodeResult, decodes and
// re-encodes to its own bytes).
func FuzzDecodeEntry(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.iloc")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata routines: %v", err)
	}
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		rts, err := iloc.ParseProgram(string(src))
		if err != nil {
			f.Fatal(err)
		}
		for _, rt := range rts {
			res, err := core.Allocate(context.Background(), rt, opts)
			if err != nil {
				f.Fatal(err)
			}
			data, err := encodeResult(res, driver.CanonicalOptionsKey(opts))
			if err != nil {
				f.Fatal(err)
			}
			if again := reencode(f, data); !bytes.Equal(again, data) {
				f.Fatalf("%s: entry does not re-encode to its own bytes", rt.Name)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The payload hash is no MAC: whoever writes an entry can make
		// any payload hash-valid. Checking data with its sum recomputed
		// lets the fuzzer reach the metadata and code checks.
		checkEntry(t, data)
		if len(data) >= headerSize {
			sum := sha256.Sum256(data[headerSize:])
			resummed := append([]byte(nil), data...)
			copy(resummed[12:], sum[:])
			checkEntry(t, resummed)
		}
	})
}

// checkEntry asserts FuzzDecodeEntry's properties of one input.
func checkEntry(t *testing.T, data []byte) {
	res, _, err := decodeResultBytes(data)
	if err != nil {
		return
	}
	rt := res.Routine
	if err := iloc.Verify(rt, false); err != nil {
		t.Fatalf("accepted entry does not verify: %v", err)
	}
	check := func(r iloc.Reg) {
		if r.Valid() && int(r.N) >= rt.NumRegs(r.Class) {
			t.Fatalf("accepted entry names %s outside its bank of %d", r, rt.NumRegs(r.Class))
		}
	}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		check(in.Def())
		for _, u := range rt.Uses(in) {
			check(u)
		}
	})
	once := reencode(t, data)
	if twice := reencode(t, once); !bytes.Equal(once, twice) {
		t.Fatal("re-encoding an accepted entry is not a fixed point")
	}
}

// reencode decodes an accepted entry and encodes its result again
// under the same options key.
func reencode(t testing.TB, data []byte) []byte {
	t.Helper()
	res, optKey, err := decodeResultBytes(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return out
}
