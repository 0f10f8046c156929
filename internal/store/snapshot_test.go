package store

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// entryDigests pins, for each golden corpus and strategy, the sha256
// of every routine's disk entry in corpus order. They were taken while
// snapshots still kept CFG edges, φ arguments and pass times and
// encodeResult stripped the times itself, so they show that entries
// built from the narrower snapshot are byte-identical to the old ones.
var entryDigests = []struct{ spec, machine, strategy, digest string }{
	{"count=200,seed=7", "x86-64", "remat", "49570a60b0d5708b16c82a4ab29564d1998c8204eb90bd5f3493a3a58f08e189"},
	{"count=200,seed=7", "x86-64", "chaitin", "03b90b7d48089b26db98cabb177e75cab23030589bc0a1f82ebaeb5dfa4e2dce"},
	{"count=200,seed=7", "x86-64", "spill-everywhere", "f93eff7295d56a5106d287813c2cefe08657b55d6b453279d8791523a67cfe79"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "remat", "032292262b8e0e5f927f759f70d6eb499c7d5ccd1ace9ab77a0f5f6268b05a10"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "chaitin", "713ac6e2abc6ad9afafb6b0e34c55e558b6b064dc2dbb81fec194976a2808bc9"},
	{"count=200,seed=11,depth=3,pressure=8", "embedded-8", "spill-everywhere", "0d4540215b5078b616501ca59d093e3545d5132f0c7353573a1cc9ce1ed2de51"},
}

// goldenCorpus generates a golden corpus's routines and looks up its
// machine.
func goldenCorpus(t *testing.T, specText, machine string) ([]*iloc.Routine, *target.Machine) {
	t.Helper()
	spec, err := corpus.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machines.Lookup(machine)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Routines(units), m
}

// TestEntryFromSnapshot: the flusher encodes disk entries from the
// snapshot L1 keeps, so the entries of every routine of the golden
// corpora under remat, chaitin and spill-everywhere must hash to the
// pinned digests.
func TestEntryFromSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale test skipped in -short mode")
	}
	for _, c := range entryDigests {
		rts, m := goldenCorpus(t, c.spec, c.machine)
		opts := core.Options{Machine: m, Strategy: c.strategy}
		optKey := driver.CanonicalOptionsKey(opts)
		h := sha256.New()
		for _, rt := range rts {
			res, err := core.Allocate(context.Background(), rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			data, err := encodeResult(core.NewSnapshot(res), optKey)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s %s: entries hash to %s, want %s", c.spec, c.strategy, got, c.digest)
		}
	}
}

// TestTiersReturnOneResult: a result read back from L1 and the same
// result read back from L2 of one store are one cached allocation.
// Both print byte-identically and carry equal iteration statistics,
// Result fields and print-invisible routine fields, for every routine
// of the golden corpora under remat.
func TestTiersReturnOneResult(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale test skipped in -short mode")
	}
	for _, spec := range []struct{ spec, machine string }{
		{"count=200,seed=7", "x86-64"},
		{"count=200,seed=11,depth=3,pressure=8", "embedded-8"},
	} {
		rts, m := goldenCorpus(t, spec.spec, spec.machine)
		opts := core.Options{Machine: m, Strategy: "remat"}
		optKey := driver.CanonicalOptionsKey(opts)
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range rts {
			res, err := core.Allocate(context.Background(), rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := driver.KeyFor(rt, opts)
			st.PutOptions(key, res, optKey)
			l1, tier, ok := st.GetTier(key)
			if !ok || tier != TierMemory {
				t.Fatalf("%s: L1 lookup: ok=%v tier=%q", rt.Name, ok, tier)
			}
			st.Flush()
			l2, ok := st.Disk().Get(key)
			if !ok {
				t.Fatalf("%s: no L2 entry", rt.Name)
			}
			if a, b := iloc.Print(l1.Routine), iloc.Print(l2.Routine); a != b {
				t.Fatalf("%s: L1 and L2 print differently:\n%s\nvs\n%s", rt.Name, a, b)
			}
			if !reflect.DeepEqual(l1.Iterations, l2.Iterations) {
				t.Fatalf("%s: iterations differ:\nL1 %+v\nL2 %+v", rt.Name, l1.Iterations, l2.Iterations)
			}
			a, b := *l1, *l2
			a.Routine, b.Routine, a.Iterations, b.Iterations = nil, nil, nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: result fields differ:\nL1 %+v\nL2 %+v", rt.Name, a, b)
			}
			r1, r2 := l1.Routine, l2.Routine
			if r1.FrameWords != r2.FrameWords || r1.CallerSave != r2.CallerSave ||
				r1.NextReg != r2.NextReg || r1.Allocated != r2.Allocated {
				t.Fatalf("%s: routine fields differ", rt.Name)
			}
		}
		st.Close()
	}
}

// TestPutEncodesOffTheCaller: PutOptions queues a snapshot, so a caller
// that mutates its result after the put changes neither the queued
// disk entry nor the L1 copy — through the flusher and through the
// synchronous fallback of a closed tier alike.
func TestPutEncodesOffTheCaller(t *testing.T) {
	for _, closed := range []bool{false, true} {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if closed {
			st.Close()
		}
		res, key, optKey := allocateKernel(t, "fehl")
		want, err := encodeResult(core.NewSnapshot(res), optKey)
		if err != nil {
			t.Fatal(err)
		}
		st.PutOptions(key, res, optKey)
		res.Routine.Blocks[0].Instrs[0].Imm = 12345
		res.Routine.Name = "clobbered"
		res.Iterations[0].Passes[0].Nodes = 12345
		st.Close()

		got, err := os.ReadFile(st.Disk().entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("closed=%v: the disk entry saw the caller's later mutation", closed)
		}
		hit, tier, ok := st.GetTier(key)
		if !ok || tier != TierMemory {
			t.Fatalf("closed=%v: ok=%v tier=%q", closed, ok, tier)
		}
		if again, _ := encodeResult(core.NewSnapshot(hit), optKey); !bytes.Equal(again, want) {
			t.Fatalf("closed=%v: the L1 entry saw the caller's later mutation", closed)
		}
		if s := st.Stats(); s.FlushWrites != 1 || (s.FlushSync == 1) != closed {
			t.Fatalf("closed=%v: flush stats %+v", closed, s)
		}
	}
}

// FuzzImportBundle feeds bundles to ImportBundle, each input both as
// given (exercising the gzip layer) and gzipped (so the fuzzer reaches
// the tar members and the entries). Seeds are an exported bundle of
// real entries, its tar, and a bundle of hostile members. Import never
// panics, every entry it installs is served by Disk.Get, and a
// successful import accounts for every tar member:
// Imported + Skipped + Ignored equals the members read.
func FuzzImportBundle(f *testing.F) {
	src, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	var good []byte
	for _, name := range []string{"fehl", "sgemm", "repvid"} {
		res, key, optKey := allocateKernel(f, name)
		src.PutOptions(key, res, optKey)
		if good == nil {
			good, _ = encodeResult(core.NewSnapshot(res), optKey)
		}
	}
	var exported bytes.Buffer
	if _, err := src.ExportBundle(&exported); err != nil {
		f.Fatal(err)
	}
	src.Close()
	f.Add(exported.Bytes())
	gz, err := gzip.NewReader(bytes.NewReader(exported.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	plain, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	const key = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	f.Add(buildBundle(f, []bundleMember{
		{name: "objects/00/" + key, data: corrupt},
		{name: "objects/../../x/" + key, data: good},
		{name: "README", data: []byte("not an entry")},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkImport(t, data)
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		zw.Write(data)
		zw.Close()
		checkImport(t, zipped.Bytes())
	})
}

// checkImport imports one bundle into a fresh disk tier and asserts
// FuzzImportBundle's properties.
func checkImport(t *testing.T, bundle []byte) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := d.ImportBundle(bytes.NewReader(bundle))
	if err == nil {
		if n := tarMembers(bundle); st.Imported+st.Skipped+st.Ignored != n {
			t.Fatalf("import stats %+v account for %d members, the bundle has %d",
				st, st.Imported+st.Skipped+st.Ignored, n)
		}
	}
	installed := 0
	err = filepath.WalkDir(filepath.Join(d.Dir(), "objects"), func(path string, ent os.DirEntry, err error) error {
		if err != nil || ent.IsDir() {
			return err
		}
		installed++
		if _, ok := d.Get(driver.Key(ent.Name())); !ok {
			t.Fatalf("installed entry %s does not decode", ent.Name())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed > st.Imported {
		t.Fatalf("%d entries installed, %d imported", installed, st.Imported)
	}
}

// tarMembers counts the members of a gzipped tar, read to the end.
func tarMembers(bundle []byte) int {
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		return -1
	}
	tr := tar.NewReader(gz)
	n := 0
	for {
		if _, err := tr.Next(); errors.Is(err, io.EOF) {
			return n
		} else if err != nil {
			return -1
		}
		n++
	}
}

// TestL1BytesGauge: PublishMetrics reports the snapshot bytes L1 holds
// as store.l1.bytes, tracking puts, replacements and evictions.
func TestL1BytesGauge(t *testing.T) {
	st := NewTiered(driver.NewCache(1), nil)
	reg := telemetry.NewRegistry()
	gauge := func() int64 {
		st.PublishMetrics(reg)
		return reg.Gauge("store.l1.bytes").Value()
	}
	if n := gauge(); n != 0 {
		t.Fatalf("empty L1 publishes %d bytes", n)
	}
	fehl, key, optKey := allocateKernel(t, "fehl")
	st.PutOptions(key, fehl, optKey)
	one := gauge()
	if want := int64(core.NewSnapshot(fehl).Size()); one != want || st.Stats().L1.Bytes != want {
		t.Fatalf("one entry publishes %d bytes (stats %d), want %d", one, st.Stats().L1.Bytes, want)
	}
	st.PutOptions(key, fehl, optKey)
	if n := gauge(); n != one {
		t.Fatalf("replacing the entry publishes %d bytes, want %d", n, one)
	}
	sgemm, other, _ := allocateKernel(t, "sgemm")
	st.PutOptions(other, sgemm, optKey)
	if n, want := gauge(), int64(core.NewSnapshot(sgemm).Size()); n != want {
		t.Fatalf("after an eviction L1 publishes %d bytes, want %d", n, want)
	}
}
