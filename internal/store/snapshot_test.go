package store

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/machines"
	"repro/internal/telemetry"
)

// TestEntryFromSnapshot: the flusher encodes disk entries from the
// snapshot L1 keeps, so an entry built from a decoded snapshot must
// equal the entry of the original result, byte for byte, for every
// routine of the golden corpora under remat, chaitin and
// spill-everywhere.
func TestEntryFromSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale test skipped in -short mode")
	}
	for _, c := range []struct{ spec, machine string }{
		{"count=200,seed=7", "x86-64"},
		{"count=200,seed=11,depth=3,pressure=8", "embedded-8"},
	} {
		spec, err := corpus.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		units, err := corpus.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machines.Lookup(c.machine)
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{"remat", "chaitin", "spill-everywhere"} {
			opts := core.Options{Machine: m, Strategy: strategy}
			optKey := driver.CanonicalOptionsKey(opts)
			for _, rt := range corpus.Routines(units) {
				res, err := core.Allocate(context.Background(), rt, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := encodeResult(res, optKey)
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := core.NewSnapshot(res).Result()
				if err != nil {
					t.Fatal(err)
				}
				got, err := encodeResult(decoded, optKey)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s %s: entry from the snapshot differs from the result's entry", c.spec, strategy, rt.Name)
				}
			}
		}
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
		want, err := encodeResult(res, optKey)
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
		if again, _ := encodeResult(hit, optKey); !bytes.Equal(again, want) {
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
			good, _ = encodeResult(res, optKey)
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
