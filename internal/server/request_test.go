package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/iloc"
)

// TestParseDeadline pins the X-Deadline-Ms grammar at its edges; the
// malformed spellings a client is likely to send are TestBadRequests
// rows.
func TestParseDeadline(t *testing.T) {
	const def, max = 30 * time.Second, 2 * time.Minute
	cases := []struct {
		header string
		want   time.Duration
		ok     bool
	}{
		{"", def, true},
		{"250", 250 * time.Millisecond, true},
		{"120000", max, true},
		{"9223372036854775807", max, true}, // clamped, never overflowed
		{"9223372036854775808", 0, false},  // not an int64
		{"0", 0, false},
		{"-5", 0, false},
		{"+5", 0, false},
		{" 5", 0, false},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest(http.MethodPost, "/", nil)
		if tc.header != "" {
			r.Header.Set("X-Deadline-Ms", tc.header)
		}
		got, ok := ParseDeadline(r, def, max)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseDeadline(%q) = %v, %t; want %v, %t", tc.header, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzDecodeRequest feeds arbitrary bytes through the request contract
// for both body shapes. Decoding must never panic, and an accepted body
// must yield at least one unit, each with a routine and options that
// the cache can key. One memo sees the body as both kinds, twice each:
// it must accept exactly what DecodeUnits accepts, and its units, keys
// and lazily loaded routines must be DecodeUnits's and KeyFor's.
func FuzzDecodeRequest(f *testing.F) {
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	files, _ := filepath.Glob("../../testdata/*.iloc")
	for _, path := range files {
		src := readFile(f, path)
		seed(AllocateRequest{ILOC: src})
		seed(BatchRequest{Units: []BatchUnit{{ILOC: src}, {Name: "u", ILOC: src, Options: &OptionsRequest{Strategy: "chaitin", Regs: 8}}}})
	}
	// The bodies of TestBadRequests.
	src := readFile(f, "../../testdata/sumabs.iloc")
	f.Add([]byte("{"))
	seed(AllocateRequest{})
	seed(AllocateRequest{ILOC: "not iloc at all"})
	seed(map[string]any{"iloc": src, "options": map[string]any{"mode": "chaitin"}})
	seed(AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "remat:split=sideways"}})
	seed(BatchRequest{})
	seed(BatchRequest{Units: []BatchUnit{{ILOC: src, Options: &OptionsRequest{Strategy: "bogus"}}}})

	f.Fuzz(func(t *testing.T, body []byte) {
		memo := NewMemo(DefaultOptions())
		for _, kind := range []Kind{KindAllocate, KindBatch} {
			units, err := DecodeUnits(bytes.NewReader(body), kind.request(), DefaultOptions())
			if err != nil {
				for try := 0; try < 2; try++ {
					if _, _, merr := memo.Units(kind, body); merr == nil || merr.Error() != err.Error() {
						t.Fatalf("kind %c: memo answered %v, DecodeUnits %v", kind, merr, err)
					}
					if _, kerr := memo.Keys(kind, body); kerr == nil {
						t.Fatalf("kind %c: memo keyed a body DecodeUnits refuses: %v", kind, err)
					}
				}
				continue
			}
			if len(units) == 0 {
				t.Fatalf("kind %c accepted with no units", kind)
			}
			keys := make([]driver.Key, len(units))
			results := make([]driver.UnitResult, len(units))
			for i, u := range units {
				if u.Routine == nil || u.Options == nil {
					t.Fatalf("kind %c unit %d incomplete: %+v", kind, i, u)
				}
				if keys[i] = driver.KeyFor(u.Routine, *u.Options); keys[i] == "" {
					t.Fatalf("kind %c unit %d has no content key", kind, i)
				}
				results[i].Key = keys[i]
			}
			for try := 0; try < 2; try++ {
				got, fill, err := memo.Units(kind, body)
				if err != nil || (fill == nil) != (try == 1) {
					t.Fatalf("kind %c try %d: err %v, remembered %t", kind, try, err, fill == nil)
				}
				if fill != nil {
					fill(results)
				}
				checkMemoUnits(t, kind, got, units, keys)
				mkeys, err := memo.Keys(kind, body)
				if err != nil || !reflect.DeepEqual(mkeys, keys) {
					t.Fatalf("kind %c: memo keys %v (%v), KeyFor %v", kind, mkeys, err, keys)
				}
			}
		}
	})
}

// checkMemoUnits fails unless memo units answer like the decoded ones:
// the same names, keys and options, and a routine that prints the same.
func checkMemoUnits(t *testing.T, kind Kind, got, want []driver.Unit, keys []driver.Key) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kind %c: memo gave %d units, DecodeUnits %d", kind, len(got), len(want))
	}
	for i, u := range got {
		if gotOpts, wantOpts := driver.CanonicalOptionsKey(*u.Options), driver.CanonicalOptionsKey(*want[i].Options); u.Name != want[i].Name || gotOpts != wantOpts {
			t.Fatalf("kind %c unit %d: memo %q %s, decoded %q %s", kind, i, u.Name, gotOpts, want[i].Name, wantOpts)
		}
		if u.Key != "" && u.Key != keys[i] {
			t.Fatalf("kind %c unit %d: memo key %s, KeyFor %s", kind, i, u.Key, keys[i])
		}
		rt := u.Routine
		if rt == nil {
			if u.Key == "" || u.Load == nil {
				t.Fatalf("kind %c unit %d: neither a routine nor a key and a loader", kind, i)
			}
			var err error
			if rt, err = u.Load(); err != nil {
				t.Fatalf("kind %c unit %d: load: %v", kind, i, err)
			}
		}
		if iloc.Print(rt) != iloc.Print(want[i].Routine) {
			t.Fatalf("kind %c unit %d: loaded routine prints differently", kind, i)
		}
	}
}

func readFile(tb testing.TB, path string) string {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
