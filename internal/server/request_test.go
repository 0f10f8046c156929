package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/driver"
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
// the cache can key.
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
		for _, req := range []Request{&AllocateRequest{}, &BatchRequest{}} {
			units, err := DecodeUnits(bytes.NewReader(body), req, DefaultOptions())
			if err != nil {
				continue
			}
			if len(units) == 0 {
				t.Fatalf("%T accepted with no units", req)
			}
			for i, u := range units {
				if u.Routine == nil || u.Options == nil {
					t.Fatalf("%T unit %d incomplete: %+v", req, i, u)
				}
				if driver.KeyFor(u.Routine, *u.Options) == "" {
					t.Fatalf("%T unit %d has no content key", req, i)
				}
			}
		}
	})
}

func readFile(tb testing.TB, path string) string {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
