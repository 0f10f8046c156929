package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
)

// TestStrategiesEndpoint: GET /v1/strategies lists every registered
// strategy with a description; other methods are rejected.
func TestStrategiesEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr StrategiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Strategies) < 4 {
		t.Fatalf("want >= 4 strategies, got %d: %+v", len(sr.Strategies), sr)
	}
	byName := map[string]StrategyInfo{}
	for _, si := range sr.Strategies {
		if si.Description == "" {
			t.Errorf("strategy %q has no description", si.Name)
		}
		byName[si.Name] = si
	}
	for _, want := range []string{"chaitin", "remat", "spill-everywhere", "ssa-spill"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("listing lacks %q: %+v", want, sr)
		}
	}

	if status, _, _ := post(t, ts.URL+"/v1/strategies", struct{}{}, nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/strategies = %d, want 405", status)
	}
}

// TestUnknownStrategyRejected: an unknown strategy name is a 400 whose
// body names every registered strategy, on both allocation endpoints
// and per-unit in a batch.
func TestUnknownStrategyRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := testSource(t)

	check := func(t *testing.T, status int, body []byte) {
		t.Helper()
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d\n%s", status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("bad error body: %v\n%s", err, body)
		}
		if er.Error == "" || len(er.Strategies) < 4 {
			t.Fatalf("error body does not list strategies: %+v", er)
		}
		found := map[string]bool{}
		for _, n := range er.Strategies {
			found[n] = true
		}
		for _, want := range core.StrategyNames() {
			if !found[want] {
				t.Fatalf("error body lacks %q: %+v", want, er)
			}
		}
	}

	t.Run("allocate", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/allocate",
			AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "linear-scan"}}, nil)
		check(t, status, body)
	})
	t.Run("batch-default", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/batch",
			BatchRequest{Units: []BatchUnit{{ILOC: src}}, Options: &OptionsRequest{Strategy: "linear-scan"}}, nil)
		check(t, status, body)
	})
	t.Run("batch-per-unit", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/batch",
			BatchRequest{Units: []BatchUnit{{ILOC: src, Options: &OptionsRequest{Strategy: "linear-scan"}}}}, nil)
		check(t, status, body)
	})

	// A parameter the strategy does not accept is also a 400 (without
	// the listing — the base name resolved).
	t.Run("bad-parameter", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/allocate",
			AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "ssa-spill:split=all-loops"}}, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d\n%s", status, body)
		}
	})

	// The ablation switches are bare flags: a value, even one that reads
	// as "off", is a 400 rather than a silently enabled switch.
	t.Run("flag-with-value", func(t *testing.T) {
		for _, spec := range []string{"remat:no-bias=false", "remat:no-coalesce=no"} {
			status, _, body := post(t, ts.URL+"/v1/allocate",
				AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: spec}}, nil)
			if status != http.StatusBadRequest || !strings.Contains(string(body), "takes no value") {
				t.Fatalf("%s: status = %d\n%s", spec, status, body)
			}
		}
	})
}

// TestUnknownOptionFieldRejected: a misspelled request field is a 400,
// not a silent fall-through to the server defaults.
func TestUnknownOptionFieldRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/allocate",
		map[string]any{"iloc": testSource(t), "options": map[string]any{"stratgy": "remat"}}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d\n%s", status, body)
	}
}

// TestBatchEveryStrategyEverySuiteKernel is the acceptance sweep: every
// registered strategy, selected per-unit through /v1/batch, produces a
// verifier-accepted allocation for every suite kernel.
func TestBatchEveryStrategyEverySuiteKernel(t *testing.T) {
	ts := newTestServer(t, Config{})
	names := core.StrategyNames()

	var units []BatchUnit
	for _, k := range suite.All() {
		src := iloc.Print(k.Routine())
		for _, name := range names {
			units = append(units, BatchUnit{
				Name:    k.Name + "/" + name,
				ILOC:    src,
				Options: &OptionsRequest{Strategy: name},
			})
		}
	}
	status, _, body := post(t, ts.URL+"/v1/batch", BatchRequest{Units: units}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	if len(ar.Results) != len(units) {
		t.Fatalf("want %d results, got %d", len(units), len(ar.Results))
	}
	for _, u := range ar.Results {
		if u.Error != "" {
			t.Errorf("%s: error: %s", u.Name, u.Error)
			continue
		}
		if !u.Verified {
			t.Errorf("%s: not verified", u.Name)
		}
		if u.Degraded {
			t.Errorf("%s: degraded (%s)", u.Name, u.DegradeReason)
		}
	}
}

// TestBatchMixedStrategiesDiffer: one batch carrying the same routine
// under different per-unit strategies returns per-strategy code, and an
// inherited batch-level strategy applies to units without their own.
func TestBatchMixedStrategiesDiffer(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := testSource(t)

	req := BatchRequest{
		Options: &OptionsRequest{Strategy: "spill-everywhere"},
		Units: []BatchUnit{
			{Name: "inherit", ILOC: src},
			{Name: "remat", ILOC: src, Options: &OptionsRequest{Strategy: "remat"}},
			{Name: "ssa", ILOC: src, Options: &OptionsRequest{Strategy: "ssa-spill"}},
		},
	}
	status, _, body := post(t, ts.URL+"/v1/batch", req, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	code := map[string]string{}
	for _, u := range ar.Results {
		if u.Error != "" || !u.Verified {
			t.Fatalf("unit %+v", u)
		}
		code[u.Name] = u.Code
	}
	// spill-everywhere reloads at every use; remat does not. The
	// inherited unit must look like the batch default, not the server
	// default.
	if code["inherit"] == code["remat"] {
		t.Fatal("batch-level strategy did not reach the unit without options")
	}
	if code["ssa"] == code["inherit"] {
		t.Fatal("ssa-spill and spill-everywhere returned identical code for a φ-bearing routine")
	}

	// Same routine, different strategies: the shared cache must keep the
	// entries separate on a repeat request.
	status2, _, body2 := post(t, ts.URL+"/v1/batch", req, nil)
	if status2 != http.StatusOK {
		t.Fatalf("repeat status = %d", status2)
	}
	ar2 := decodeAllocate(t, body2)
	for i, u := range ar2.Results {
		if !u.CacheHit {
			t.Errorf("repeat unit %s not a cache hit", u.Name)
		}
		if u.Code != ar.Results[i].Code {
			t.Errorf("cache returned different code for %s", u.Name)
		}
	}
}
