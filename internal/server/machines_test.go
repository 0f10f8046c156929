package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
)

// TestMachinesEndpoint: GET /v1/machines lists the whole zoo with
// descriptions and shapes; other methods are rejected.
func TestMachinesEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var mr MachinesResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	names := machines.Names()
	if len(mr.Machines) != len(names) {
		t.Fatalf("listing has %d machines, registry %d: %+v", len(mr.Machines), len(names), mr)
	}
	for i, mi := range mr.Machines {
		if mi.Name != names[i] {
			t.Errorf("listing[%d] = %q, want %q (registration order)", i, mi.Name, names[i])
		}
		if mi.Description == "" {
			t.Errorf("machine %q has no description", mi.Name)
		}
		if len(mi.Regs) != int(iloc.NumClasses) || mi.Regs[0] < 3 {
			t.Errorf("machine %q has a bad shape: %+v", mi.Name, mi)
		}
	}

	if status, _, _ := post(t, ts.URL+"/v1/machines", struct{}{}, nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/machines = %d, want 405", status)
	}
}

// TestUnknownMachineRejected: an unknown machine name is a 400 whose
// body names every registered machine, on both allocation endpoints and
// per-unit in a batch — the same contract unknown strategies get.
func TestUnknownMachineRejected(t *testing.T) {
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
		if er.Error == "" {
			t.Fatalf("empty error: %+v", er)
		}
		found := map[string]bool{}
		for _, n := range er.Machines {
			found[n] = true
		}
		for _, want := range machines.Names() {
			if !found[want] {
				t.Fatalf("error body lacks machine %q: %+v", want, er)
			}
		}
	}

	t.Run("allocate", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/allocate",
			AllocateRequest{ILOC: src, Options: &OptionsRequest{Machine: "vax"}}, nil)
		check(t, status, body)
	})
	t.Run("batch-default", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/batch",
			BatchRequest{Units: []BatchUnit{{ILOC: src}}, Options: &OptionsRequest{Machine: "vax"}}, nil)
		check(t, status, body)
	})
	t.Run("batch-per-unit", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/batch",
			BatchRequest{Units: []BatchUnit{{ILOC: src, Options: &OptionsRequest{Machine: "vax"}}}}, nil)
		check(t, status, body)
	})

	// A degenerate sweep point fails with the validator's story (no
	// listing — the spelling resolved, the machine is unusable).
	t.Run("degenerate-sweep", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/allocate",
			AllocateRequest{ILOC: src, Options: &OptionsRequest{Machine: "regs=1"}}, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d\n%s", status, body)
		}
	})

	// machine and regs in one options object contradict each other.
	t.Run("machine-and-regs", func(t *testing.T) {
		status, _, body := post(t, ts.URL+"/v1/allocate",
			AllocateRequest{ILOC: src, Options: &OptionsRequest{Machine: "standard", Regs: 8}}, nil)
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d\n%s", status, body)
		}
	})
}

// TestBatchMixedMachinesDiffer: one batch carrying the same routine on
// different per-unit machines returns per-machine code, and the shared
// cache keeps the entries separate on a repeat request.
func TestBatchMixedMachinesDiffer(t *testing.T) {
	ts := newTestServer(t, Config{})
	// A routine with enough pressure that a starved machine must spill
	// where a roomy one does not.
	spec, err := corpus.ParseSpec("count=1,seed=9,pressure=8,calls=-1")
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := units[0].Text

	req := BatchRequest{
		Options: &OptionsRequest{Machine: "embedded-8"},
		Units: []BatchUnit{
			{Name: "inherit", ILOC: src},
			{Name: "roomy", ILOC: src, Options: &OptionsRequest{Machine: "aarch64"}},
			{Name: "sweep", ILOC: src, Options: &OptionsRequest{Machine: "regs=6"}},
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
	if code["inherit"] == code["roomy"] {
		t.Fatal("embedded-8 and aarch64 returned identical code for a pressure-heavy routine")
	}
	if code["sweep"] == code["roomy"] {
		t.Fatal("regs=6 and aarch64 returned identical code for a pressure-heavy routine")
	}

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

// TestCorpusReplayServedAcrossZoo is the served-path acceptance test:
// a generated corpus of over a thousand routines goes through
// /v1/batch on three zoo machines — every unit 200-verified, zero
// errors — and the repeat pass is pure cache traffic per machine.
func TestCorpusReplayServedAcrossZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is the long acceptance path")
	}
	ts := newTestServer(t, Config{})
	spec, err := corpus.ParseSpec("count=600,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	cunits, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	routines := corpus.Routines(cunits)
	if len(routines) < 1000 {
		t.Fatalf("corpus yields %d routines, want >= 1000", len(routines))
	}
	var units []BatchUnit
	for _, rt := range routines {
		units = append(units, BatchUnit{Name: rt.Name, ILOC: iloc.Print(rt)})
	}

	for _, machine := range []string{"standard", "x86-64", "embedded-8"} {
		req := BatchRequest{Units: units, Options: &OptionsRequest{Machine: machine}}
		status, _, body := post(t, ts.URL+"/v1/batch", req, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d\n%.2000s", machine, status, body)
		}
		ar := decodeAllocate(t, body)
		if len(ar.Results) != len(units) {
			t.Fatalf("%s: %d results for %d units", machine, len(ar.Results), len(units))
		}
		for _, u := range ar.Results {
			if u.Error != "" {
				t.Fatalf("%s: %s: %s", machine, u.Name, u.Error)
			}
			if !u.Verified {
				t.Fatalf("%s: %s not verified", machine, u.Name)
			}
			if u.Degraded {
				t.Fatalf("%s: %s degraded (%s)", machine, u.Name, u.DegradeReason)
			}
		}
		// The first pass on each machine must miss: per-machine results
		// are isolated by cache key even for identical routine text.
		if ar.Stats.CacheHits != 0 {
			t.Fatalf("%s: %d cache hits on its first pass — keys leak across machines", machine, ar.Stats.CacheHits)
		}
	}

	req := BatchRequest{Units: units, Options: &OptionsRequest{Machine: "standard"}}
	status, _, body := post(t, ts.URL+"/v1/batch", req, nil)
	if status != http.StatusOK {
		t.Fatalf("replay status = %d", status)
	}
	ar := decodeAllocate(t, body)
	if ar.Stats.CacheHits != len(units) {
		t.Fatalf("replay: %d/%d cache hits, want all", ar.Stats.CacheHits, len(units))
	}
}

// TestResolveRejectsOversizedBank: a register count above
// target.MaxRegs is a client error in both spellings, caught before
// any allocator state is sized by it.
func TestResolveRejectsOversizedBank(t *testing.T) {
	for _, o := range []*OptionsRequest{{Regs: 1 << 30}, {Machine: "regs=1073741824"}} {
		if _, err := o.Resolve(DefaultOptions()); err == nil {
			t.Errorf("Resolve(%+v) accepted a 2^30-register bank", *o)
		}
	}
}
