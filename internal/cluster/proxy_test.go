package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/faultnet"
	"repro/internal/iloc"
	"repro/internal/server"
)

// unitSource generates a small, distinct, verifiable routine per index
// so batch tests get content keys that spread across the ring.
func unitSource(i int) string {
	return fmt.Sprintf(
		"routine unit%02d(r1)\nentry:\n getparam r1, 0\n ldi r2, %d\n add r3, r1, r2\n addi r3, r3, %d\n retr r3\n",
		i, i+1, 2*i+3)
}

// unitKey computes the routing key the proxy assigns unitSource(i) under
// the default key options — the same driver-cache key the backend uses.
func unitKey(t *testing.T, i int) string {
	t.Helper()
	rt, err := iloc.Parse(unitSource(i))
	if err != nil {
		t.Fatalf("unitSource(%d) does not parse: %v", i, err)
	}
	return string(driver.KeyFor(rt, server.DefaultOptions()))
}

// testCluster is a live proxy over n real rallocd backends, with a
// fault-injecting transport between them and a per-backend breaker
// transition log.
type testCluster struct {
	proxy    *Proxy
	front    *httptest.Server
	backends []*httptest.Server
	ids      []string // backend URL = ring ID, index-aligned with instance "b<i+1>"
	faults   *faultnet.Transport

	mu    sync.Mutex
	moves map[string][]string // ring ID -> transitions "from>to"
}

func (c *testCluster) recordMove(backend string, from, to BreakerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.moves[backend] = append(c.moves[backend], from.String()+">"+to.String())
}

func (c *testCluster) movesFor(backend string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.moves[backend]...)
}

// host strips the scheme from a ring ID for faultnet addressing.
func host(id string) string { return strings.TrimPrefix(id, "http://") }

// instanceOf maps a ring ID to the instance name its backend stamps on
// responses ("b1".."bN").
func (c *testCluster) instanceOf(t *testing.T, id string) string {
	t.Helper()
	for i, bid := range c.ids {
		if bid == id {
			return fmt.Sprintf("b%d", i+1)
		}
	}
	t.Fatalf("unknown backend id %q", id)
	return ""
}

// newTestCluster boots n rallocd instances (named b1..bn) behind a
// proxy whose upstream transport is fault-injectable. Probing is off by
// default; mod adjusts the config before construction.
func newTestCluster(t *testing.T, n int, mod func(*Config)) *testCluster {
	t.Helper()
	c := &testCluster{faults: faultnet.NewTransport(nil), moves: make(map[string][]string)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{InstanceID: fmt.Sprintf("b%d", i+1)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.backends = append(c.backends, ts)
		urls[i] = ts.URL
	}
	cfg := Config{
		Backends:         urls,
		ProbeInterval:    -1, // off unless the test turns it on
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Transport:        c.faults,
		OnBreakerTransition: func(backend string, from, to BreakerState) {
			c.recordMove(backend, from, to)
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.proxy = p
	p.Start()
	t.Cleanup(p.Close)
	c.ids = p.ring.Backends()
	c.front = httptest.NewServer(p.Handler())
	t.Cleanup(c.front.Close)
	return c
}

func postJSON(t *testing.T, url string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func decodeResponse(t *testing.T, body []byte) server.AllocateResponse {
	t.Helper()
	var ar server.AllocateResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	return ar
}

func TestProxyRoutingAndCacheLocality(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	req := server.AllocateRequest{ILOC: unitSource(0)}
	wantInstance := c.instanceOf(t, c.proxy.Owner(unitKey(t, 0)))

	var firstBackend string
	for round := 0; round < 4; round++ {
		status, hdr, body := postJSON(t, c.front.URL+"/v1/allocate", req, map[string]string{"X-Request-ID": "rt-1"})
		if status != http.StatusOK {
			t.Fatalf("round %d: status = %d\n%s", round, status, body)
		}
		ar := decodeResponse(t, body)
		if len(ar.Results) != 1 || ar.Results[0].Error != "" || !ar.Results[0].Verified {
			t.Fatalf("round %d: unit = %+v", round, ar.Results[0])
		}
		got := hdr.Get(server.BackendHeader)
		if got == "" || got != wantInstance {
			t.Fatalf("round %d: served by %q, ring owner is %q", round, got, wantInstance)
		}
		if ar.Results[0].Backend != got {
			t.Fatalf("round %d: body backend %q != header %q", round, ar.Results[0].Backend, got)
		}
		if hdr.Get("X-Request-ID") != "rt-1" {
			t.Fatalf("round %d: request id %q not echoed", round, hdr.Get("X-Request-ID"))
		}
		if a := hdr.Get("X-Ralloc-Proxy-Attempts"); a != "1" {
			t.Fatalf("round %d: attempts = %q, want 1", round, a)
		}
		if round == 0 {
			firstBackend = got
			continue
		}
		if got != firstBackend {
			t.Fatalf("routing not sticky: %q then %q", firstBackend, got)
		}
		// Same key, same backend: the repeat must hit that backend's
		// content-addressed cache — the locality the ring exists for.
		if !ar.Results[0].CacheHit {
			t.Fatalf("round %d: expected a cache hit on the sticky backend", round)
		}
	}
}

func TestProxyFailoverOnTransportFaults(t *testing.T) {
	cases := []struct {
		name string
		kind string
		arm  func(f *faultnet.Faults)
	}{
		{"5xx", faultnet.Kind5xx, func(f *faultnet.Faults) { f.Fail5xx(1) }},
		{"reset", faultnet.KindReset, func(f *faultnet.Faults) { f.ResetNext(1) }},
		{"truncate", faultnet.KindTruncate, func(f *faultnet.Faults) { f.TruncateNext(1, 32) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, nil)
			ownerID := c.proxy.Owner(unitKey(t, 0))
			f := c.faults.Host(host(ownerID))
			tc.arm(f)

			status, hdr, body := postJSON(t, c.front.URL+"/v1/allocate", server.AllocateRequest{ILOC: unitSource(0)}, nil)
			if status != http.StatusOK {
				t.Fatalf("status = %d\n%s", status, body)
			}
			if f.Injected(tc.kind) != 1 {
				t.Fatalf("fault %s fired %d times, want 1 (test vacuous)", tc.kind, f.Injected(tc.kind))
			}
			attempts, _ := strconv.Atoi(hdr.Get("X-Ralloc-Proxy-Attempts"))
			if attempts < 2 {
				t.Fatalf("attempts = %d, want >= 2 (failover)", attempts)
			}
			if got := hdr.Get(server.BackendHeader); got == c.instanceOf(t, ownerID) {
				t.Fatalf("response still served by the faulted owner %q", got)
			}
			ar := decodeResponse(t, body)
			if len(ar.Results) != 1 || !ar.Results[0].Verified {
				t.Fatalf("failover result not verified: %+v", ar.Results)
			}
		})
	}
}

func TestProxyRelaysSaturation429(t *testing.T) {
	// Three backends that are alive but fully saturated: the cluster's
	// answer must be the relayed 429 + Retry-After, never a 5xx, and
	// sheds must not trip breakers (saturation is health).
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"server saturated, retry later","retry_after_sec":7}`)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	p, err := New(Config{
		Backends:      urls,
		ProbeInterval: -1,
		MaxAttempts:   3, // one full cycle, then relay the shed
		RetryBase:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	status, hdr, body := postJSON(t, front.URL+"/v1/allocate", server.AllocateRequest{ILOC: unitSource(0)}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", status, body)
	}
	if hdr.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want the backend's 7", hdr.Get("Retry-After"))
	}
	for _, st := range p.Status() {
		if st.Breaker != "closed" {
			t.Fatalf("backend %s breaker %s after sheds; 429 must not count as failure", st.ID, st.Breaker)
		}
	}
}

func TestProxyShedsOnDeadlineBudget(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.RetryBase = 50 * time.Millisecond
		cfg.BreakerCooldown = 10 * time.Second
	})
	for _, id := range c.ids {
		c.faults.Host(host(id)).Partition()
	}
	start := time.Now()
	status, hdr, body := postJSON(t, c.front.URL+"/v1/allocate",
		server.AllocateRequest{ILOC: unitSource(0)},
		map[string]string{"X-Deadline-Ms": "200"})
	elapsed := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (never a 5xx)\n%s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if elapsed < 150*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("shed after %v; want the ~200ms budget honored", elapsed)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.RetryAfterSec < 1 {
		t.Fatalf("bad shed body: %v\n%s", err, body)
	}
}

// TestProxyBadDeadlineHeader: the proxy reads X-Deadline-Ms with the
// backend's parser, so the values rallocd rejects are rejected here.
func TestProxyBadDeadlineHeader(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	for _, h := range []string{"soon", "5s", "1e3"} {
		status, _, body := postJSON(t, c.front.URL+"/v1/allocate",
			server.AllocateRequest{ILOC: unitSource(0)},
			map[string]string{"X-Deadline-Ms": h})
		if status != http.StatusBadRequest {
			t.Fatalf("X-Deadline-Ms %q: status = %d, want 400\n%s", h, status, body)
		}
	}
}

func TestProxyRelaysBackend400(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	status, hdr, body := postJSON(t, c.front.URL+"/v1/allocate", server.AllocateRequest{ILOC: "not iloc at all"}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want the backend's 400\n%s", status, body)
	}
	if hdr.Get(server.BackendHeader) == "" {
		t.Fatal("relayed 400 lost the backend attribution header")
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "parse") {
		t.Fatalf("400 body not the backend's parse error: %s", body)
	}
}

func TestProxyOperationalSurface(t *testing.T) {
	c := newTestCluster(t, 3, nil)

	resp, err := http.Get(c.front.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/strategies = %d\n%s", resp.StatusCode, body)
	}
	var sl server.StrategiesResponse
	if err := json.Unmarshal(body, &sl); err != nil || len(sl.Strategies) == 0 {
		t.Fatalf("strategies listing empty or undecodable: %s", body)
	}

	resp, err = http.Get(c.front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var cs ClusterStatus
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatalf("bad /v1/cluster body: %v\n%s", err, body)
	}
	if !cs.Ready || len(cs.Backends) != 3 {
		t.Fatalf("cluster status = %+v", cs)
	}
	for _, b := range cs.Backends {
		if b.Breaker != "closed" || !b.Ready {
			t.Fatalf("backend status = %+v", b)
		}
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err = http.Get(c.front.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}

	c.proxy.SetReady(false)
	resp, err = http.Get(c.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	c.proxy.SetReady(true)

	resp, err = http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "proxy.backend.ready.") {
		t.Fatalf("/metrics missing per-backend gauges:\n%s", body)
	}
}

// batchOf builds an n-unit batch request from the synthetic routines.
func batchOf(n int) server.BatchRequest {
	req := server.BatchRequest{Units: make([]server.BatchUnit, n)}
	for i := range req.Units {
		req.Units[i] = server.BatchUnit{ILOC: unitSource(i)}
	}
	return req
}

// singleNodeCodes runs the same batch on one standalone backend and
// returns the per-unit allocated code — the reference the scattered
// cluster run must match byte for byte.
func singleNodeCodes(t *testing.T, n int) []string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{InstanceID: "solo"}).Handler())
	defer ts.Close()
	status, _, body := postJSON(t, ts.URL+"/v1/batch", batchOf(n), nil)
	if status != http.StatusOK {
		t.Fatalf("single-node reference run: status = %d\n%s", status, body)
	}
	ar := decodeResponse(t, body)
	codes := make([]string, len(ar.Results))
	for i, u := range ar.Results {
		if u.Error != "" || u.Code == "" {
			t.Fatalf("reference unit %d: %+v", i, u)
		}
		codes[i] = u.Code
	}
	return codes
}

// batchOwners returns the distinct ring owners of an n-unit batch.
func batchOwners(t *testing.T, c *testCluster, n int) []string {
	t.Helper()
	seen := make(map[string]bool)
	var owners []string
	for i := 0; i < n; i++ {
		id := c.proxy.Owner(unitKey(t, i))
		if !seen[id] {
			seen[id] = true
			owners = append(owners, id)
		}
	}
	return owners
}

func TestProxyBatchScatterMerge(t *testing.T) {
	const n = 9
	c := newTestCluster(t, 3, nil)
	owners := batchOwners(t, c, n)
	if len(owners) < 2 {
		t.Fatalf("batch of %d units maps to %d owner(s); the scatter path needs >= 2", n, len(owners))
	}
	ref := singleNodeCodes(t, n)

	status, hdr, body := postJSON(t, c.front.URL+"/v1/batch", batchOf(n), nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeResponse(t, body)
	if len(ar.Results) != n || ar.Stats.Routines != n {
		t.Fatalf("merged %d results, stats %+v; want %d units", len(ar.Results), ar.Stats, n)
	}
	served := make(map[string]bool)
	for i, u := range ar.Results {
		if u.Name != fmt.Sprintf("unit%02d", i) {
			t.Fatalf("unit %d out of order: %q", i, u.Name)
		}
		if u.Error != "" || !u.Verified {
			t.Fatalf("unit %d: %+v", i, u)
		}
		if u.Code != ref[i] {
			t.Fatalf("unit %d code differs from the single-node run:\n--- cluster ---\n%s\n--- solo ---\n%s", i, u.Code, ref[i])
		}
		if u.Backend == "" {
			t.Fatalf("unit %d lost its backend attribution", i)
		}
		served[u.Backend] = true
	}
	if len(served) < 2 {
		t.Fatalf("all units served by one backend %v; scatter did not spread", served)
	}
	if got := hdr.Get(server.BackendHeader); !strings.Contains(got, ",") {
		t.Fatalf("merged batch header %q should name the contributing backends", got)
	}
}

// TestProxyBatchFailoverByteIdentity kills one backend mid-/v1/batch
// (its response is truncated by the fault harness, the observable shape
// of a process dying while writing) and asserts the completed batch is
// byte-identical to a single-node run, with zero duplicated or lost
// units.
func TestProxyBatchFailoverByteIdentity(t *testing.T) {
	const n = 9
	c := newTestCluster(t, 3, nil)
	owners := batchOwners(t, c, n)
	if len(owners) < 2 {
		t.Fatalf("batch maps to %d owner(s); need a real scatter", len(owners))
	}
	ref := singleNodeCodes(t, n)

	// The victim owns the sub-batch containing unit 0; its next response
	// dies 48 bytes in — mid-body, after the status line was committed.
	victim := c.proxy.Owner(unitKey(t, 0))
	f := c.faults.Host(host(victim))
	f.TruncateNext(1, 48)

	status, _, body := postJSON(t, c.front.URL+"/v1/batch", batchOf(n), nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	if f.Injected(faultnet.KindTruncate) < 1 {
		t.Fatal("truncation never fired; the failover path was not exercised")
	}
	ar := decodeResponse(t, body)
	if len(ar.Results) != n {
		t.Fatalf("merged %d results, want %d (no lost or duplicated units)", len(ar.Results), n)
	}
	names := make(map[string]int)
	for i, u := range ar.Results {
		names[u.Name]++
		if u.Error != "" || !u.Verified {
			t.Fatalf("unit %d after failover: %+v", i, u)
		}
		if u.Code != ref[i] {
			t.Fatalf("unit %d code differs from single-node run after failover", i)
		}
	}
	for name, count := range names {
		if count != 1 {
			t.Fatalf("unit %q answered %d times; duplication", name, count)
		}
	}
}

// TestProxyChaosKillOneOfThree is the chaos gate in-process: three live
// backends under concurrent load, one partitioned away mid-run (the
// transport-level shape of SIGKILL) and later restarted. The cluster
// must answer only 200/429, every 200 must be verifier-clean, and the
// dead backend's breaker must observably open, then half-open and close
// on restart.
func TestProxyChaosKillOneOfThree(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 100 * time.Millisecond
	})
	victim := c.proxy.Owner(unitKey(t, 0))
	f := c.faults.Host(host(victim))

	var (
		mu       sync.Mutex
		badCodes []int
		unverif  int
		served   int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf, _ := json.Marshal(server.AllocateRequest{ILOC: unitSource((g*7 + i) % 6)})
				resp, err := client.Post(c.front.URL+"/v1/allocate", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Errorf("client error (the cluster must always answer): %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					served++
					var ar server.AllocateResponse
					if err := json.Unmarshal(body, &ar); err != nil || len(ar.Results) != 1 ||
						ar.Results[0].Error != "" || !ar.Results[0].Verified {
						unverif++
					}
				case http.StatusTooManyRequests:
					// Acceptable under chaos: saturated, retry later.
				default:
					badCodes = append(badCodes, resp.StatusCode)
				}
				mu.Unlock()
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	f.Partition() // SIGKILL: the victim vanishes mid-load
	time.Sleep(400 * time.Millisecond)
	f.Heal() // restart
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(badCodes) > 0 {
		t.Fatalf("non-200/429 responses under chaos: %v", badCodes)
	}
	if unverif > 0 {
		t.Fatalf("%d 200 responses were not verifier-clean", unverif)
	}
	if served == 0 {
		t.Fatal("no successful responses at all; load loop vacuous")
	}
	if f.Injected(faultnet.KindPartition) == 0 {
		t.Fatal("partition never fired; chaos vacuous")
	}

	// The breaker must have observably opened while the victim was dead,
	// then half-opened (and closed) once probes saw it return.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.proxy.Backend(victim).Breaker().State() == BreakerClosed {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st := c.proxy.Backend(victim).Breaker().State(); st != BreakerClosed {
		t.Fatalf("victim breaker %v after restart; probes should have closed it", st)
	}
	moves := c.movesFor(victim)
	var opened, halfOpened, reclosed bool
	for _, m := range moves {
		switch m {
		case "closed>open":
			opened = true
		case "open>half-open":
			if opened {
				halfOpened = true
			}
		case "half-open>closed":
			if halfOpened {
				reclosed = true
			}
		}
	}
	if !opened || !halfOpened || !reclosed {
		t.Fatalf("victim breaker transitions %v; want closed>open, then open>half-open, then half-open>closed", moves)
	}
	// Non-victim backends must not have tripped.
	for _, id := range c.ids {
		if id == victim {
			continue
		}
		if moves := c.movesFor(id); len(moves) != 0 {
			t.Fatalf("healthy backend %s breaker moved: %v", id, moves)
		}
	}
}
