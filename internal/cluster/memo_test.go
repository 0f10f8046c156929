package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/server"
	"repro/internal/store"
)

// postBytes posts body bytes as they are to url.
func postBytes(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// programBody is an allocate body holding several routines.
func programBody(t *testing.T) []byte {
	t.Helper()
	src, err := os.ReadFile("../../testdata/program.iloc")
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, server.AllocateRequest{ILOC: string(src)})
}

// sameCode fails unless two responses answer the same units with the
// same code, byte for byte.
func sameCode(t *testing.T, first, second server.AllocateResponse) {
	t.Helper()
	if len(first.Results) != len(second.Results) {
		t.Fatalf("repeat answered %d units, first %d", len(second.Results), len(first.Results))
	}
	for i, a := range first.Results {
		b := second.Results[i]
		if a.Error != "" || a.Code == "" || a.Name != b.Name || a.Code != b.Code || a.Verified != b.Verified {
			t.Fatalf("unit %d differs on the repeat:\n--- first ---\n%+v\n--- repeat ---\n%+v", i, a, b)
		}
	}
}

// TestRouteKeysMemo: the proxy's routing keys come from its memo on a
// repeat and equal KeyFor of every routine; the same bytes as another
// kind route by their raw hash, and a body that does not decode is
// never remembered.
func TestRouteKeysMemo(t *testing.T) {
	p, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := programBody(t)
	var req server.AllocateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	routines, err := iloc.ParseProgram(req.ILOC)
	if err != nil {
		t.Fatal(err)
	}
	var want []driver.Key
	for _, rt := range routines {
		want = append(want, driver.KeyFor(rt, server.DefaultOptions()))
	}
	raw := func(b []byte) []driver.Key {
		sum := sha256.Sum256(b)
		return []driver.Key{driver.Key(hex.EncodeToString(sum[:]))}
	}
	for try := 0; try < 2; try++ {
		if got := p.routeKeys(body, server.KindAllocate); !reflect.DeepEqual(got, want) {
			t.Fatalf("try %d: allocate keys %v, want %v", try, got, want)
		}
		if got := p.routeKeys(body, server.KindBatch); !reflect.DeepEqual(got, raw(body)) {
			t.Fatalf("try %d: an allocate body as a batch keys %v, want its raw hash", try, got)
		}
		bad := []byte(`{"iloc":"not iloc at all"}`)
		if got := p.routeKeys(bad, server.KindAllocate); !reflect.DeepEqual(got, raw(bad)) {
			t.Fatalf("try %d: a bad body keys %v, want its raw hash", try, got)
		}
	}
	if got := p.memo.Len(); got != 1 {
		t.Fatalf("proxy memo holds %d bodies, want 1", got)
	}
}

// TestProxyMemoRepeatAndBadBodies: through the proxy a repeat body is
// answered with the first answer's code, byte for byte; a bad body is
// the backend's 400 every time and never remembered; an oversized body
// is the proxy's own 400 with the message it always had.
func TestProxyMemoRepeatAndBadBodies(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	body := programBody(t)
	var answers []server.AllocateResponse
	for try := 0; try < 2; try++ {
		status, raw := postBytes(t, c.front.URL+"/v1/allocate", body)
		if status != http.StatusOK {
			t.Fatalf("try %d: status %d\n%s", try, status, raw)
		}
		answers = append(answers, decodeResponse(t, raw))
	}
	sameCode(t, answers[0], answers[1])

	bad := marshal(t, server.AllocateRequest{ILOC: "not iloc at all"})
	huge := marshal(t, server.AllocateRequest{ILOC: unitSource(0) + strings.Repeat("\n", server.MaxBodyBytes)})
	for _, b := range []struct {
		body []byte
		want string
	}{
		{bad, "parse"},
		{[]byte("{"), "bad request body"},
		{huge, "bad request body: http: request body too large"},
	} {
		for try := 0; try < 2; try++ {
			status, raw := postBytes(t, c.front.URL+"/v1/allocate", b.body)
			var er server.ErrorResponse
			_ = json.Unmarshal(raw, &er)
			if status != http.StatusBadRequest || !strings.Contains(er.Error, b.want) {
				t.Fatalf("try %d: status %d error %q, want 400 saying %q", try, status, er.Error, b.want)
			}
		}
	}
	if got := c.proxy.memo.Len(); got != 1 {
		t.Fatalf("proxy memo holds %d bodies, want 1", got)
	}
}

// TestProxyBatchScatterRepeat posts a batch whose units have several
// ring owners twice: the second, routed from the proxy's memo and cut
// from an explicit decode, answers as the first did.
func TestProxyBatchScatterRepeat(t *testing.T) {
	const n = 9
	c := newTestCluster(t, 3, nil)
	if owners := batchOwners(t, c, n); len(owners) < 2 {
		t.Fatalf("batch of %d units maps to %d owner(s); the scatter path needs >= 2", n, len(owners))
	}
	body := marshal(t, batchOf(n))
	var answers []server.AllocateResponse
	for try := 0; try < 2; try++ {
		status, raw := postBytes(t, c.front.URL+"/v1/batch", body)
		if status != http.StatusOK {
			t.Fatalf("try %d: status %d\n%s", try, status, raw)
		}
		answers = append(answers, decodeResponse(t, raw))
	}
	sameCode(t, answers[0], answers[1])
	for i, u := range answers[1].Results {
		if !u.CacheHit || u.Backend != answers[0].Results[i].Backend {
			t.Fatalf("unit %d repeat: hit %t on %q, first served by %q", i, u.CacheHit, u.Backend, answers[0].Results[i].Backend)
		}
	}
	if got := c.proxy.memo.Len(); got != 1 {
		t.Fatalf("proxy memo holds %d bodies, want 1", got)
	}
}

// TestProxyMemoEvictedAndConcurrent: behind the proxy, a backend whose
// one-entry cache lost a remembered body's results decodes it again and
// answers with the same code, while many clients post it at once.
func TestProxyMemoEvictedAndConcurrent(t *testing.T) {
	backend := httptest.NewServer(server.New(server.Config{InstanceID: "b1", Store: store.NewTiered(driver.NewCache(1), nil), MaxQueue: 64}).Handler())
	t.Cleanup(backend.Close)
	p, err := New(Config{Backends: []string{backend.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	body := programBody(t)
	evict := marshal(t, server.AllocateRequest{ILOC: unitSource(1)})
	status, raw := postBytes(t, front.URL+"/v1/allocate", body)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	first := decodeResponse(t, raw)
	var (
		mu      sync.Mutex
		answers []server.AllocateResponse
		wg      sync.WaitGroup
	)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := body
			if g%3 == 2 {
				b = evict
			}
			resp, err := http.Post(front.URL+"/v1/allocate", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var ar server.AllocateResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("status %d, body: %v", resp.StatusCode, err)
				return
			}
			if g%3 != 2 {
				mu.Lock()
				answers = append(answers, ar)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, ar := range answers {
		sameCode(t, first, ar)
	}
	if got := p.memo.Len(); got != 2 {
		t.Fatalf("proxy memo holds %d bodies, want 2", got)
	}
}

// routeKeySink keeps the compiler from dropping the measured calls.
var routeKeySink []driver.Key

// BenchmarkRouteKeys times the proxy's routing keys for the serve-warm
// bodies (corpus count=256,seed=3), each routed once before timing.
func BenchmarkRouteKeys(b *testing.B) {
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(units))
	for i, u := range units {
		bodies[i] = marshal(b, server.AllocateRequest{ILOC: u.Text})
		p.routeKeys(bodies[i], server.KindAllocate)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeKeySink = p.routeKeys(bodies[i%len(bodies)], server.KindAllocate)
	}
}
