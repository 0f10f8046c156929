// Package cluster is the resilient multi-backend layer of the
// allocation service: a routing proxy (cmd/rallocproxy) that spreads
// /v1/allocate and /v1/batch traffic over a set of rallocd backends by
// consistent-hashing the same content key the driver's result cache
// uses — so every repeat of a (routine, options) pair lands on the
// backend already holding its cached result — wrapped in the failure
// machinery one process cannot provide for itself:
//
//   - Replicated ring placement. A key's failover sequence is the next
//     distinct backends clockwise, so a dead owner's keys concentrate
//     on one successor (which then warms up for them) instead of
//     scattering.
//   - Health. Active /readyz probes per backend plus passive failure
//     accounting from live traffic; a draining or dead backend stops
//     receiving requests within one probe interval.
//   - Circuit breakers. Per backend, closed → open on consecutive
//     failures, half-open probes after a cooldown; a dead backend
//     costs one request per cooldown, not one per arrival.
//   - Bounded retries. Allocation requests are idempotent (pure
//     computation), so transport failures, truncated bodies and 5xx
//     answers fail over along the ring; full cycles back off
//     exponentially with jitter and honor the largest Retry-After a
//     backend sent. Every attempt runs inside the request's deadline
//     budget — retrying never outlives the client's patience.
//   - The cluster contract: the proxy answers 200 (a verified
//     allocation), a backend's own 4xx (deterministic client error),
//     or 429 + Retry-After (cluster saturated or unavailable). It
//     never hangs and never invents a 5xx under load.
//
// The fault-injection harness in internal/faultnet drives this layer's
// `-race` tests; scripts/cluster_smoke.sh kills a live backend under
// load and asserts the contract end to end.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Config configures a Proxy. Backends is required; every other field
// has a production-shaped default.
type Config struct {
	// Backends are the rallocd base URLs ("http://host:port"). At
	// least one is required; duplicates collapse.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (<= 0: 64).
	VNodes int
	// FailoverReplicas bounds how many distinct backends one request
	// may try (<= 0: all of them).
	FailoverReplicas int
	// MaxAttempts bounds total upstream tries per request across all
	// retry cycles (<= 0: max(4, 2*len(Backends))).
	MaxAttempts int
	// RetryBase/RetryMax shape the between-cycle exponential backoff
	// (defaults 25ms / 1s). Jitter is added on top; a backend's
	// Retry-After wins when larger.
	RetryBase time.Duration
	RetryMax  time.Duration
	// ProbeInterval is the active health-probe period (0: 500ms;
	// < 0 disables active probing).
	ProbeInterval time.Duration
	// BreakerThreshold consecutive failures open a backend's breaker
	// (<= 0: 3); BreakerCooldown is the open → half-open delay
	// (<= 0: 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Limits are the request deadlines, as rallocd's.
	server.Limits
	// Transport performs the upstream requests (nil:
	// http.DefaultTransport). The fault-injection tests hook
	// faultnet.Transport here.
	Transport http.RoundTripper
	// Telemetry receives proxy counters and histograms. A nil sink
	// gets a fresh metrics registry so /metrics always serves.
	Telemetry *telemetry.Sink
	// OnBreakerTransition observes every breaker state change —
	// rallocproxy logs them, the chaos tests assert them.
	OnBreakerTransition func(backend string, from, to BreakerState)
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2 * len(c.Backends)
		if c.MaxAttempts < 4 {
			c.MaxAttempts = 4
		}
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	c.Limits = c.Limits.WithDefaults()
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Telemetry == nil {
		c.Telemetry = &telemetry.Sink{Metrics: telemetry.NewRegistry()}
	} else if c.Telemetry.Metrics == nil {
		t := *c.Telemetry
		t.Metrics = telemetry.NewRegistry()
		c.Telemetry = &t
	}
	return c
}

// Proxy is the consistent-hash routing proxy. Construct with New,
// call Start to launch the health probers, Close to stop them. Safe
// for concurrent use.
type Proxy struct {
	cfg      Config
	ring     *Ring
	memo     *server.Memo
	shell    *server.Shell
	backends map[string]*Backend
	client   *http.Client
	mux      *http.ServeMux

	ready atomic.Bool

	// jobOwner maps a job ID to the backend that accepted it (bounded
	// FIFO; see jobs.go).
	jobMu    sync.Mutex
	jobOwner map[string]string
	jobFIFO  []string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Proxy over the configured backends.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	p := &Proxy{
		cfg:      cfg,
		memo:     server.NewMemo(server.DefaultOptions()),
		shell:    server.NewShell("proxy", cfg.Telemetry),
		backends: make(map[string]*Backend),
		client:   &http.Client{Transport: cfg.Transport},
		stop:     make(chan struct{}),
		jobOwner: make(map[string]string),
	}
	var ids []string
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", raw)
		}
		id := u.String()
		if _, dup := p.backends[id]; dup {
			continue
		}
		b := newBackend(id, u, cfg.BreakerThreshold, cfg.BreakerCooldown)
		tel := cfg.Telemetry
		hook := cfg.OnBreakerTransition
		bid := id
		b.breaker.OnTransition(func(from, to BreakerState) {
			tel.Count("proxy.breaker."+strings.ReplaceAll(to.String(), "-", "_"), 1)
			if hook != nil {
				hook(bid, from, to)
			}
		})
		p.backends[id] = b
		ids = append(ids, id)
	}
	p.ring = NewRing(ids, cfg.VNodes)
	p.ready.Store(true)

	p.mux = http.NewServeMux()
	// The allocation endpoints run in the same request shell as
	// rallocd's; the job GET forwards stay outside it, since their
	// NDJSON relay flushes through the ResponseWriter.
	p.mux.Handle("/v1/allocate", p.shell.Wrap("proxy/v1/allocate", p.handleAllocate))
	p.mux.Handle("/v1/batch", p.shell.Wrap("proxy/v1/batch", p.handleBatch))
	p.mux.Handle("POST /v1/jobs", p.shell.Wrap("proxy/v1/jobs", p.handleJobSubmit))
	p.mux.HandleFunc("GET /v1/jobs/{id}", p.handleJobForward)
	p.mux.HandleFunc("GET /v1/jobs/{id}/results", p.handleJobForward)
	p.mux.HandleFunc("DELETE /v1/jobs/{id}", p.handleJobForward)
	p.mux.HandleFunc("/v1/audit", server.Only(http.MethodGet, p.handleAudit))
	p.mux.HandleFunc("/v1/strategies", server.Only(http.MethodGet, p.handleForwardGET))
	p.mux.HandleFunc("/v1/machines", server.Only(http.MethodGet, p.handleForwardGET))
	p.mux.HandleFunc("/v1/cluster", server.Only(http.MethodGet, p.handleCluster))
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/readyz", p.handleReadyz)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	return p, nil
}

// Handler returns the proxy's HTTP handler tree.
func (p *Proxy) Handler() http.Handler { return p.mux }

// SetReady flips the /readyz verdict; the daemon clears it when a
// cluster drain begins.
func (p *Proxy) SetReady(ready bool) { p.ready.Store(ready) }

// Start launches the active health probers (no-op when probing is
// disabled). Pair with Close.
func (p *Proxy) Start() {
	if p.cfg.ProbeInterval < 0 {
		return
	}
	for _, b := range p.backends {
		b := b
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			ticker := time.NewTicker(p.cfg.ProbeInterval)
			defer ticker.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-ticker.C:
					b.probe(context.Background(), p.client, probeTimeout(p.cfg.ProbeInterval))
				}
			}
		}()
	}
}

// probeTimeout bounds one health probe: the probe interval, floored so
// very tight test intervals still give the backend a chance to answer.
func probeTimeout(interval time.Duration) time.Duration {
	if interval < 100*time.Millisecond {
		return 100 * time.Millisecond
	}
	return interval
}

// Close stops the probers and waits for them.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Backend returns the backend with the given ID (its base URL), for
// tests and status inspection.
func (p *Proxy) Backend(id string) *Backend { return p.backends[id] }

// Owner returns the backend ID owning a routing key.
func (p *Proxy) Owner(key string) string { return p.ring.Owner(key) }

// routeKeys returns the routing keys of a request body of the given
// kind: each unit's driver-cache content key under the serving default
// options — the address the backend will cache the unit under. The
// proxy's memo answers a body it has routed before without decoding
// it; a new body is decoded by the backend's own decoder (DecodeUnits)
// and keyed by KeyFor. A body that does not decode routes whole by the
// hash of its bytes (one key); the backend produces the authoritative
// 400.
func (p *Proxy) routeKeys(body []byte, kind server.Kind) []driver.Key {
	keys, err := p.memo.Keys(kind, body)
	if err != nil {
		sum := sha256.Sum256(body)
		return []driver.Key{driver.Key(hex.EncodeToString(sum[:]))}
	}
	return keys
}

// --- request handling ---

func (p *Proxy) handleAllocate(w http.ResponseWriter, r *http.Request, info *server.RequestInfo) {
	// Keyed by the first routine alone: the callees of a multi-routine
	// program follow it to the same backend.
	p.routeOne(w, r, info.ID, info.Body, string(p.routeKeys(info.Body, server.KindAllocate)[0]), nil)
}

// routeOne relays one request to the ring with failover and answers
// with whatever coherent response the cluster produced. id is the
// request ID every attempt forwards; onAnswer, when non-nil, sees the
// backend's answer before it is relayed.
func (p *Proxy) routeOne(w http.ResponseWriter, r *http.Request, id string, body []byte, key string, onAnswer func(*upstreamResponse)) {
	ctx, cancel, ok := p.budget(w, r, id)
	if !ok {
		return
	}
	defer cancel()

	ur, err := p.do(ctx, r.Method, r.URL.Path, r.Header, id, body, key)
	if err != nil {
		p.shed(w, id, err)
		return
	}
	if onAnswer != nil {
		onAnswer(ur)
	}
	p.relay(w, ur)
}

// budget derives the request's deadline-budget context from its
// X-Deadline-Ms header; the budget covers every retry the request
// makes. A malformed header is answered 400 and ok is false.
func (p *Proxy) budget(w http.ResponseWriter, r *http.Request, id string) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	deadline, ok := server.ParseDeadline(r, p.cfg.DefaultDeadline, p.cfg.MaxDeadline)
	if !ok {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: "bad X-Deadline-Ms header", RequestID: id})
		return nil, nil, false
	}
	ctx, cancel = context.WithTimeout(r.Context(), deadline)
	return ctx, cancel, true
}

// upstreamResponse is one fully-read backend answer.
type upstreamResponse struct {
	status   int
	header   http.Header
	body     []byte
	backend  *Backend
	attempts int
}

var (
	errExhausted   = errors.New("cluster: retry attempts exhausted")
	errUnavailable = errors.New("cluster: no backend available")
	errBudget      = errors.New("cluster: request deadline budget exhausted")
)

// do runs the attempt loop: walk the key's failover sequence, skipping
// unready backends and refused breakers; fail over on transport
// errors, truncated bodies and 5xx; collect 429s and move on; between
// full cycles, back off exponentially with jitter, honoring the
// largest Retry-After a backend sent. Returns the first conclusive
// response (2xx/4xx, or the last 429 when every backend is shedding),
// or an error once attempts or the deadline budget run out.
func (p *Proxy) do(ctx context.Context, method, path string, hdr http.Header, reqID string, body []byte, key string) (*upstreamResponse, error) {
	tel := p.cfg.Telemetry
	seq := p.ring.Sequence(key, p.cfg.FailoverReplicas)
	if len(seq) == 0 {
		return nil, errUnavailable
	}
	var (
		attempts   int
		lastShed   *upstreamResponse
		retryAfter time.Duration
		backoff    = p.cfg.RetryBase
	)
	for {
		anyReady := false
		for _, id := range seq {
			if p.backends[id].Ready() {
				anyReady = true
				break
			}
		}
		for _, id := range seq {
			if ctx.Err() != nil {
				if lastShed != nil {
					return lastShed, nil
				}
				return nil, errBudget
			}
			if attempts >= p.cfg.MaxAttempts {
				if lastShed != nil {
					return lastShed, nil
				}
				return nil, errExhausted
			}
			b := p.backends[id]
			// Skip unready backends while a ready one exists; if the
			// prober has marked everything down, try the ring order
			// anyway rather than refusing without an attempt.
			if !b.Ready() && anyReady {
				continue
			}
			if !b.breaker.Allow() {
				continue
			}
			attempts++
			if attempts > 1 {
				tel.Count("proxy.retries", 1)
			}
			b.requests.Add(1)
			ur, err := p.try(ctx, b, method, path, hdr, reqID, body)
			if err != nil {
				tel.Count("proxy.upstream.errors", 1)
				b.noteFailure()
				b.breaker.Failure()
				continue
			}
			ur.attempts = attempts
			switch {
			case ur.status == http.StatusTooManyRequests:
				// Alive but saturated: health for the breaker, a
				// failover cue for routing.
				b.breaker.Success()
				tel.Count("proxy.upstream.shed", 1)
				if ra := parseRetryAfter(ur.header); ra > retryAfter {
					retryAfter = ra
				}
				lastShed = ur
				continue
			case ur.status >= 500:
				tel.Count("proxy.upstream.5xx", 1)
				b.noteFailure()
				b.breaker.Failure()
				continue
			default:
				b.breaker.Success()
				return ur, nil
			}
		}
		if attempts >= p.cfg.MaxAttempts {
			if lastShed != nil {
				return lastShed, nil
			}
			return nil, errExhausted
		}
		// One full cycle failed. Wait out the backoff (or the largest
		// Retry-After a backend asked for) inside the budget, then go
		// around — a breaker cooldown may have elapsed, a probe may
		// have restored a backend.
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if retryAfter > wait {
			wait = retryAfter
		}
		select {
		case <-ctx.Done():
			if lastShed != nil {
				return lastShed, nil
			}
			return nil, errBudget
		case <-time.After(wait):
		}
		backoff *= 2
		if backoff > p.cfg.RetryMax {
			backoff = p.cfg.RetryMax
		}
		retryAfter = 0
	}
}

// try performs one upstream attempt, reading the whole response body
// so mid-body truncation surfaces here as a retriable error. The
// attempt carries the client's Content-Type and Accept and, as
// X-Request-ID, the request's ID.
func (p *Proxy) try(ctx context.Context, b *Backend, method, path string, hdr http.Header, reqID string, body []byte) (*upstreamResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base.String()+path, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	// The backend gets what is left of the budget, so its own deadline
	// degradation engages before the proxy's budget dies.
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s response: %w", b.id, err)
	}
	return &upstreamResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: data, backend: b}, nil
}

// parseRetryAfter reads a delay-seconds Retry-After value (the only
// form rallocd sends); absent or unparseable is zero.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// copyContract copies the headers that carry the serving contract from
// a backend's answer to the client's.
func copyContract(dst, src http.Header) {
	for _, h := range []string{"Content-Type", "X-Request-ID", server.BackendHeader, "Retry-After"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// relay copies a backend answer to the client.
func (p *Proxy) relay(w http.ResponseWriter, ur *upstreamResponse) {
	copyContract(w.Header(), ur.header)
	w.Header().Set("X-Ralloc-Proxy-Attempts", strconv.Itoa(ur.attempts))
	w.WriteHeader(ur.status)
	w.Write(ur.body)
}

// shed answers a request the cluster could not serve: always 429 +
// Retry-After, never a 5xx — the cluster-level mirror of the backend's
// admission contract. err says why (budget, exhausted, unavailable).
func (p *Proxy) shed(w http.ResponseWriter, id string, err error) {
	server.WriteShed(w, "cluster cannot serve the request now: "+err.Error(), id)
	p.cfg.Telemetry.Count("proxy.shed", 1)
}

// --- batch scatter-gather ---

func (p *Proxy) handleBatch(w http.ResponseWriter, r *http.Request, info *server.RequestInfo) {
	body := info.Body

	// Each unit routes by its own content key. A body that does not
	// decode has one raw key, so it relays whole to one owner.
	keys := p.routeKeys(body, server.KindBatch)

	// Group unit indices by ring owner. One owner: the whole batch
	// relays as-is (with failover); several: scatter sub-batches and
	// merge, preserving input order.
	groups := make(map[string][]int)
	for i, key := range keys {
		owner := p.ring.Owner(string(key))
		groups[owner] = append(groups[owner], i)
	}
	// Several owners means the body decoded, so the sub-batches can be
	// cut from it; a failure here is the backend's 400 to give.
	var req server.BatchRequest
	if len(groups) == 1 || server.DecodeBody(bytes.NewReader(body), &req) != nil {
		p.routeOne(w, r, info.ID, body, string(keys[0]), nil)
		return
	}
	p.scatter(w, r, info.ID, &req, keys, groups)
}

// scatter fans a batch's unit groups out to their ring owners
// concurrently, each with the full failover machinery, and merges the
// sub-responses back into input order. Every unit lands in exactly one
// sub-batch and every sub-response must answer exactly its units, so
// units cannot be duplicated or lost — a sub-batch that cannot be
// served conclusively fails the whole request (as a 429 or a relayed
// backend error), never a partial merge. Every sub-batch carries the
// request's ID, reqID.
func (p *Proxy) scatter(w http.ResponseWriter, r *http.Request, reqID string, req *server.BatchRequest, keys []driver.Key, groups map[string][]int) {
	p.cfg.Telemetry.Count("proxy.scatter", 1)
	ctx, cancel, ok := p.budget(w, r, reqID)
	if !ok {
		return
	}
	defer cancel()

	type subResult struct {
		idxs []int
		ur   *upstreamResponse
		err  error
	}
	results := make(chan subResult, len(groups))
	for _, idxs := range groups {
		go func() {
			sub := server.BatchRequest{Units: make([]server.BatchUnit, len(idxs)), Options: req.Options}
			for j, i := range idxs {
				sub.Units[j] = req.Units[i]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				results <- subResult{idxs: idxs, err: err}
				return
			}
			// The group key is its first unit's key: the ring maps it
			// to this owner, and failover walks the owner's successors.
			ur, err := p.do(ctx, http.MethodPost, "/v1/batch", r.Header, reqID, body, string(keys[idxs[0]]))
			results <- subResult{idxs: idxs, ur: ur, err: err}
		}()
	}

	merged := server.AllocateResponse{RequestID: reqID, Results: make([]server.UnitResponse, len(req.Units))}
	filled := make([]bool, len(req.Units))
	backends := make(map[string]bool)
	var subErr error
	var subBad *upstreamResponse
	for range groups {
		sr := <-results
		switch {
		case sr.err != nil:
			subErr = sr.err
		case sr.ur.status != http.StatusOK:
			subBad = sr.ur
		default:
			var ar server.AllocateResponse
			if err := json.Unmarshal(sr.ur.body, &ar); err != nil {
				subErr = fmt.Errorf("undecodable sub-batch response: %w", err)
				continue
			}
			if len(ar.Results) != len(sr.idxs) {
				subErr = fmt.Errorf("sub-batch answered %d units, want %d", len(ar.Results), len(sr.idxs))
				continue
			}
			backendID := sr.ur.header.Get(server.BackendHeader)
			for j, i := range sr.idxs {
				u := ar.Results[j]
				if u.Backend == "" {
					u.Backend = backendID
				}
				merged.Results[i] = u
				filled[i] = true
			}
			if backendID != "" {
				backends[backendID] = true
			}
			mergeStats(&merged.Stats, ar.Stats)
		}
	}
	if subErr != nil {
		p.shed(w, reqID, fmt.Errorf("sub-batch failed: %w", subErr))
		return
	}
	if subBad != nil {
		// A deterministic backend verdict (4xx) for part of the batch:
		// relay it — retrying cannot change it, and inventing a merged
		// answer would hide it.
		p.relay(w, subBad)
		return
	}
	for i, okFilled := range filled {
		if !okFilled {
			p.shed(w, reqID, fmt.Errorf("unit %d unanswered after merge", i))
			return
		}
	}
	ids := make([]string, 0, len(backends))
	for id := range backends {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Header().Set(server.BackendHeader, strings.Join(ids, ","))
	server.WriteJSON(w, http.StatusOK, merged)
}

// mergeStats folds one sub-batch's stats into the merged response:
// counts add, wall time is the slowest sub-batch (they ran
// concurrently), CPU adds.
func mergeStats(dst *server.BatchStats, src server.BatchStats) {
	dst.Routines += src.Routines
	dst.Failed += src.Failed
	dst.Degraded += src.Degraded
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.CacheDiskHits += src.CacheDiskHits
	if src.Workers > dst.Workers {
		dst.Workers = src.Workers
	}
	if src.WallMs > dst.WallMs {
		dst.WallMs = src.WallMs
	}
	dst.CPUMs += src.CPUMs
}

// --- operational surface ---

// handleForwardGET relays a read-only endpoint (GET /v1/strategies,
// GET /v1/machines) to any available backend — the listing is
// identical cluster-wide.
func (p *Proxy) handleForwardGET(w http.ResponseWriter, r *http.Request) {
	p.routeOne(w, r, r.Header.Get("X-Request-ID"), nil, r.URL.Path, nil)
}

// handleCluster reports the cluster's shape: ring backends in failover
// health, breaker states, probe and failure counts.
func (p *Proxy) handleCluster(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, ClusterStatus{Ready: p.ready.Load(), Backends: p.Status()})
}

// ClusterStatus is the GET /v1/cluster body.
type ClusterStatus struct {
	Ready    bool            `json:"ready"`
	Backends []BackendStatus `json:"backends"`
}

// Status snapshots every backend in ring registration order.
func (p *Proxy) Status() []BackendStatus {
	ids := p.ring.Backends()
	out := make([]BackendStatus, len(ids))
	for i, id := range ids {
		out[i] = p.backends[id].status()
	}
	return out
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the cluster-drain surface: 503 once SetReady(false)
// (the proxy stops advertising before in-flight work finishes), and
// 503 while no backend is ready (routing would only shed).
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !p.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	for _, b := range p.backends {
		if b.Ready() {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no backend ready")
}

// handleMetrics refreshes the per-backend gauges and dumps the
// registry in the flat "name value" format the rest of the repo uses.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := p.cfg.Telemetry.Metrics
	for _, id := range p.ring.Backends() {
		b := p.backends[id]
		name := metricName(id)
		ready := int64(0)
		if b.Ready() {
			ready = 1
		}
		reg.Gauge("proxy.backend.ready." + name).Set(ready)
		reg.Gauge("proxy.backend.breaker." + name).Set(int64(b.breaker.State()))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = reg.WriteTo(w)
}

// metricName flattens a backend URL into a metric-name-safe label.
func metricName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, id)
}
