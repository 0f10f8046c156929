// Package server is the allocation service: a stdlib-only HTTP layer
// that turns the batch driver into a long-running daemon (cmd/rallocd)
// fit for sustained traffic. It exposes the allocator as
// POST /v1/allocate and POST /v1/batch backed by one shared
// driver.Engine and content-addressed result cache (with
// GET /v1/strategies listing the registered allocation strategies a
// request may select), and wraps every request in the production
// behaviors the one-shot CLIs never needed:
//
//   - Admission control. A bounded queue fronts the worker slots; a
//     request that finds the queue full is shed immediately with
//     429 + Retry-After instead of piling onto the run queue. Under
//     saturation the service answers only 200 or 429 — never a hang,
//     never an overload 5xx.
//   - Deadlines. Each request runs under a context deadline taken from
//     the X-Deadline-Ms header, clamped to a server maximum. The
//     deadline is threaded through driver.Engine.Run into
//     core.Allocate, which checks it between pipeline passes; on expiry
//     the response carries the guaranteed-terminating spill-everywhere
//     degradation with reason "deadline" rather than timing out empty.
//   - Request identity. Every request gets an ID (client-supplied
//     X-Request-ID, or minted unique across processes), echoed in the
//     response header and body, stamped on its audit records and
//     attached to the request's telemetry span on its own trace
//     thread. Behind rallocproxy the ID is the one the proxy forwards.
//   - Panic isolation. The allocator contains its own panics; the
//     serving layer adds a second boundary so a handler bug fails one
//     request with a 500, never the process.
//   - Operational surface. /healthz (liveness), /readyz (readiness,
//     flipped off during drain), /metrics (the telemetry registry's
//     flat dump), and /debug/pprof + /debug/vars.
//
// Request identity and panic isolation live in the request shell
// (Shell, in request.go), which rallocproxy mounts its allocation
// endpoints in too.
package server

import (
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// Config configures a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// Options is the default allocation configuration; request options
	// merge over it. A zero Options gets the standard machine, the remat
	// strategy and Verify on — the serving default is verified allocations.
	Options core.Options
	// Workers bounds each batch's worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Store is the shared content-addressed result cache; nil builds an
	// unbounded memory-only one. Its per-tier stats feed the store.*
	// gauges on /metrics, and its disk tier, if it has one, is exported
	// via GET /v1/cache/bundle. Deadline-degraded results are never
	// cached.
	Store *store.Tiered
	// MaxInFlight bounds requests allocating concurrently (<= 0:
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot beyond MaxInFlight;
	// a request arriving with the queue full is shed with 429
	// (< 0: no queue — shed whenever all slots are busy; 0: default
	// 4*MaxInFlight).
	MaxQueue int
	// Limits are the request deadlines.
	Limits
	// Audit, when non-nil, receives one record per allocation verdict —
	// sync and async paths alike. The server never closes it; the
	// daemon that built the logger flushes and closes it on shutdown.
	Audit *audit.Logger
	// MaxJobs bounds queued+running async jobs; a POST /v1/jobs beyond
	// it sheds with 429 (0: 64).
	MaxJobs int
	// JobRetention is how long a finished job's results stay pollable
	// (0: 15m); MaxRetainedJobs bounds finished jobs kept regardless of
	// age (0: 256).
	JobRetention    time.Duration
	MaxRetainedJobs int
	// Telemetry receives request spans, admission metrics and the
	// allocator/driver instrumentation. A nil sink gets a fresh metrics
	// registry (no tracer) so /metrics always serves.
	Telemetry *telemetry.Sink
	// InstanceID names this server instance; it is stamped on every
	// response as the X-Ralloc-Backend header (and per-unit in batch
	// bodies) so results can be attributed through the routing proxy.
	// Empty derives "<hostname>-<pid>".
	InstanceID string
}

// DefaultOptions is the serving default allocation configuration: the
// standard machine, the paper's remat strategy, and the independent
// verifier on. The routing proxy uses the same value to compute
// routing keys, so proxy and backend agree on request identity.
func DefaultOptions() core.Options {
	return core.Options{Machine: target.Standard(), Strategy: "remat", Verify: true}
}

func (c Config) withDefaults() Config {
	if c.Options == (core.Options{}) {
		c.Options = DefaultOptions()
	}
	if c.InstanceID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "rallocd"
		}
		c.InstanceID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxInFlight
	}
	c.Limits = c.Limits.WithDefaults()
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 256
	}
	if c.Store == nil {
		c.Store = store.NewTiered(driver.NewCache(0), nil)
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

// Server is the allocation service. Construct with New; the zero value
// is not useful. A Server is safe for concurrent use — its only
// mutable state is the admission channels, the request shell's
// counter, the readiness flag and the request memo.
type Server struct {
	cfg    Config
	engine *driver.Engine
	memo   *Memo
	shell  *Shell
	jobs   *jobs.Manager
	mux    *http.ServeMux

	// Admission: a request first takes a queue token (shed on failure),
	// then waits for a run slot. Channel capacities are the bounds.
	slots chan struct{}
	queue chan struct{}

	ready    atomic.Bool
	inflight atomic.Int64
}

// New builds a Server and its HTTP handler tree.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		engine: driver.New(driver.Config{
			Options:   cfg.Options,
			Workers:   cfg.Workers,
			Cache:     cfg.Store,
			Telemetry: cfg.Telemetry,
		}),
		memo:  NewMemo(cfg.Options),
		shell: NewShell("server", cfg.Telemetry),
		slots: make(chan struct{}, cfg.MaxInFlight),
		queue: make(chan struct{}, cfg.MaxInFlight+cfg.MaxQueue),
	}
	s.ready.Store(true)

	// The async job manager runs batches through a per-job engine over
	// the same cache, drawing run slots from the same admission pool as
	// the sync paths (jobGate), with audit emission per unit verdict.
	s.jobs, _ = jobs.NewManager(jobs.Config{
		Run:         s.runJobUnits,
		Gate:        s.jobGate,
		MaxActive:   cfg.MaxJobs,
		Retention:   cfg.JobRetention,
		MaxRetained: cfg.MaxRetainedJobs,
		OnUnitDone:  s.auditJobUnit,
		Telemetry:   cfg.Telemetry,
	})

	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/allocate", s.shell.Wrap("/v1/allocate", s.handleSync(KindAllocate)))
	s.mux.Handle("/v1/batch", s.shell.Wrap("/v1/batch", s.handleSync(KindBatch)))
	s.mux.Handle("POST /v1/jobs", s.shell.Wrap("/v1/jobs", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("/v1/audit", Only(http.MethodGet, s.handleAudit))
	s.mux.HandleFunc("/v1/strategies", Only(http.MethodGet, s.handleStrategies))
	s.mux.HandleFunc("/v1/machines", Only(http.MethodGet, s.handleMachines))
	s.mux.HandleFunc("/v1/cache/bundle", Only(http.MethodGet, s.handleBundle))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler tree, ready to mount on an
// http.Server (or httptest). Every response — allocations, health,
// metrics, errors — carries the X-Ralloc-Backend header naming this
// instance, so anything observed through the routing proxy can be
// attributed to the backend that produced it.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(BackendHeader, s.cfg.InstanceID)
		s.mux.ServeHTTP(w, r)
	})
}

// BackendHeader is the response header naming the rallocd instance
// that produced a response. The routing proxy relays it verbatim.
const BackendHeader = "X-Ralloc-Backend"

// InstanceID returns the name this server stamps on its responses.
func (s *Server) InstanceID() string { return s.cfg.InstanceID }

// InFlight reports how many admitted requests are currently running —
// what a drain is waiting on, and what gets abandoned when the drain
// deadline fires.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Close cancels every live async job and waits for their runners — the
// server's half of a drain. Finished jobs stay pollable until the
// listener itself goes away; the audit logger (owned by the daemon) is
// closed after this returns, so the last verdicts still land.
func (s *Server) Close() { s.jobs.Close() }

// SetReady flips the /readyz verdict. The daemon clears it when a drain
// begins so load balancers stop routing new work while in-flight
// batches finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// errShed reports a request shed by admission control.
var errShed = errors.New("server: saturated: admission queue full")

// admit implements admission control. It returns a release function on
// success. A full queue — or a context that ends while waiting for a
// run slot — sheds the request: both surface as errShed and become
// 429 + Retry-After, so a saturated server's only answers are 200 and
// 429.
func (s *Server) admit(done <-chan struct{}) (release func(), err error) {
	tel := s.cfg.Telemetry
	select {
	case s.queue <- struct{}{}:
	default:
		tel.Count("server.shed", 1)
		return nil, errShed
	}
	tel.Gauge("server.queue.depth").Add(1)
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-done:
		tel.Gauge("server.queue.depth").Add(-1)
		<-s.queue
		tel.Count("server.shed", 1)
		return nil, errShed
	}
	tel.Gauge("server.queue.depth").Add(-1)
	tel.Observe("server.queue.wait", time.Since(start).Nanoseconds())
	tel.Gauge("server.inflight").Add(1)
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		tel.Gauge("server.inflight").Add(-1)
		<-s.slots
		<-s.queue
	}, nil
}
