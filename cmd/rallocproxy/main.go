// Command rallocproxy is the cluster routing proxy: it spreads
// allocation traffic over a set of rallocd backends by
// consistent-hashing each request's content key — the same key the
// backends' result caches use, so repeats of a (routine, options) pair
// land on the backend already holding the cached result — and wraps the
// cluster in the resilience layer described in internal/cluster: active
// health probes, per-backend circuit breakers, bounded retries with
// backoff and failover along the ring, and per-request deadline budgets
// threaded through every retry.
//
//	rallocproxy -backends url,url,... [-addr host:port] [-addr-file path]
//	            [-vnodes N] [-replicas N] [-max-attempts N]
//	            [-probe-interval d] [-breaker-threshold N]
//	            [-breaker-cooldown d]
//	            [-default-deadline d] [-max-deadline d]
//	            [-drain-timeout d]
//
// Endpoints: POST /v1/allocate and /v1/batch (routed; batches whose
// units hash to different owners are scattered and merged),
// POST /v1/jobs (routed by the batch's combined key; the accepting
// backend is remembered), GET /v1/jobs/{id}, GET /v1/jobs/{id}/results
// and DELETE /v1/jobs/{id} (forwarded to the job's backend),
// GET /v1/audit (every backend's audit counters, summed),
// GET /v1/strategies and GET /v1/machines (forwarded), GET /v1/cluster
// (ring + breaker status), /healthz, /readyz, /metrics.
//
// The serving contract matches a single rallocd, extended cluster-wide:
// every request is answered with 200, the backend's own 4xx, or
// 429 + Retry-After — never a hang, never a proxy-origin 5xx.
//
// SIGINT/SIGTERM starts the cluster-facing half of a graceful drain:
// /readyz flips to 503 (load balancers stop routing here), in-flight
// requests finish within -drain-timeout, then the process exits 0.
// Backends drain themselves on their own signals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8447", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	backends := flag.String("backends", "", "comma-separated rallocd base URLs (required)")
	vnodes := flag.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	replicas := flag.Int("replicas", 0, "distinct backends one request may try (0 = all)")
	maxAttempts := flag.Int("max-attempts", 0, "total upstream tries per request (0 = max(4, 2x backends))")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active /readyz probe period (negative disables)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "open -> half-open delay")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "per-request budget when the client sends no X-Deadline-Ms; covers all retries")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "upper clamp on client-requested deadlines")
	drain := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	flag.Parse()

	if *backends == "" {
		fail(errors.New("-backends is required (comma-separated rallocd URLs)"))
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	p, err := cluster.New(cluster.Config{
		Backends:         urls,
		VNodes:           *vnodes,
		FailoverReplicas: *replicas,
		MaxAttempts:      *maxAttempts,
		ProbeInterval:    *probeInterval,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Limits:           server.Limits{DefaultDeadline: *defaultDeadline, MaxDeadline: *maxDeadline},
		Telemetry:        &telemetry.Sink{Metrics: telemetry.NewRegistry()},
		OnBreakerTransition: func(backend string, from, to cluster.BreakerState) {
			fmt.Fprintf(os.Stderr, "rallocproxy: breaker %s: %s -> %s\n", backend, from, to)
		},
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "rallocproxy: listening on %s, routing to %d backend(s)\n", bound, len(urls))

	p.Start()
	hs := &http.Server{Handler: p.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
	}

	// Cluster drain, proxy side: stop advertising, let in-flight
	// requests (and their retries) finish, then stop the probers.
	fmt.Fprintf(os.Stderr, "rallocproxy: shutting down (drain %v)\n", *drain)
	p.SetReady(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "rallocproxy: drain timeout after %v: closing remaining connections\n", *drain)
			hs.Close()
		} else {
			fail(fmt.Errorf("drain: %w", err))
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	p.Close()
	fmt.Fprintln(os.Stderr, "rallocproxy: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rallocproxy:", err)
	os.Exit(1)
}
