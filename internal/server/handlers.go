package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
)

// decodeUnits is the decode-or-400 step of every allocation endpoint:
// the units of a body of the given kind under the server defaults, or
// false after answering 400. The server's memo answers a body it has
// served before with no decode, parse or KeyFor; fill, non-nil for a
// body the memo does not hold, remembers it from the results of running
// its units. An unknown strategy or machine name additionally lists the
// registered names in the body so a client can self-correct without a
// second round trip.
func (s *Server) decodeUnits(w http.ResponseWriter, info *RequestInfo, kind Kind) (units []driver.Unit, fill func([]driver.UnitResult), ok bool) {
	units, fill, err := s.memo.Units(kind, info.Body)
	if err == nil {
		return units, fill, true
	}
	resp := ErrorResponse{Error: err.Error(), RequestID: info.ID}
	var unknownStrategy *core.UnknownStrategyError
	if errors.As(err, &unknownStrategy) {
		resp.Strategies = unknownStrategy.Registered
	}
	var unknownMachine *machines.UnknownMachineError
	if errors.As(err, &unknownMachine) {
		resp.Machines = unknownMachine.Registered
	}
	WriteJSON(w, http.StatusBadRequest, resp)
	return nil, nil, false
}

// handleSync serves a synchronous allocation endpoint whose body is of
// the given kind: POST /v1/allocate, one ILOC source text holding one or
// more routines, all allocated under the same options; or POST
// /v1/batch, named units, each optionally carrying its own options.
func (s *Server) handleSync(kind Kind) func(http.ResponseWriter, *http.Request, *RequestInfo) {
	return func(w http.ResponseWriter, r *http.Request, info *RequestInfo) {
		if units, fill, ok := s.decodeUnits(w, info, kind); ok {
			s.serve(w, r, info, units, fill)
		}
	}
}

// serve is the shared allocation path: admission, deadline, engine run,
// memo fill, response shaping. The memo is filled from the keys the
// workers computed, so a new body costs no hashing beyond its one sum.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, info *RequestInfo, units []driver.Unit, fill func([]driver.UnitResult)) {
	deadline, ok := ParseDeadline(r, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if !ok {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad X-Deadline-Ms header", RequestID: info.ID})
		return
	}

	release, err := s.admit(r.Context().Done())
	if err != nil {
		WriteShed(w, "server saturated, retry later", info.ID)
		return
	}
	defer release()

	// The allocation context couples the client connection (a dropped
	// request cancels its batch) with the request's clamped deadline.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// The shared engine serves the common (metrics-only) path. When a
	// tracer is installed, a per-request engine carries the request's
	// sink instead, so batch spans land on the request's trace thread;
	// the cache and metrics registry stay the shared ones either way.
	eng := s.engine
	if info.Sink != nil && info.Sink.Trace != nil {
		eng = driver.New(driver.Config{
			Options: s.cfg.Options, Workers: s.cfg.Workers, Cache: s.cfg.Store, Telemetry: info.Sink,
		})
	}
	batch := eng.Run(ctx, units)
	if fill != nil {
		fill(batch.Results)
	}

	resp := AllocateResponse{
		RequestID: info.ID,
		Results:   make([]UnitResponse, len(batch.Results)),
		Stats: BatchStats{
			Routines:      batch.Stats.Routines,
			Failed:        batch.Stats.Failed,
			Degraded:      batch.Stats.Degraded,
			CacheHits:     batch.Stats.CacheHits,
			CacheMisses:   batch.Stats.CacheMisses,
			CacheDiskHits: batch.Stats.CacheDiskHits,
			Workers:       batch.Stats.Workers,
			WallMs:        float64(batch.Stats.Wall) / float64(time.Millisecond),
			CPUMs:         float64(batch.Stats.CPU) / float64(time.Millisecond),
		},
	}
	for i, ur := range batch.Results {
		resp.Results[i] = s.unitResponse(units[i], ur)
	}
	if s.cfg.Audit != nil {
		for i, ur := range batch.Results {
			s.auditUnit(info.ID, "", units[i], ur)
		}
	}
	tel := s.cfg.Telemetry
	tel.Count("server.units", int64(batch.Stats.Routines))
	if batch.Stats.Degraded > 0 {
		tel.Count("server.degraded", int64(batch.Stats.Degraded))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// unitResponse shapes unit u's driver result as the wire's
// UnitResponse — the element of the sync endpoints' results array and
// the line of the async results stream, so the two paths are
// byte-identical per unit. A result is verified when u's options ran
// the post-allocation checker: a rejected allocation never reaches a
// response body (it degrades or errors inside the allocator).
func (s *Server) unitResponse(u driver.Unit, ur driver.UnitResult) UnitResponse {
	resp := UnitResponse{
		Name:      ur.Name,
		Backend:   s.cfg.InstanceID,
		CacheHit:  ur.CacheHit,
		CacheTier: ur.CacheTier,
		AllocMs:   float64(ur.Wall) / float64(time.Millisecond),
	}
	switch {
	case ur.Err != nil:
		resp.Error = ur.Err.Error()
	case ur.Result != nil:
		resp.Code = iloc.Print(ur.Result.Routine)
		resp.Verified = u.Options.Verify
		resp.Degraded = ur.Result.Degraded
		resp.DegradeReason = ur.Result.DegradeReason
		resp.Iterations = len(ur.Result.Iterations)
		resp.Spilled = ur.Result.SpilledRanges
		resp.Remat = ur.Result.RematSpills
		resp.FrameWords = ur.Result.Routine.FrameWords
	}
	return resp
}

// handleStrategies serves GET /v1/strategies: the registered allocation
// strategies, in registration order, with their one-line descriptions.
// Clients select one per request via the options "strategy" field.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	strategies := core.Strategies()
	resp := StrategiesResponse{Strategies: make([]StrategyInfo, len(strategies))}
	for i, st := range strategies {
		resp.Strategies[i] = StrategyInfo{Name: st.Name(), Description: st.Description()}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleMachines serves GET /v1/machines: the target-machine zoo, in
// registration order, with descriptions and shapes. Clients select one
// per request via the options "machine" field (or "regs=N" for an
// unregistered sweep point).
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	zoo := machines.All()
	resp := MachinesResponse{Machines: make([]MachineInfo, len(zoo))}
	for i, e := range zoo {
		resp.Machines[i] = MachineInfo{
			Name:        e.Name,
			Description: e.Description,
			Regs:        append([]int(nil), e.Machine.Regs[:]...),
			CallerSave:  e.Machine.CallerSave,
			MemCycles:   e.Machine.MemCycles,
			OtherCycles: e.Machine.OtherCycles,
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once a drain
// has begun (load balancers stop routing here while in-flight batches
// finish).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics dumps the telemetry registry as flat "name value"
// lines — the same format the CLIs write under -metrics. The result
// cache's per-tier stats are refreshed into the registry (store.*
// gauges) on every scrape, so warm-vs-cold serving is visible without
// instrumenting the cache hot path. Every other name has one writer:
// the layer that owns it (jobs.*, audit.*, server.*).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.cfg.Telemetry.Metrics
	s.cfg.Store.PublishMetrics(reg)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = reg.WriteTo(w)
}

// handleBundle serves GET /v1/cache/bundle: a tar.gz snapshot of the
// disk cache tier, streamed after a flush so it includes every entry
// put before the request. A replica (rallocd -warm-from URL) or
// `ralloc-bundle export -url` can warm a cold cache from it. Servers
// without a persistent tier answer 404.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st.Disk() == nil {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "no persistent cache tier (start rallocd with -cache-dir)"})
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="cache-bundle.tar.gz"`)
	n, err := st.ExportBundle(w)
	tel := s.cfg.Telemetry
	tel.Count("server.bundle.exports", 1)
	tel.Count("server.bundle.entries", int64(n))
	if err != nil {
		// The status line is gone; all that is left is to cut the
		// stream short (the client's gzip reader will notice) and count.
		tel.Count("server.bundle.errors", 1)
	}
}
