package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/audit"
	"repro/internal/driver"
	"repro/internal/jobs"
)

// This file is the asynchronous serving surface: POST /v1/jobs accepts
// the same body as /v1/batch but answers immediately with a job ID;
// GET /v1/jobs/{id} polls status and partial progress;
// GET /v1/jobs/{id}/results streams completed units as NDJSON in input
// order (each line a UnitResponse — the same shape the sync endpoints
// put in their results array, so the concatenated code bytes match a
// sync run exactly); DELETE /v1/jobs/{id} cancels. Jobs draw run slots
// from the same pool as synchronous requests, and a full job table
// sheds with 429 + Retry-After — the service's only answers stay 200,
// its own 4xx, and 429.

// runJobUnits is the jobs.Manager's Run hook: a per-job engine sharing
// the server's cache and metrics, with the manager's per-unit progress
// callback threaded through driver OnUnitDone.
func (s *Server) runJobUnits(ctx context.Context, units []driver.Unit, onUnit func(int, driver.UnitResult)) {
	eng := driver.New(driver.Config{
		Options:    s.cfg.Options,
		Workers:    s.cfg.Workers,
		Cache:      s.cfg.Store,
		Telemetry:  s.cfg.Telemetry,
		OnUnitDone: onUnit,
	})
	eng.Run(ctx, units)
}

// jobGate is the jobs.Manager's admission hook: a queued job waits for
// one of the same run slots the synchronous paths use, so async work
// and interactive traffic share one capacity pool instead of doubling
// the load the daemon was sized for.
func (s *Server) jobGate(ctx context.Context) (func(), error) {
	tel := s.cfg.Telemetry
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
		tel.Observe("jobs.slot.wait", time.Since(start).Nanoseconds())
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// auditJobUnit emits one audit record per job unit verdict, as each
// lands.
func (s *Server) auditJobUnit(j *jobs.Job, i int, r driver.UnitResult) {
	s.auditUnit(j.RequestID, j.ID, j.Unit(i), r)
}

// auditUnit records one allocation verdict on the audit stream. The
// content key is the same address the result cache and the cluster
// ring use, so offline analysis joins audit records against cache
// contents and routing decisions.
func (s *Server) auditUnit(reqID, jobID string, u driver.Unit, r driver.UnitResult) {
	log := s.cfg.Audit
	if log == nil {
		return
	}
	rec := audit.Record{
		Backend:   s.cfg.InstanceID,
		RequestID: reqID,
		JobID:     jobID,
		Unit:      r.Name,
		CacheHit:  r.CacheHit,
		CacheTier: r.CacheTier,
		AllocMs:   float64(r.Wall) / float64(time.Millisecond),
	}
	rec.ContentKey = string(r.Key)
	rec.Strategy = u.Options.Canonical().Strategy
	switch {
	case r.Err != nil:
		rec.Error = r.Err.Error()
	case r.Result != nil:
		rec.Verified = u.Options.Verify
		rec.Degraded = r.Result.Degraded
		rec.DegradeReason = r.Result.DegradeReason
	}
	log.Log(rec)
}

// handleJobSubmit serves POST /v1/jobs: admit the batch, answer with
// the job ID, run in the background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, info *RequestInfo) {
	// A job's results arrive after its request is answered, so the job
	// path reads the memo but leaves filling it to the sync paths.
	units, _, ok := s.decodeUnits(w, info, KindBatch)
	if !ok {
		return
	}
	j, err := s.jobs.Submit(units, info.ID)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			WriteShed(w, "job queue full, retry later", info.ID)
			return
		}
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), RequestID: info.ID})
		return
	}
	WriteJSON(w, http.StatusOK, s.jobResponse(j))
}

// jobResponse shapes one job snapshot for the wire, stamped with the
// submitting request's ID.
func (s *Server) jobResponse(j *jobs.Job) JobResponse {
	snap := j.Snapshot()
	resp := JobResponse{
		JobID:     snap.ID,
		RequestID: j.RequestID,
		State:     string(snap.State),
		Units:     snap.Units,
		Completed: snap.Completed,
		Failed:    snap.Failed,
		Degraded:  snap.Degraded,
		CacheHits: snap.CacheHits,
		Backend:   s.cfg.InstanceID,
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	resp.CreatedAt = stamp(snap.Created)
	resp.StartedAt = stamp(snap.Started)
	resp.FinishedAt = stamp(snap.Finished)
	return resp
}

// writeJobMissing answers for a job ID that did not resolve: 404 for
// IDs never issued and 410 (code "job_expired") for jobs reaped by
// retention — so a slow poller can tell "poll sooner or raise
// -job-retention" from "wrong ID".
func (s *Server) writeJobMissing(w http.ResponseWriter, id string, p jobs.Presence) {
	if p == jobs.Expired {
		WriteJSON(w, http.StatusGone, ErrorResponse{
			Error: fmt.Sprintf("job %s expired (results are retained for %s after completion)", id, s.cfg.JobRetention),
			Code:  "job_expired",
		})
		return
	}
	WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown job %s", id)})
}

// lookupJob resolves {id}, answering through writeJobMissing when it
// does not.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *jobs.Job {
	id := r.PathValue("id")
	j, p := s.jobs.Get(id)
	if p != jobs.Found {
		s.writeJobMissing(w, id, p)
		return nil
	}
	return j
}

// handleJobStatus serves GET /v1/jobs/{id}: the job's state and
// partial progress.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		WriteJSON(w, http.StatusOK, s.jobResponse(j))
	}
}

// handleJobResults serves GET /v1/jobs/{id}/results: completed units
// streamed as NDJSON in input order, each line a UnitResponse. The
// stream follows the job live — a line is written the moment its unit
// finishes — and ends after the last unit, so reading to EOF yields
// exactly the sync /v1/batch results array, one element per line.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // no indent: one compact JSON object per line
	for i := 0; i < j.Units(); i++ {
		ur, err := j.WaitUnit(r.Context(), i)
		if err != nil || ur == nil {
			return // client went away or the job vanished; the stream just ends
		}
		if encErr := enc.Encode(s.unitResponse(j.Unit(i), *ur)); encErr != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleJobCancel serves DELETE /v1/jobs/{id}: request cancellation
// and report the (possibly already terminal) state. Completed units
// keep their results; unstarted units report the cancellation.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, p := s.jobs.Cancel(id)
	if p != jobs.Found {
		s.writeJobMissing(w, id, p)
		return
	}
	WriteJSON(w, http.StatusOK, s.jobResponse(j))
}

// handleAudit serves GET /v1/audit: the audit stream's delivery
// counters (and, with ?flush=1, a synchronous flush first) so an
// operator — or the jobs smoke test — can assert zero drops without
// reading the sink. Servers without an audit stream answer 404.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	log := s.cfg.Audit
	if log == nil {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "no audit stream (start rallocd with -audit-dir or -audit-url)"})
		return
	}
	resp := AuditStatsResponse{Enabled: true}
	if r.URL.Query().Get("flush") != "" {
		if err := log.Flush(); err != nil {
			resp.FlushError = err.Error()
		}
	}
	st := log.Stats()
	resp.Logged = st.Logged
	resp.Dropped = st.Dropped
	resp.Flushed = st.Flushed
	resp.Flushes = st.Flushes
	resp.FlushErrors = st.FlushErrors
	WriteJSON(w, http.StatusOK, resp)
}
