package server

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/machines"
)

// This file is the wire schema of the allocation service: the JSON
// bodies of POST /v1/allocate and POST /v1/batch and their responses.
// The types are plain data so cmd/rallocload (and any other client) can
// share them; request.go turns a request into driver units.

// AllocateRequest is the body of POST /v1/allocate: one ILOC source
// text holding one or more routines (the multi-routine form follows
// iloc.ParseProgram — first routine plus callees), all allocated with
// the same options.
type AllocateRequest struct {
	// ILOC is the routine source in the textual form iloc.Parse accepts.
	ILOC string `json:"iloc"`
	// Options configures the allocation; nil means the server's default
	// options.
	Options *OptionsRequest `json:"options,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: a module of named units,
// each optionally carrying its own options (the experiment drivers mix
// machines and strategies within one batch; remote callers can too).
type BatchRequest struct {
	Units []BatchUnit `json:"units"`
	// Options is the default for units that do not carry their own.
	Options *OptionsRequest `json:"options,omitempty"`
}

// BatchUnit is one routine of a batch request.
type BatchUnit struct {
	// Name labels the unit in the response; empty defaults to the parsed
	// routine's name.
	Name string `json:"name,omitempty"`
	// ILOC is the unit's source text (exactly one routine).
	ILOC    string          `json:"iloc"`
	Options *OptionsRequest `json:"options,omitempty"`
}

// OptionsRequest is the client-facing subset of core.Options. Zero
// fields inherit the server's defaults.
type OptionsRequest struct {
	// Strategy selects a registered allocation strategy by spec — a name
	// from GET /v1/strategies, optionally with parameters
	// ("remat:split=all-loops,no-bias"; the parameters cover §6's
	// splitting schemes, the spill metric and the ablation switches). An
	// unknown name is a 400 whose error body lists the registered names.
	Strategy string `json:"strategy,omitempty"`
	// Machine selects a target machine from the zoo by name — an entry
	// of GET /v1/machines, or the parameterized "regs=N" spelling. An
	// unknown name is a 400 whose error body lists the registered names.
	// Machine and Regs are mutually exclusive in one options object.
	Machine string `json:"machine,omitempty"`
	// Regs is the register count per class (16 = the paper's standard
	// machine) — shorthand for machine "regs=N".
	Regs int `json:"regs,omitempty"`
	// Verify runs the independent post-allocation checker; nil inherits
	// the server default (on).
	Verify *bool `json:"verify,omitempty"`
	// MaxIterations bounds the spill/color loop (0 = allocator default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Strict disables the spill-everywhere degradation: any allocator
	// failure (including deadline expiry) becomes a per-unit error.
	Strict bool `json:"strict,omitempty"`
}

// Resolve merges the request options over def (the server defaults,
// or — for per-unit batch options — the batch-level resolution).
func (o *OptionsRequest) Resolve(def core.Options) (core.Options, error) {
	opts := def
	if o == nil {
		return opts, nil
	}
	if o.Strategy != "" {
		if _, err := core.LookupStrategy(o.Strategy); err != nil {
			return opts, err
		}
		opts.Strategy = o.Strategy
	}
	if o.Machine != "" && o.Regs != 0 {
		return opts, fmt.Errorf("machine %q and regs %d are mutually exclusive (regs is shorthand for machine \"regs=N\")", o.Machine, o.Regs)
	}
	machine := o.Machine
	if o.Regs != 0 {
		machine = "regs=" + strconv.Itoa(o.Regs)
	}
	if machine != "" {
		m, err := machines.Lookup(machine)
		if err != nil {
			return opts, err
		}
		opts.Machine = m
	}
	if o.Verify != nil {
		opts.Verify = *o.Verify
	}
	if o.MaxIterations != 0 {
		opts.MaxIterations = o.MaxIterations
	}
	if o.Strict {
		opts.DisableDegradation = true
	}
	return opts, nil
}

// AllocateResponse is the 200 body of both allocation endpoints: one
// UnitResponse per input routine, in input order, plus the batch stats.
type AllocateResponse struct {
	RequestID string         `json:"request_id"`
	Results   []UnitResponse `json:"results"`
	Stats     BatchStats     `json:"stats"`
}

// UnitResponse is the outcome of one routine. Exactly one of Code and
// Error is set.
type UnitResponse struct {
	Name string `json:"name"`
	// Code is the allocated routine in ILOC textual form.
	Code string `json:"code,omitempty"`
	// Error is the allocator failure for this unit (strict-mode faults,
	// cancellation); the batch as a whole still returns 200.
	Error string `json:"error,omitempty"`
	// Backend is the instance ID of the rallocd that produced this
	// unit (mirrors the X-Ralloc-Backend response header). Through the
	// routing proxy a batch's units may come from several backends;
	// this field is how tests and operators attribute each one.
	Backend string `json:"backend,omitempty"`
	// Verified reports that the independent post-allocation checker ran
	// against this result and accepted it (the verifier verdict; a
	// rejected allocation never reaches the response — it degrades or
	// errors).
	Verified bool `json:"verified"`
	// Degraded marks a spill-everywhere fallback allocation;
	// DegradeReason says why ("deadline" when the request's deadline
	// expired mid-allocation).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	CacheHit      bool   `json:"cache_hit,omitempty"`
	// CacheTier says which tier served a hit: "l1" (memory) or "l2"
	// (the persistent disk tier, surviving daemon restarts).
	CacheTier string `json:"cache_tier,omitempty"`
	// Per-pass totals of the instrumented pipeline.
	Iterations int     `json:"iterations,omitempty"`
	Spilled    int     `json:"spilled,omitempty"`
	Remat      int     `json:"remat,omitempty"`
	FrameWords int     `json:"frame_words,omitempty"`
	AllocMs    float64 `json:"alloc_ms"`
}

// BatchStats summarizes the driver run behind one request.
type BatchStats struct {
	Routines    int `json:"routines"`
	Failed      int `json:"failed"`
	Degraded    int `json:"degraded"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// CacheDiskHits is the subset of CacheHits served by the disk tier
	// — restart-survival and bundle warm-up at work.
	CacheDiskHits int     `json:"cache_disk_hits,omitempty"`
	Workers       int     `json:"workers"`
	WallMs        float64 `json:"wall_ms"`
	CPUMs         float64 `json:"cpu_ms"`
}

// MachineInfo describes one zoo machine in the GET /v1/machines
// listing: its name, one-line description, and the shape that makes it
// distinct (register bank sizes, caller-save partition, cycle costs).
type MachineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Regs        []int  `json:"regs"`
	CallerSave  int    `json:"caller_save"`
	MemCycles   int    `json:"mem_cycles"`
	OtherCycles int    `json:"other_cycles"`
}

// MachinesResponse is the 200 body of GET /v1/machines.
type MachinesResponse struct {
	Machines []MachineInfo `json:"machines"`
}

// StrategyInfo describes one registered allocation strategy in the
// GET /v1/strategies listing.
type StrategyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// StrategiesResponse is the 200 body of GET /v1/strategies.
type StrategiesResponse struct {
	Strategies []StrategyInfo `json:"strategies"`
}

// JobResponse is the body of POST /v1/jobs (the accept answer),
// GET /v1/jobs/{id} (status + partial progress) and DELETE (the
// post-cancel state). Counters advance while the job runs, so a
// poller sees progress before the state turns terminal.
type JobResponse struct {
	JobID string `json:"job_id"`
	// RequestID is the submitting request's ID (audit records for this
	// job's units carry both).
	RequestID string `json:"request_id,omitempty"`
	// State is "queued", "running", "done" or "canceled".
	State     string `json:"state"`
	Units     int    `json:"units"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Degraded  int    `json:"degraded"`
	CacheHits int    `json:"cache_hits"`
	// Backend names the rallocd instance that owns the job; polls and
	// result streams must reach this same instance (the routing proxy
	// does that by job ID).
	Backend    string `json:"backend,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

// AuditStatsResponse is the 200 body of GET /v1/audit: the audit
// stream's delivery counters. Dropped > 0 means the stream shed
// records under backpressure (the lossy-by-config default).
type AuditStatsResponse struct {
	Enabled     bool   `json:"enabled"`
	Logged      int64  `json:"logged"`
	Dropped     int64  `json:"dropped"`
	Flushed     int64  `json:"flushed"`
	Flushes     int64  `json:"flushes"`
	FlushErrors int64  `json:"flush_errors"`
	FlushError  string `json:"flush_error,omitempty"`
}

// ErrorResponse is the body of every non-200 the service produces.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Code machine-classifies errors that clients dispatch on;
	// "job_expired" marks the 410 for a job reaped by retention, so a
	// slow poller can tell expiry from a wrong ID (404).
	Code string `json:"code,omitempty"`
	// RetryAfterSec accompanies 429: how long to back off before
	// retrying (mirrors the Retry-After header).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Strategies accompanies the unknown-strategy 400: the registered
	// strategy names a request may select.
	Strategies []string `json:"strategies,omitempty"`
	// Machines accompanies the unknown-machine 400: the registered zoo
	// machine names a request may select (plus the "regs=N" spelling).
	Machines []string `json:"machines,omitempty"`
}
