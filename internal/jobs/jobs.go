// Package jobs is the asynchronous half of the allocation service: a
// bounded in-process job manager behind POST /v1/jobs. A submitted
// batch returns a job ID immediately — the connection is free the
// moment admission succeeds — and the batch runs in the background
// through the same driver engine and admission slots the synchronous
// endpoints use. Callers poll status, stream completed units in input
// order as they finish, and cancel mid-flight; the manager keeps
// finished jobs for a bounded retention window and remembers expired
// IDs (tombstones) so "gone because you were too slow" is
// distinguishable from "never existed".
//
// The lifecycle state machine:
//
//		queued ──────► running ──────► done
//		   │              │
//		   └── cancel ────┴─────────► canceled ──(retention)──► expired
//		                                  done ──(retention)──► expired
//
//	  - queued: admitted, waiting for a run slot (the Gate — shared with
//	    the sync paths, so async work cannot starve interactive traffic
//	    beyond its fair share of the same worker pool).
//	  - running: units are allocating; completed units are visible to
//	    pollers and streamers immediately (driver.Config.OnUnitDone).
//	  - done/canceled: terminal. Results stay readable until retention
//	    expires or the retained-job bound evicts the job (oldest first).
//	  - expired: the job is deleted; its ID answers "expired" (HTTP 410)
//	    from a bounded tombstone set, not "unknown" (404).
//
// Cancellation is cooperative and loses nothing already paid for:
// units finished before the cancel keep their results; the unit in
// flight is aborted by the allocator's own context checks; unstarted
// units report the cancellation error. That mirrors the driver's
// batch-cancellation contract one level up.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateCanceled }

// ErrQueueFull is Submit's admission verdict when the manager already
// holds MaxActive queued+running jobs; the HTTP layer turns it into
// 429 + Retry-After, keeping the service's only-200/4xx/429 contract.
var ErrQueueFull = errors.New("jobs: queue full")

// Config configures a Manager. Run is required.
type Config struct {
	// Run executes one job's units and reports each unit's result as it
	// lands (the driver engine with OnUnitDone wired). It must honor
	// ctx: cancellation aborts in-flight units and fails unstarted ones
	// with ctx.Err().
	Run func(ctx context.Context, units []driver.Unit, onUnit func(int, driver.UnitResult))
	// Gate, when non-nil, is the shared admission between async jobs
	// and the sync serving paths: a job acquires the gate before its
	// units run and releases it after, so jobs and requests draw from
	// one pool of run slots. Waiting respects ctx (a canceled job stops
	// waiting).
	Gate func(ctx context.Context) (release func(), err error)
	// MaxActive bounds queued+running jobs; Submit beyond it returns
	// ErrQueueFull (<= 0: 64).
	MaxActive int
	// Retention is how long a terminal job stays readable (<= 0: 15m).
	Retention time.Duration
	// MaxRetained bounds terminal jobs kept regardless of age; the
	// oldest-finished evict first (<= 0: 256).
	MaxRetained int
	// TombstoneLimit bounds remembered expired IDs (<= 0: 4096).
	TombstoneLimit int
	// OnUnitDone, when non-nil, observes each unit verdict after the
	// manager records it (the audit stream hooks here). Called from
	// allocation workers; must be concurrency-safe.
	OnUnitDone func(j *Job, i int, r driver.UnitResult)
	// Telemetry receives jobs.* counters and gauges.
	Telemetry *telemetry.Sink
	// Now is the clock (nil: time.Now). Tests pin it to drive retention.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 256
	}
	if c.TombstoneLimit <= 0 {
		c.TombstoneLimit = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Job is one submitted batch. All mutable state is guarded by mu;
// readers use Snapshot/WaitUnit.
type Job struct {
	// ID is the job's handle: "job-<seq>-<8 random hex>". The random
	// suffix keeps IDs from colliding across backend instances, so a
	// routing proxy can map an ID to the one backend that owns it.
	ID string
	// RequestID is the ID of the request that submitted the job (the
	// HTTP layer stamps it on job answers and audit records).
	RequestID string

	mu   sync.Mutex
	cond *sync.Cond

	state     State
	canceled  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	units     []driver.Unit
	results   []*driver.UnitResult
	completed int
	failed    int
	degraded  int
	cacheHits int

	cancel context.CancelFunc
}

// Snapshot is a point-in-time copy of a job's externally visible
// state — what GET /v1/jobs/{id} reports.
type Snapshot struct {
	ID        string
	State     State
	Units     int
	Completed int
	Failed    int
	Degraded  int
	CacheHits int
	Created   time.Time
	Started   time.Time
	Finished  time.Time
}

// Snapshot copies the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:        j.ID,
		State:     j.state,
		Units:     len(j.units),
		Completed: j.completed,
		Failed:    j.failed,
		Degraded:  j.degraded,
		CacheHits: j.cacheHits,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// Units returns the job's unit count (immutable after submit).
func (j *Job) Units() int { return len(j.units) }

// Unit returns input unit i (for response shaping; immutable).
func (j *Job) Unit(i int) driver.Unit { return j.units[i] }

// WaitUnit blocks until unit i has a result, the job reaches a
// terminal state, or ctx ends. It returns the result (nil only if the
// job went terminal without one — possible only for a job canceled
// before it started — or the wait was abandoned) and ctx's error when
// that is what ended the wait.
func (j *Job) WaitUnit(ctx context.Context, i int) (*driver.UnitResult, error) {
	if i < 0 || i >= len(j.units) {
		return nil, fmt.Errorf("jobs: unit %d out of range [0,%d)", i, len(j.units))
	}
	// A context end must wake the cond waiters; AfterFunc broadcasts
	// exactly once when (and if) ctx ends during the wait.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.results[i] == nil && !j.state.Terminal() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j.cond.Wait()
	}
	return j.results[i], ctx.Err()
}

// Result returns unit i's result if it has one (non-blocking).
func (j *Job) Result(i int) *driver.UnitResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 || i >= len(j.results) {
		return nil
	}
	return j.results[i]
}

// Presence classifies a job lookup.
type Presence int

const (
	// Found: the job exists (any state).
	Found Presence = iota
	// Unknown: the ID was never issued (or predates the tombstone
	// window) — HTTP 404.
	Unknown
	// Expired: the job existed and was reaped by retention — HTTP 410,
	// so clients can tell "poll slower or raise retention" apart from
	// "wrong ID".
	Expired
)

// Manager owns the job table. Construct with NewManager; Close cancels
// every live job and waits for their runners.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job IDs in finish order (retention scan)
	active   int      // queued + running
	tombs    map[string]struct{}
	tombFIFO []string

	seq     atomic.Int64
	wg      sync.WaitGroup
	closing atomic.Bool
}

// NewManager builds a Manager.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Run == nil {
		return nil, errors.New("jobs: Config.Run is required")
	}
	m := &Manager{
		cfg:   cfg,
		jobs:  make(map[string]*Job),
		tombs: make(map[string]struct{}),
	}
	m.publishLocked()
	return m, nil
}

// publishLocked writes the jobs.active and jobs.retained gauges. The
// manager is their only writer, and it writes them whenever either
// count changes.
func (m *Manager) publishLocked() {
	m.cfg.Telemetry.Gauge("jobs.active").Set(int64(m.active))
	m.cfg.Telemetry.Gauge("jobs.retained").Set(int64(len(m.finished)))
}

// Submit admits one batch as a job, returning as soon as it is queued.
// The returned Job is live — its runner goroutine is already started.
// requestID names the submitting request.
func (m *Manager) Submit(units []driver.Unit, requestID string) (*Job, error) {
	if len(units) == 0 {
		return nil, errors.New("jobs: empty batch")
	}
	if m.closing.Load() {
		return nil, ErrQueueFull
	}
	tel := m.cfg.Telemetry
	m.mu.Lock()
	m.reapLocked()
	if m.active >= m.cfg.MaxActive {
		m.mu.Unlock()
		tel.Count("jobs.rejected", 1)
		return nil, ErrQueueFull
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        m.newID(),
		RequestID: requestID,
		state:     StateQueued,
		created:   m.cfg.Now(),
		units:     units,
		results:   make([]*driver.UnitResult, len(units)),
		cancel:    cancel,
	}
	j.cond = sync.NewCond(&j.mu)
	m.jobs[j.ID] = j
	m.active++
	m.publishLocked()
	m.mu.Unlock()
	tel.Count("jobs.submitted", 1)

	m.wg.Add(1)
	go m.runJob(ctx, j)
	return j, nil
}

// newID mints a collision-resistant job ID. The sequence keeps IDs
// readable and orderable within one process; the random suffix keeps
// them unique across backend instances.
func (m *Manager) newID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The process clock is a weak but workable fallback; IDs stay
		// unique within this process via the sequence either way.
		return fmt.Sprintf("job-%06d-%08x", m.seq.Add(1), m.cfg.Now().UnixNano()&0xffffffff)
	}
	return fmt.Sprintf("job-%06d-%s", m.seq.Add(1), hex.EncodeToString(b[:]))
}

// runJob is one job's runner: wait at the gate, run the batch with
// per-unit progress, finalize.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	defer m.wg.Done()
	if gate := m.cfg.Gate; gate != nil {
		release, err := gate(ctx)
		if err != nil {
			// Canceled (or the gate refused) while queued: no unit ever
			// ran; every unit reports the cancellation.
			m.finalize(j, err)
			return
		}
		defer release()
	}
	if ctx.Err() != nil {
		m.finalize(j, ctx.Err())
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = m.cfg.Now()
	j.mu.Unlock()

	m.cfg.Run(ctx, j.units, func(i int, r driver.UnitResult) {
		j.mu.Lock()
		if j.results[i] == nil {
			rc := r
			j.results[i] = &rc
			j.completed++
			if r.Err != nil {
				j.failed++
			}
			if r.Result != nil && r.Result.Degraded {
				j.degraded++
			}
			if r.CacheHit {
				j.cacheHits++
			}
		}
		j.cond.Broadcast()
		j.mu.Unlock()
		if m.cfg.OnUnitDone != nil {
			m.cfg.OnUnitDone(j, i, r)
		}
	})
	m.finalize(j, ctx.Err())
}

// finalize moves a job to its terminal state. fillErr, when non-nil,
// is written into every unit that never got a result (a job canceled
// before or during its run).
func (m *Manager) finalize(j *Job, fillErr error) {
	now := m.cfg.Now()
	j.mu.Lock()
	for i, r := range j.results {
		if r == nil {
			err := fillErr
			if err == nil {
				err = context.Canceled
			}
			j.results[i] = &driver.UnitResult{Name: j.units[i].Name, Err: err}
			j.completed++
			j.failed++
		}
	}
	if j.canceled {
		j.state = StateCanceled
	} else {
		j.state = StateDone
	}
	j.finished = now
	state := j.state
	j.cond.Broadcast()
	j.mu.Unlock()

	tel := m.cfg.Telemetry
	if state == StateCanceled {
		tel.Count("jobs.canceled", 1)
	} else {
		tel.Count("jobs.completed", 1)
	}
	m.mu.Lock()
	m.active--
	m.finished = append(m.finished, j.ID)
	// Bound retained terminal jobs: evict oldest-finished first.
	for over := len(m.finished) - m.cfg.MaxRetained; over > 0; over-- {
		m.expireLocked(m.finished[0])
		m.finished = m.finished[1:]
	}
	m.publishLocked()
	m.mu.Unlock()
}

// Get looks a job up, reaping expired ones first.
func (m *Manager) Get(id string) (*Job, Presence) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reapLocked()
	if j, ok := m.jobs[id]; ok {
		return j, Found
	}
	if _, ok := m.tombs[id]; ok {
		return nil, Expired
	}
	return nil, Unknown
}

// Cancel requests a job's cancellation. Idempotent; canceling a
// terminal job is a no-op. The returned Presence mirrors Get.
func (m *Manager) Cancel(id string) (*Job, Presence) {
	j, p := m.Get(id)
	if p != Found {
		return nil, p
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.canceled = true
	}
	j.mu.Unlock()
	j.cancel()
	return j, Found
}

// reapLocked expires terminal jobs older than the retention window.
func (m *Manager) reapLocked() {
	cutoff := m.cfg.Now().Add(-m.cfg.Retention)
	n := len(m.finished)
	for len(m.finished) > 0 {
		j, ok := m.jobs[m.finished[0]]
		if ok {
			j.mu.Lock()
			keep := j.finished.After(cutoff)
			j.mu.Unlock()
			if keep {
				break
			}
			m.expireLocked(m.finished[0])
		}
		m.finished = m.finished[1:]
	}
	if len(m.finished) != n {
		m.publishLocked()
	}
}

// expireLocked deletes a job and tombstones its ID (bounded FIFO).
func (m *Manager) expireLocked(id string) {
	if _, ok := m.jobs[id]; !ok {
		return
	}
	delete(m.jobs, id)
	m.tombs[id] = struct{}{}
	m.tombFIFO = append(m.tombFIFO, id)
	for len(m.tombFIFO) > m.cfg.TombstoneLimit {
		delete(m.tombs, m.tombFIFO[0])
		m.tombFIFO = m.tombFIFO[1:]
	}
	m.cfg.Telemetry.Count("jobs.expired", 1)
}

// Stats is the manager's aggregate health for the operational surface.
type Stats struct {
	Active   int `json:"active"`
	Retained int `json:"retained"`
}

// Stats snapshots active and retained job counts.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Active: m.active, Retained: len(m.finished)}
}

// Close cancels every live job and waits for all runners to finish.
// Terminal jobs stay readable (a draining daemon can still answer
// polls until the listener goes away).
func (m *Manager) Close() {
	m.closing.Store(true)
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		terminal := j.state.Terminal()
		if !terminal {
			j.canceled = true
		}
		j.mu.Unlock()
		if !terminal {
			j.cancel()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}
