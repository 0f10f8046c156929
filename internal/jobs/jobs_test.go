package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/telemetry"
)

// fakeRun builds a Config.Run that completes units one by one, parking
// at per-unit gates so tests control exactly how far a job gets.
type fakeRun struct {
	mu      sync.Mutex
	gates   map[string]chan struct{} // unit name -> proceed signal
	started chan string              // unit names as they begin
}

func newFakeRun() *fakeRun {
	return &fakeRun{gates: make(map[string]chan struct{}), started: make(chan string, 64)}
}

// gate makes the named unit wait until released.
func (f *fakeRun) gate(name string) chan struct{} {
	ch := make(chan struct{})
	f.mu.Lock()
	f.gates[name] = ch
	f.mu.Unlock()
	return ch
}

// run processes units sequentially (like a 1-worker engine): a gated
// unit waits for release or ctx; once ctx ends, remaining units fail
// with ctx.Err() — the driver's cancellation contract.
func (f *fakeRun) run(ctx context.Context, units []driver.Unit, onUnit func(int, driver.UnitResult)) {
	for i, u := range units {
		if err := ctx.Err(); err != nil {
			onUnit(i, driver.UnitResult{Name: u.Name, Err: err})
			continue
		}
		select {
		case f.started <- u.Name:
		default:
		}
		f.mu.Lock()
		gate := f.gates[u.Name]
		f.mu.Unlock()
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				onUnit(i, driver.UnitResult{Name: u.Name, Err: ctx.Err()})
				continue
			}
		}
		onUnit(i, driver.UnitResult{Name: u.Name, Result: &core.Result{}, Wall: time.Millisecond})
	}
}

func mkUnits(names ...string) []driver.Unit {
	us := make([]driver.Unit, len(names))
	for i, n := range names {
		us[i] = driver.Unit{Name: n}
	}
	return us
}

func waitState(t *testing.T, j *Job, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := j.Snapshot()
		if s.State == want {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, s.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobRunsToDoneWithOrderedResults(t *testing.T) {
	f := newFakeRun()
	m, err := NewManager(Config{Run: f.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(mkUnits("a", "b", "c"), "req-7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID, "job-") {
		t.Fatalf("ID = %q", j.ID)
	}
	if j.RequestID != "req-7" {
		t.Fatalf("request ID lost: %q", j.RequestID)
	}
	s := waitState(t, j, StateDone)
	if s.Completed != 3 || s.Failed != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	for i, want := range []string{"a", "b", "c"} {
		r, err := j.WaitUnit(context.Background(), i)
		if err != nil || r == nil || r.Name != want || r.Err != nil {
			t.Fatalf("unit %d = %+v, %v; want %s", i, r, err, want)
		}
	}
	if j2, p := m.Get(j.ID); p != Found || j2 != j {
		t.Fatalf("Get after done: %v, %v", j2, p)
	}
	if _, p := m.Get("job-nonexistent"); p != Unknown {
		t.Fatalf("unknown ID classified %v", p)
	}
}

// TestCancelMidFlight is the satellite contract: cancel while unit b
// is in flight — a keeps its result, b and c report cancellation, and
// the job lands in canceled, all visible to a concurrent streamer.
func TestCancelMidFlight(t *testing.T) {
	f := newFakeRun()
	gateB := f.gate("b")
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Run: f.run, Telemetry: &telemetry.Sink{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(mkUnits("a", "b", "c"), "")
	if err != nil {
		t.Fatal(err)
	}

	// A streamer is already waiting on every unit while the job runs.
	type got struct {
		i   int
		r   *driver.UnitResult
		err error
	}
	results := make(chan got, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			r, err := j.WaitUnit(context.Background(), i)
			results <- got{i, r, err}
		}(i)
	}

	// Wait until b is in flight (a completed, b parked at its gate).
	deadline := time.After(5 * time.Second)
	for inFlight := ""; inFlight != "b"; {
		select {
		case inFlight = <-f.started:
		case <-deadline:
			t.Fatal("unit b never started")
		}
	}

	if _, p := m.Cancel(j.ID); p != Found {
		t.Fatalf("Cancel: %v", p)
	}
	close(gateB) // release b — its ctx already fired; either select arm is fine
	s := waitState(t, j, StateCanceled)
	if s.Completed != 3 {
		t.Fatalf("completed %d of 3 after cancel (unstarted units must report)", s.Completed)
	}

	byIdx := map[int]got{}
	for i := 0; i < 3; i++ {
		g := <-results
		byIdx[g.i] = g
	}
	// Unit a finished before the cancel: its result survives.
	if g := byIdx[0]; g.err != nil || g.r == nil || g.r.Err != nil || g.r.Result == nil {
		t.Fatalf("unit a lost its pre-cancel result: %+v err=%v", g.r, g.err)
	}
	// Unit c never started: it must report the cancellation.
	if g := byIdx[2]; g.r == nil || g.r.Err == nil || !errors.Is(g.r.Err, context.Canceled) {
		t.Fatalf("unit c = %+v, want context.Canceled", g.r)
	}
	if reg.Counter("jobs.canceled").Value() != 1 {
		t.Fatal("jobs.canceled not counted")
	}
	// Cancel of a terminal job is a harmless no-op.
	if _, p := m.Cancel(j.ID); p != Found {
		t.Fatalf("re-Cancel: %v", p)
	}
	if j.Snapshot().State != StateCanceled {
		t.Fatal("re-cancel changed state")
	}
}

func TestCancelWhileQueuedFailsEveryUnit(t *testing.T) {
	// A gate that never admits keeps the job queued.
	unblock := make(chan struct{})
	gate := func(ctx context.Context) (func(), error) {
		select {
		case <-unblock:
			return func() {}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := newFakeRun()
	m, err := NewManager(Config{Run: f.run, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer close(unblock)
	defer m.Close()
	j, err := m.Submit(mkUnits("a", "b"), "")
	if err != nil {
		t.Fatal(err)
	}
	if s := j.Snapshot(); s.State != StateQueued {
		t.Fatalf("state %s before gate", s.State)
	}
	m.Cancel(j.ID)
	s := waitState(t, j, StateCanceled)
	if s.Completed != 2 || s.Failed != 2 {
		t.Fatalf("queued-cancel snapshot %+v, want both units failed", s)
	}
	if r := j.Result(0); r == nil || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("unit 0 = %+v", r)
	}
}

func TestSubmitShedsBeyondMaxActive(t *testing.T) {
	f := newFakeRun()
	gate := f.gate("slow")
	defer close(gate)
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Run: f.run, MaxActive: 2, Telemetry: &telemetry.Sink{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(mkUnits("slow"), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(mkUnits("x"), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if reg.Counter("jobs.rejected").Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestRetentionExpiresIntoTombstones(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	f := newFakeRun()
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Run: f.run, Retention: time.Minute, TombstoneLimit: 1,
		Telemetry: &telemetry.Sink{Metrics: reg}, Now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j1, _ := m.Submit(mkUnits("a"), "")
	waitState(t, j1, StateDone)
	now.Add(int64(30 * time.Second)) // j2 finishes 30s after j1
	j2, _ := m.Submit(mkUnits("b"), "")
	waitState(t, j2, StateDone)

	// Within retention: still found.
	if _, p := m.Get(j1.ID); p != Found {
		t.Fatalf("fresh job: %v", p)
	}
	now.Add(int64(45 * time.Second)) // j1 is 75s old (expired), j2 45s (kept)
	if _, p := m.Get(j1.ID); p != Expired {
		t.Fatalf("after retention: %v, want Expired (the 410 answer)", p)
	}
	if _, p := m.Get(j2.ID); p != Found {
		t.Fatalf("within retention: %v, want Found", p)
	}
	if reg.Counter("jobs.expired").Value() != 1 {
		t.Fatalf("jobs.expired = %d", reg.Counter("jobs.expired").Value())
	}
	now.Add(int64(time.Minute)) // j2 expires too
	// TombstoneLimit=1: j2's tombstone pushes out j1's, so the oldest ID
	// degrades to Unknown — bounded memory wins over history.
	if _, p := m.Get(j2.ID); p != Expired {
		t.Fatalf("retained tombstone: %v, want Expired", p)
	}
	if _, p := m.Get(j1.ID); p != Unknown {
		t.Fatalf("evicted tombstone: %v, want Unknown", p)
	}
	if st := m.Stats(); st.Active != 0 || st.Retained != 0 {
		t.Fatalf("stats %+v after full expiry", st)
	}
}

func TestMaxRetainedEvictsOldestFinished(t *testing.T) {
	f := newFakeRun()
	m, err := NewManager(Config{Run: f.run, MaxRetained: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j1, _ := m.Submit(mkUnits("a"), "")
	waitState(t, j1, StateDone)
	j2, _ := m.Submit(mkUnits("b"), "")
	waitState(t, j2, StateDone)
	if _, p := m.Get(j1.ID); p != Expired {
		t.Fatalf("evicted job: %v, want Expired", p)
	}
	if _, p := m.Get(j2.ID); p != Found {
		t.Fatalf("newest job: %v, want Found", p)
	}
}

func TestWaitUnitHonorsCallerContext(t *testing.T) {
	f := newFakeRun()
	gate := f.gate("slow")
	defer close(gate)
	m, err := NewManager(Config{Run: f.run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _ := m.Submit(mkUnits("slow"), "")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := j.WaitUnit(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitUnit: %v, want deadline", err)
	}
	if _, err := j.WaitUnit(context.Background(), 99); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
}

func TestOnUnitDoneSeesEveryVerdict(t *testing.T) {
	f := newFakeRun()
	var seen atomic.Int64
	m, err := NewManager(Config{
		Run: f.run,
		OnUnitDone: func(j *Job, i int, r driver.UnitResult) {
			if j == nil || r.Name == "" {
				panic("bad callback args")
			}
			seen.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _ := m.Submit(mkUnits("a", "b"), "")
	waitState(t, j, StateDone)
	if seen.Load() != 2 {
		t.Fatalf("OnUnitDone fired %d times, want 2", seen.Load())
	}
}

func TestCloseCancelsLiveJobs(t *testing.T) {
	f := newFakeRun()
	f.gate("stuck") // never released
	m, err := NewManager(Config{Run: f.run})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Submit(mkUnits("stuck"), "")
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live job")
	}
	if s := j.Snapshot(); s.State != StateCanceled {
		t.Fatalf("state after Close: %s", s.State)
	}
	if _, err := m.Submit(mkUnits("x"), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit after Close: %v", err)
	}
}

func TestGateIsAcquiredAndReleased(t *testing.T) {
	var held atomic.Int64
	gate := func(ctx context.Context) (func(), error) {
		held.Add(1)
		return func() { held.Add(-1) }, nil
	}
	f := newFakeRun()
	m, err := NewManager(Config{Run: f.run, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, _ := m.Submit(mkUnits("a"), "")
	waitState(t, j, StateDone)
	deadline := time.Now().Add(time.Second)
	for held.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("gate never released")
		}
		time.Sleep(time.Millisecond)
	}
}
