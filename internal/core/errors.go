package core

import (
	"fmt"
	"runtime/debug"
)

// DegradeReasonDeadline is the Result.DegradeReason recorded when an
// allocation's context deadline expired mid-pipeline and the routine
// was re-allocated by the spill-everywhere fallback. Deadline-aware
// callers match on it: the serving layer reports it to clients, and the
// driver refuses to cache such results (the cache key does not include
// the deadline, so a deadline-shaped result must never satisfy a later,
// more patient request).
const DegradeReasonDeadline = "deadline"

// AllocError is the structured failure report of one allocation: which
// routine failed, in which pipeline pass, on which iteration of the
// spill/color loop, and why. Panics raised inside a pass are recovered
// and wrapped here, so an allocator bug on one routine surfaces as an
// ordinary error value instead of killing the caller — the property the
// batch driver's per-unit isolation relies on.
type AllocError struct {
	// Routine is the name of the routine being allocated.
	Routine string
	// Pass names the pipeline pass that failed; "loop" marks
	// non-convergence of the spill/color loop itself, "verify" a
	// post-allocation verifier rejection, and "" a failure outside the
	// pipeline.
	Pass string
	// Iteration is the 0-based round of the spill/color loop.
	Iteration int
	// Err is the underlying cause. For a recovered panic it wraps the
	// panic value; Stack then holds the goroutine stack at recovery.
	Err error
	// Stack is the stack trace captured when a panic was recovered,
	// empty for ordinary errors.
	Stack string
}

func (e *AllocError) Error() string {
	where := e.Routine
	if e.Pass != "" {
		where = fmt.Sprintf("%s: pass %s (iteration %d)", e.Routine, e.Pass, e.Iteration)
	}
	return fmt.Sprintf("core: %s: %v", where, e.Err)
}

func (e *AllocError) Unwrap() error { return e.Err }

// recovered converts a recovered panic value into an AllocError.
func recovered(routine, pass string, iteration int, v any) *AllocError {
	err, ok := v.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", v)
	} else {
		err = fmt.Errorf("panic: %w", err)
	}
	return &AllocError{
		Routine:   routine,
		Pass:      pass,
		Iteration: iteration,
		Err:       err,
		Stack:     string(debug.Stack()),
	}
}

// PanicHook is a fault-injection point for robustness tests: when
// non-nil it runs at the start of every pass of the allocator's round
// and may panic to simulate an allocator bug in that pass. It is
// consulted only there — never by the spill-everywhere fallback — so
// tests can prove that a poisoned round still degrades to a sound
// allocation.
// Production code must leave it nil; it is not consulted concurrently
// with being set (set it before allocating, clear it after).
var PanicHook func(routine, pass string)
