// Package govern classifies how governed runs terminate and bridges the
// host world (contexts, signals, CLI flags) to the simulator's
// cooperative cancellation and budget machinery in internal/sim. Every
// run in the stack — an experiment cell, a sweep cell, a chaos run —
// ends with a structured RunStatus instead of an ambiguous error, so
// sweeps can journal outcomes, retries can distinguish transient
// failures from deterministic budget trips, and CLIs can exit with
// meaningful codes.
package govern

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"uvmsim/internal/parallel"
	"uvmsim/internal/sim"
)

// State is a run's terminal state.
type State string

// Terminal run states.
const (
	// StateCompleted: the run finished normally.
	StateCompleted State = "completed"
	// StateCancelled: the run was stopped by SIGINT/SIGTERM, a context,
	// or the run-level wall-clock deadline.
	StateCancelled State = "cancelled"
	// StateDeadline: a deterministic per-run budget (simulated time or
	// event count) tripped.
	StateDeadline State = "deadline"
	// StateLivelock: the no-forward-progress detector tripped.
	StateLivelock State = "livelock"
	// StatePanicked: the run's goroutine panicked and was recovered.
	StatePanicked State = "panicked"
	// StateFailed: the run returned an ordinary error.
	StateFailed State = "failed"
	// StateQuarantined: the distributed sweep fabric exhausted a cell's
	// retry budget (repeated worker deaths or failures on the same cell)
	// and removed the cell from scheduling. A quarantined cell is a
	// poison verdict about the cell, not the fleet: the sweep continues
	// without its row and reports the quarantine.
	StateQuarantined State = "quarantined"
)

// Code returns a stable numeric encoding for metric export.
func (s State) Code() uint64 {
	switch s {
	case StateCompleted:
		return 0
	case StateCancelled:
		return 1
	case StateDeadline:
		return 2
	case StateLivelock:
		return 3
	case StatePanicked:
		return 4
	case StateFailed:
		return 5
	default: // quarantined and any future state
		return 6
	}
}

// Retryable reports whether re-running can plausibly change the
// outcome. Budget trips and livelocks are deterministic functions of
// the configuration — rerunning reproduces them — and cancellation is
// an external decision; only panics and ordinary failures may be
// transient (host OOM, exhausted descriptors) and earn a retry.
func (s State) Retryable() bool {
	return s == StatePanicked || s == StateFailed
}

// RunStatus is the structured outcome every governed run terminates
// with.
type RunStatus struct {
	State State  `json:"state"`
	Err   string `json:"err,omitempty"`
}

// statusHook, when armed, observes every abnormal terminal
// classification (anything but completed). The telemetry layer arms it
// to feed the flight recorder and trigger dumps on budget overruns and
// recovered invariant panics; the default is nil and costs one atomic
// load per classification — StatusOf is off every simulation hot path.
var statusHook atomic.Pointer[func(RunStatus)]

// SetStatusHook installs (or, with nil, clears) the process-wide
// abnormal-outcome observer. The hook must be goroutine-safe: sweeps
// classify cell outcomes concurrently.
func SetStatusHook(hook func(RunStatus)) {
	if hook == nil {
		statusHook.Store(nil)
		return
	}
	statusHook.Store(&hook)
}

// notify delivers st to the armed hook, if any.
func notify(st RunStatus) RunStatus {
	if st.State != StateCompleted {
		if h := statusHook.Load(); h != nil {
			(*h)(st)
		}
	}
	return st
}

// StatusOf classifies a run error into a RunStatus. nil is a completed
// run; engine stop errors map onto cancelled/deadline/livelock; pool
// panics map to panicked; context cancellation maps to cancelled;
// everything else is failed. Abnormal outcomes are reported to the
// status hook (see SetStatusHook).
func StatusOf(err error) RunStatus {
	if err == nil {
		return RunStatus{State: StateCompleted}
	}
	var stop *sim.StopError
	if errors.As(err, &stop) {
		switch stop.Reason {
		case sim.StopCancelled:
			return notify(RunStatus{State: StateCancelled, Err: err.Error()})
		case sim.StopLivelock:
			return notify(RunStatus{State: StateLivelock, Err: err.Error()})
		default:
			return notify(RunStatus{State: StateDeadline, Err: err.Error()})
		}
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return notify(RunStatus{State: StatePanicked, Err: err.Error()})
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return notify(RunStatus{State: StateCancelled, Err: err.Error()})
	}
	return notify(RunStatus{State: StateFailed, Err: err.Error()})
}

// WatchContext returns a sim.Cancel that is Set when ctx is cancelled,
// bridging host-side cancellation (signals, deadlines) into every
// engine polling the flag. A nil or never-cancellable context returns a
// flag that never fires without spawning a goroutine.
func WatchContext(ctx context.Context) *sim.Cancel {
	c := &sim.Cancel{}
	if ctx == nil || ctx.Done() == nil {
		return c
	}
	if ctx.Err() != nil {
		c.Set()
		return c
	}
	go func() {
		<-ctx.Done()
		c.Set()
	}()
	return c
}

// HTTPStatus maps a terminal state onto the serving layer's response
// code contract. Completed runs are 200. Cancelled runs are 503: the
// server was told to stop (drain, request timeout), which is not the
// configuration's fault — the same request can succeed later.
// Deterministic budget trips are 422: the configuration can never
// complete under its budget, so retrying is pointless. Panics and
// ordinary failures are 500.
func HTTPStatus(s State) int {
	switch s {
	case StateCompleted:
		return http.StatusOK
	case StateCancelled:
		return http.StatusServiceUnavailable
	case StateDeadline, StateLivelock:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// Exit codes for governed CLIs. Cancellation exits with the
// conventional 128+SIGINT so wrapping scripts can distinguish "user
// stopped it" (resumable) from "it failed".
const (
	ExitOK        = 0
	ExitFailure   = 1
	ExitUsage     = 2
	ExitBudget    = 3
	ExitCancelled = 130
)

// ExitCode maps a terminal state to the CLI exit code contract.
func ExitCode(s State) int {
	switch s {
	case StateCompleted:
		return ExitOK
	case StateCancelled:
		return ExitCancelled
	case StateDeadline, StateLivelock:
		return ExitBudget
	default:
		return ExitFailure
	}
}

// Backoff is the capped exponential pause before retry n (1-based; n < 1
// counts as 1): base doubled n-1 times, never above cap. Sweep cell
// retries, dist lease reassignment, and the serve client share it.
func Backoff(n int, base, cap time.Duration) time.Duration {
	d := base
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	return min(d, cap)
}
