package sim

import (
	"fmt"
	"sync/atomic"
)

// Run governance: the engine's dispatch loop can be bounded and
// cancelled without giving up its alloc-free hot path. Three mechanisms
// compose:
//
//   - A shared Cancel flag, polled every cancelCheckEvery events, lets a
//     signal handler or context stop many engines cooperatively. The
//     same poll answers sample requests, so a controller on another
//     goroutine can observe a running model without touching it.
//   - A Budget bounds simulated time, total event count, and forward
//     progress (the livelock window) deterministically: the same budget
//     stops the same run at the same event on every host.
//   - The first tripped condition latches a StopReason; the run then
//     refuses to dispatch further events and the caller turns the reason
//     into a structured run status.
//
// All checks are plain field compares plus (at the polling cadence) one
// atomic load; nothing on this path allocates, which the engine
// benchmarks' allocs/op guard enforces.

// cancelCheckEvery is the dispatch cadence (in events) at which the
// shared cancellation flag is polled. Power of two so the check is a
// mask, not a division.
const cancelCheckEvery = 64

// Cancel is a cooperative cancellation flag shared between a controller
// (signal handler, context watcher, test) and any number of engines.
// The zero value is ready to use; Set and RequestSample may be called
// from any goroutine and are idempotent.
type Cancel struct {
	state  atomic.Uint32 // cancelBit | sampleBit
	sample func()
}

const (
	cancelBit uint32 = 1 << iota
	sampleBit
)

// Set requests cancellation of every engine polling this flag.
func (c *Cancel) Set() { c.raise(cancelBit) }

// Cancelled reports whether cancellation was requested.
func (c *Cancel) Cancelled() bool { return c.state.Load()&cancelBit != 0 }

// OnSample installs the hook RequestSample triggers. Install it before
// the run starts. The hook runs on the goroutine of the engine that
// answers the request, between two events, so it may read any model
// state that engine drives.
func (c *Cancel) OnSample(fn func()) { c.sample = fn }

// RequestSample asks the next engine that polls this flag to run the
// OnSample hook. Requests made before an answer coalesce into one.
func (c *Cancel) RequestSample() { c.raise(sampleBit) }

func (c *Cancel) raise(bit uint32) {
	for {
		s := c.state.Load()
		if s&bit != 0 || c.state.CompareAndSwap(s, s|bit) {
			return
		}
	}
}

// poll reports whether cancellation was requested, first answering a
// pending sample request. With nothing requested it costs one atomic
// load, as a plain flag would.
func (c *Cancel) poll() bool {
	s := c.state.Load()
	if s == 0 {
		return false
	}
	if s&cancelBit != 0 {
		return true
	}
	// A Set racing this answer fails the swap; the next poll sees it.
	if c.state.CompareAndSwap(sampleBit, 0) && c.sample != nil {
		c.sample()
	}
	return false
}

// Budget bounds one engine's run. The zero value is unlimited; each
// field is independent and zero disables that bound. All three bounds
// are functions of simulated state only, so a budgeted run stops at the
// same event regardless of host speed or worker count.
type Budget struct {
	// SimDeadline stops the run before dispatching any event scheduled
	// after this clock value.
	SimDeadline Time
	// MaxEvents stops the run once this many events have dispatched.
	MaxEvents uint64
	// LivelockWindow stops the run when this many consecutive events
	// dispatch without the clock advancing — the signature of a
	// zero-delay scheduling loop that would otherwise spin forever.
	LivelockWindow uint64
}

// Active reports whether any bound is set.
func (b Budget) Active() bool {
	return b.SimDeadline > 0 || b.MaxEvents > 0 || b.LivelockWindow > 0
}

// StopReason explains why a governed engine refused to continue.
type StopReason uint8

// Stop reasons. StopNone means the engine ran (or is running) normally.
const (
	StopNone StopReason = iota
	// StopCancelled: the shared Cancel flag was set.
	StopCancelled
	// StopSimBudget: the next event lies beyond Budget.SimDeadline.
	StopSimBudget
	// StopEventBudget: Budget.MaxEvents events have dispatched.
	StopEventBudget
	// StopLivelock: Budget.LivelockWindow events ran without the clock
	// advancing.
	StopLivelock
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCancelled:
		return "cancelled"
	case StopSimBudget:
		return "sim-budget"
	case StopEventBudget:
		return "event-budget"
	case StopLivelock:
		return "livelock"
	default:
		return fmt.Sprintf("stop(%d)", int(r))
	}
}

// StopError is the structured error a governed run terminates with. It
// records where the engine stopped so budget trips are diagnosable
// ("livelock after 1e6 events at 42ms") and replayable.
type StopError struct {
	Reason   StopReason
	Now      Time
	Executed uint64
}

func (e *StopError) Error() string {
	return fmt.Sprintf("sim: run stopped (%v) after %d events at t=%v", e.Reason, e.Executed, e.Now)
}

// SetCancel installs the shared cancellation flag (nil removes it). The
// flag is polled every cancelCheckEvery dispatched events.
func (e *Engine) SetCancel(c *Cancel) {
	e.cancel = c
	e.governed = e.cancel != nil || e.budget.Active()
}

// SetBudget installs the run budget (the zero Budget removes all bounds).
// The livelock window restarts from the current event count so a bound
// installed mid-run cannot trip on history it never watched.
func (e *Engine) SetBudget(b Budget) {
	e.budget = b
	e.lastAdvance = e.executed
	e.governed = e.cancel != nil || e.budget.Active()
}

// StopReason reports why the engine refused to dispatch further events,
// or StopNone while it is running normally. The reason latches: once
// set, Step and Run return immediately until ClearStop.
func (e *Engine) StopReason() StopReason { return e.stop }

// ClearStop resets a latched stop so the engine can be reused (e.g. a
// follow-up kernel on the same system after a budget trip in a test).
// It does not clear the Cancel flag, which the controller owns. The
// livelock window restarts so the cleared run gets a full window of
// grace before the detector can trip again.
func (e *Engine) ClearStop() {
	e.stop = StopNone
	e.lastAdvance = e.executed
}

// checkGovern evaluates the governance conditions against the next
// pending event and latches the first violated one. Called from Step
// only while e.governed; never allocates.
func (e *Engine) checkGovern() bool {
	if e.stop != StopNone {
		return true
	}
	b := &e.budget
	if b.MaxEvents > 0 && e.executed >= b.MaxEvents {
		e.stop = StopEventBudget
		return true
	}
	if b.LivelockWindow > 0 && e.executed-e.lastAdvance >= b.LivelockWindow {
		e.stop = StopLivelock
		return true
	}
	if b.SimDeadline > 0 && e.events[0].at > b.SimDeadline {
		e.stop = StopSimBudget
		return true
	}
	if e.cancel != nil && e.executed&(cancelCheckEvery-1) == 0 && e.cancel.poll() {
		e.stop = StopCancelled
		return true
	}
	return false
}
