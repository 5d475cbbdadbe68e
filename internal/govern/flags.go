package govern

import (
	"context"
	"flag"
	"os/signal"
	"syscall"
	"time"

	"uvmsim/internal/sim"
)

// Flags is the standard run-governance flag set shared by every CLI:
// one host wall-clock deadline for the whole invocation, plus the three
// deterministic per-run budgets.
type Flags struct {
	// Deadline bounds the whole invocation on the host clock; 0 is
	// unlimited. Exceeding it behaves exactly like SIGINT: in-flight
	// cells drain, partial artifacts flush, the process exits 130.
	Deadline time.Duration
	// SimBudget bounds each run's simulated clock; 0 is unlimited.
	SimBudget time.Duration
	// MaxEvents bounds each run's dispatched event count; 0 is unlimited.
	MaxEvents uint64
	// LivelockEvents is the no-forward-progress window in events; 0
	// disables the livelock detector.
	LivelockEvents uint64
}

// Register installs the governance flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.Deadline, "deadline", 0,
		"host wall-clock budget for the whole invocation (e.g. 10m); exceeded = graceful cancel, exit 130")
	fs.DurationVar(&f.SimBudget, "sim-budget", 0,
		"simulated-time budget per run (e.g. 500ms of simulated time); exceeded cells stop with status deadline")
	fs.Uint64Var(&f.MaxEvents, "max-events", 0,
		"event-count budget per run; exceeded cells stop with status deadline")
	fs.Uint64Var(&f.LivelockEvents, "livelock-events", 0,
		"livelock window: stop a run after this many events without simulated-clock progress")
}

// Budget converts the per-run flag values to an engine budget.
func (f *Flags) Budget() sim.Budget {
	return sim.Budget{
		SimDeadline:    sim.Time(f.SimBudget.Nanoseconds()),
		MaxEvents:      f.MaxEvents,
		LivelockWindow: f.LivelockEvents,
	}
}

// Context returns the invocation context: cancelled by SIGINT/SIGTERM
// (graceful shutdown) and, when -deadline is set, by the wall-clock
// budget. Call stop when the run finishes to restore default signal
// handling (a second SIGINT then kills the process immediately).
func (f *Flags) Context() (ctx context.Context, stop context.CancelFunc) {
	ctx, sigStop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	if f.Deadline <= 0 {
		return ctx, sigStop
	}
	ctx, timeStop := context.WithTimeout(ctx, f.Deadline)
	return ctx, func() { timeStop(); sigStop() }
}
