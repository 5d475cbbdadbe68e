package sim

import (
	"testing"
)

// A zero-delay self-rescheduling event is the canonical livelock: the
// queue never drains and the clock never moves. The livelock window
// must stop it; without governance the loop would spin forever.
func TestLivelockWindowStopsZeroDelayLoop(t *testing.T) {
	e := NewEngine()
	e.SetBudget(Budget{LivelockWindow: 1000})
	var spin func()
	spin = func() { e.At(e.Now(), spin) }
	e.At(0, spin)
	e.Run()
	if got := e.StopReason(); got != StopLivelock {
		t.Fatalf("StopReason = %v, want %v", got, StopLivelock)
	}
	if e.Executed() > 1100 {
		t.Errorf("livelock detector let %d events run past a window of 1000", e.Executed())
	}
	// The stop latches: no further dispatch until cleared.
	if e.Step() {
		t.Error("Step dispatched after a latched stop")
	}
	e.ClearStop()
	if !e.Step() {
		t.Error("ClearStop did not re-arm dispatch")
	}
}

// A timer chain that advances the clock every event must NOT trip the
// livelock window.
func TestLivelockWindowIgnoresForwardProgress(t *testing.T) {
	e := NewEngine()
	e.SetBudget(Budget{LivelockWindow: 16})
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if got := e.StopReason(); got != StopNone {
		t.Fatalf("StopReason = %v for a progressing chain, want none", got)
	}
	if n != 1000 {
		t.Fatalf("chain ran %d steps, want 1000", n)
	}
}

// MaxEvents stops a run after exactly the budgeted number of dispatches.
func TestEventBudget(t *testing.T) {
	e := NewEngine()
	e.SetBudget(Budget{MaxEvents: 100})
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	e.Run()
	if got := e.StopReason(); got != StopEventBudget {
		t.Fatalf("StopReason = %v, want %v", got, StopEventBudget)
	}
	if e.Executed() != 100 {
		t.Errorf("executed %d events, budget is 100", e.Executed())
	}
}

// SimDeadline stops the run before dispatching past the deadline; the
// clock never exceeds it.
func TestSimDeadline(t *testing.T) {
	e := NewEngine()
	e.SetBudget(Budget{SimDeadline: 50})
	var tick func()
	tick = func() { e.After(10, tick) }
	e.After(10, tick)
	e.Run()
	if got := e.StopReason(); got != StopSimBudget {
		t.Fatalf("StopReason = %v, want %v", got, StopSimBudget)
	}
	if e.Now() > 50 {
		t.Errorf("clock at %v, deadline was 50ns", e.Now())
	}
	if e.Pending() == 0 {
		t.Error("deadline stop drained the queue; the pending event should remain")
	}
}

// Setting the shared Cancel flag stops every engine polling it, within
// one polling cadence of events.
func TestCancelFlagStopsRun(t *testing.T) {
	c := &Cancel{}
	e := NewEngine()
	e.SetCancel(c)
	n := 0
	var tick func()
	tick = func() {
		if n++; n == 10 {
			c.Set()
		}
		e.After(1, tick)
	}
	e.After(1, tick)
	e.Run()
	if got := e.StopReason(); got != StopCancelled {
		t.Fatalf("StopReason = %v, want %v", got, StopCancelled)
	}
	if uint64(n) > 10+cancelCheckEvery {
		t.Errorf("cancellation took %d events, polling cadence is %d", n-10, cancelCheckEvery)
	}
}

// A sample request is answered by the engine itself, at its next poll,
// once per request, and never stops the run. A request on a cancelled
// flag is not answered.
func TestSampleRequestAnsweredAtPoll(t *testing.T) {
	c := &Cancel{}
	e := NewEngine()
	e.SetCancel(c)
	var at []uint64
	c.OnSample(func() { at = append(at, e.Executed()) })
	n := 0
	var tick func()
	tick = func() {
		if n++; n == 100 || n == 101 {
			c.RequestSample()
		}
		if n < 300 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	c.RequestSample()
	e.Run()
	if got := e.StopReason(); got != StopNone {
		t.Fatalf("StopReason = %v, want none", got)
	}
	if n != 300 || len(at) != 2 || at[0] != 0 || at[1] != 2*cancelCheckEvery {
		t.Fatalf("ran %d events, samples at %v; want 300 events, samples at [0 %d]", n, at, 2*cancelCheckEvery)
	}

	c.RequestSample()
	c.Set()
	e = NewEngine()
	e.SetCancel(c)
	e.After(1, func() {})
	e.Run()
	if len(at) != 2 || e.StopReason() != StopCancelled {
		t.Fatalf("samples at %v, stop %v; want no sample after cancel", at, e.StopReason())
	}
}

// Requests from another goroutine while the engine runs are answered on
// the engine's goroutine: the hook's plain counter would be a data race
// under -race otherwise.
func TestSampleRequestsFromAnotherGoroutine(t *testing.T) {
	c := &Cancel{}
	e := NewEngine()
	e.SetCancel(c)
	samples := 0
	c.OnSample(func() { samples++ })
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 200000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
				c.RequestSample()
			}
		}
	}()
	e.Run()
	close(done)
	<-exited
	if e.StopReason() != StopNone || n != 200000 {
		t.Fatalf("stop %v after %d events; sample requests must not stop the run", e.StopReason(), n)
	}
	if samples > 200000/cancelCheckEvery+1 {
		t.Fatalf("%d samples in %d events; at most one per poll", samples, n)
	}
}

// An ungoverned engine must behave exactly as before: no stop reason,
// full drain.
func TestUngovernedRunsToCompletion(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 500 {
			e.At(e.Now(), tick) // zero-delay loop, bounded only by n
		}
	}
	e.At(0, tick)
	e.Run()
	if e.StopReason() != StopNone || n != 500 {
		t.Fatalf("ungoverned run: stop=%v n=%d", e.StopReason(), n)
	}
}

// Governance must add zero allocations to the dispatch loop.
func TestGovernedDispatchAllocFree(t *testing.T) {
	c := &Cancel{}
	e := NewEngine()
	e.SetCancel(c)
	e.SetBudget(Budget{MaxEvents: 1 << 40, SimDeadline: MaxTime - 1, LivelockWindow: 1 << 40})
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			e.At(e.Now()+Time(j%7), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("governed dispatch allocates %.1f per run, want 0", allocs)
	}
}

func TestStopErrorMessage(t *testing.T) {
	err := &StopError{Reason: StopLivelock, Now: 1500, Executed: 42}
	for _, want := range []string{"livelock", "42", "1.50us"} {
		if !contains(err.Error(), want) {
			t.Errorf("StopError %q misses %q", err.Error(), want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
