package govern

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"uvmsim/internal/parallel"
	"uvmsim/internal/sim"
)

func TestStatusOfClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want State
	}{
		{"nil", nil, StateCompleted},
		{"cancel", &sim.StopError{Reason: sim.StopCancelled}, StateCancelled},
		{"livelock", &sim.StopError{Reason: sim.StopLivelock}, StateLivelock},
		{"sim budget", &sim.StopError{Reason: sim.StopSimBudget}, StateDeadline},
		{"event budget", &sim.StopError{Reason: sim.StopEventBudget}, StateDeadline},
		{"wrapped stop", fmt.Errorf("cell x: %w", &sim.StopError{Reason: sim.StopLivelock}), StateLivelock},
		{"panic", &parallel.PanicError{Index: 3, Value: "boom"}, StatePanicked},
		{"ctx cancel", context.Canceled, StateCancelled},
		{"ctx deadline", context.DeadlineExceeded, StateCancelled},
		{"plain", errors.New("disk full"), StateFailed},
	}
	for _, tc := range cases {
		st := StatusOf(tc.err)
		if st.State != tc.want {
			t.Errorf("%s: StatusOf = %v, want %v", tc.name, st.State, tc.want)
		}
		if tc.err != nil && st.Err == "" {
			t.Errorf("%s: error message lost", tc.name)
		}
	}
}

func TestRetryable(t *testing.T) {
	for _, s := range []State{StatePanicked, StateFailed} {
		if !s.Retryable() {
			t.Errorf("%v must be retryable", s)
		}
	}
	for _, s := range []State{StateCompleted, StateCancelled, StateDeadline, StateLivelock} {
		if s.Retryable() {
			t.Errorf("%v must not be retryable", s)
		}
	}
}

func TestExitCodes(t *testing.T) {
	cases := map[State]int{
		StateCompleted: 0,
		StateCancelled: 130,
		StateDeadline:  3,
		StateLivelock:  3,
		StatePanicked:  1,
		StateFailed:    1,
	}
	for s, want := range cases {
		if got := ExitCode(s); got != want {
			t.Errorf("ExitCode(%v) = %d, want %d", s, got, want)
		}
	}
}

func TestHTTPStatus(t *testing.T) {
	cases := map[State]int{
		StateCompleted: 200,
		StateCancelled: 503,
		StateDeadline:  422,
		StateLivelock:  422,
		StatePanicked:  500,
		StateFailed:    500,
	}
	for s, want := range cases {
		if got := HTTPStatus(s); got != want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", s, got, want)
		}
	}
}

func TestStateCodesDistinct(t *testing.T) {
	seen := map[uint64]State{}
	for _, s := range []State{StateCompleted, StateCancelled, StateDeadline, StateLivelock, StatePanicked, StateFailed} {
		if prev, ok := seen[s.Code()]; ok {
			t.Errorf("states %v and %v share code %d", prev, s, s.Code())
		}
		seen[s.Code()] = s
	}
}

func TestWatchContextSetsFlagOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := WatchContext(ctx)
	if c.Cancelled() {
		t.Fatal("flag set before cancellation")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Cancelled() {
		if time.Now().After(deadline) {
			t.Fatal("flag never set after context cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !WatchContext(ctx).Cancelled() {
		t.Fatal("flag not set for already-cancelled context")
	}
}

func TestWatchContextNilAndBackground(t *testing.T) {
	if WatchContext(nil).Cancelled() {
		t.Fatal("nil context flag fired")
	}
	if WatchContext(context.Background()).Cancelled() {
		t.Fatal("background context flag fired")
	}
}

func TestBackoff(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{0, 100 * time.Millisecond}, // clamped to 1
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second}, // capped
		{50, time.Second},
	} {
		if got := Backoff(tc.n, base, cap); got != tc.want {
			t.Errorf("Backoff(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}
