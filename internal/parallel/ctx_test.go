package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func TestMapCtxNilContextMatchesMap(t *testing.T) {
	results, out, err := MapCtx(nil, 4, 16, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("results[%d] = %d", i, r)
		}
	}
	if out.Skipped != 0 || countTrue(out.Ran) != 16 {
		t.Fatalf("outcome = %+v, want all 16 ran", out)
	}
}

func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		var calls atomic.Int64
		_, out, err := MapCtx(ctx, jobs, 8, func(i int) (int, error) {
			calls.Add(1)
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if calls.Load() != 0 || out.Skipped != 8 {
			t.Fatalf("jobs=%d: %d tasks ran, outcome %+v; want none", jobs, calls.Load(), out)
		}
	}
}

// Cancelling mid-run must stop further dequeues while letting in-flight
// tasks drain, with the outcome accounting exactly for what ran.
func TestMapCtxCancelStopsDequeue(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	_, out, err := MapCtx(ctx, 4, n, func(i int) (int, error) {
		if i == 7 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Skipped == 0 {
		t.Fatal("no tasks skipped after cancellation")
	}
	if got := countTrue(out.Ran); got+out.Skipped != n {
		t.Fatalf("ran %d + skipped %d != %d", got, out.Skipped, n)
	}
	if !out.Ran[7] {
		t.Fatal("the cancelling task itself must be marked as ran")
	}
}

// At jobs=1 the skipped count is fully deterministic: exactly the tasks
// after the cancellation point.
func TestMapCtxSerialCancelDeterministic(t *testing.T) {
	const n, k = 10, 3
	ctx, cancel := context.WithCancel(context.Background())
	_, out, err := MapCtx(ctx, 1, n, func(i int) (int, error) {
		if i == k {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if out.Skipped != n-k-1 {
		t.Fatalf("skipped = %d, want %d", out.Skipped, n-k-1)
	}
	for i := range out.Ran {
		if want := i <= k; out.Ran[i] != want {
			t.Fatalf("Ran[%d] = %v, want %v", i, out.Ran[i], want)
		}
	}
}

// A task error still wins over the context error and stops the pool
// with accurate skip accounting.
func TestMapCtxTaskErrorBeatsContext(t *testing.T) {
	boom := errors.New("boom")
	_, out, err := MapCtx(context.Background(), 1, 5, func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out.Skipped != 2 || countTrue(out.Ran) != 3 {
		t.Fatalf("outcome = %+v, want 3 ran / 2 skipped", out)
	}
}

func TestMapCtxPanicAccounting(t *testing.T) {
	_, out, err := MapCtx(context.Background(), 1, 6, func(i int) (int, error) {
		if i == 1 {
			panic("die")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("err = %v, want PanicError at index 1", err)
	}
	if out.Skipped != 4 || !out.Ran[1] {
		t.Fatalf("outcome = %+v, want panicking task ran and 4 skipped", out)
	}
}
