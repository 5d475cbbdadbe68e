// Package parallel fans independent, deterministic simulation runs out
// across a bounded pool of goroutines while keeping every observable
// output byte-identical to serial execution.
//
// The contract every call site relies on:
//
//   - Tasks are identified by index. Results land in a slice at their
//     own index, never in completion order, so callers emit rows/cells
//     in declaration order and the output cannot depend on scheduling.
//   - Each task must be self-contained: it builds its own engine, RNG,
//     and stats, and shares nothing mutable with other tasks. The pool
//     adds no locks around task state because there must be none.
//   - Errors are deterministic too: the error returned is always the
//     one from the lowest failing index whose task ran, which is the
//     same error the serial loop would have returned (every lower index
//     is dispatched earlier and runs to completion).
//   - A panicking task never deadlocks the pool. The panic is captured
//     into a *PanicError carrying the task index and stack so the caller
//     can attach the offending configuration and seed replay recipe.
//
// jobs <= 0 selects runtime.NumCPU(); jobs == 1 runs the tasks inline on
// the calling goroutine — exactly the pre-pool serial path.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a worker-count setting: values >= 1 pass through,
// anything else selects runtime.NumCPU().
func Jobs(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// PanicError is a recovered worker panic. Index identifies the task so
// the caller can name the configuration and seed that crashed; Stack is
// the panicking goroutine's stack at recovery time.
type PanicError struct {
	Index int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Outcome reports which tasks a pool invocation actually ran. Ran[i] is
// true iff fn(i) was invoked (whether or not it succeeded); Skipped
// counts tasks never dequeued because a failure or cancellation stopped
// the pool first. The slice is written strictly before workers exit and
// read only after the pool joins, so the accounting is race-free and
// always satisfies Skipped == n - countTrue(Ran).
type Outcome struct {
	Ran     []bool
	Skipped int
}

// Map runs fn(0) … fn(n-1) on at most jobs workers and returns the
// results indexed by task. On failure it returns the lowest-index error;
// tasks not yet started when a failure is observed are skipped (their
// results stay zero), matching the serial loop's stop-at-first-error
// behavior.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	results, _, err := MapCtx[T](nil, jobs, n, fn)
	return results, err
}

// MapCtx is Map with cooperative cancellation and skipped-task
// accounting. Workers check ctx before every dequeue: once ctx is
// cancelled (or any task fails) no further task starts, in-flight tasks
// drain to completion, and the Outcome records exactly which indexes
// ran. The error is the lowest-index task error when one exists,
// otherwise the context's error. A nil ctx never cancels.
func MapCtx[T any](ctx context.Context, jobs, n int, fn func(i int) (T, error)) ([]T, Outcome, error) {
	results := make([]T, n)
	out := Outcome{Ran: make([]bool, n)}
	if n == 0 {
		return results, out, nil
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(); err != nil {
				out.Skipped = n - i
				return results, out, err
			}
			out.Ran[i] = true
			r, err := call(i, fn)
			if err != nil {
				out.Skipped = n - i - 1
				return results, out, err
			}
			results[i] = r
		}
		return results, out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctxErr() != nil {
					return
				}
				out.Ran[i] = true
				r, err := call(i, fn)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, ran := range out.Ran {
		if !ran {
			out.Skipped++
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, out, err
		}
	}
	return results, out, ctxErr()
}

// ForEach runs fn(0) … fn(n-1) on at most jobs workers with the same
// ordering and error semantics as Map.
func ForEach(jobs, n int, fn func(i int) error) error {
	_, err := Map(jobs, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// call invokes fn(i), converting a panic into a *PanicError.
func call[T any](i int, fn func(i int) (T, error)) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
