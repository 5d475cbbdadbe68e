package sweep

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"uvmsim/internal/govern"
	"uvmsim/internal/journal"
	"uvmsim/internal/sim"
)

// stubSleep replaces the retry backoff sleep for the test's duration.
func stubSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var slept []time.Duration
	old := retrySleep
	retrySleep = func(d time.Duration) { slept = append(slept, d) }
	t.Cleanup(func() { retrySleep = old })
	return &slept
}

func TestRetryBackoffShape(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := govern.Backoff(i+1, retryBase, retryCap); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// A journaled sweep resumed with nothing missing must replay every cell
// from the journal, run zero simulations, and emit a byte-identical
// table.
func TestSweepResumeReplaysCompletedCells(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.jsonl")

	s := smallSpec()
	s.Journal = jpath
	res, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var clean bytes.Buffer
	if err := res.Table.WriteCSV(&clean); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int64
	old := runConfig
	runConfig = func(s *Spec, c Config) ([]interface{}, error) {
		ran.Add(1)
		return old(s, c)
	}
	defer func() { runConfig = old }()

	s2 := smallSpec()
	s2.Journal = jpath
	s2.Resume = true
	res2, err := s2.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("resume re-ran %d cells, want 0", ran.Load())
	}
	if res2.Reused != 6 {
		t.Fatalf("reused = %d, want 6", res2.Reused)
	}
	var resumed bytes.Buffer
	if err := res2.Table.WriteCSV(&resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed table differs from clean run:\n--- clean ---\n%s--- resumed ---\n%s",
			clean.String(), resumed.String())
	}
}

// A transiently-failing cell must be retried with backoff and succeed,
// leaving both attempts in the journal.
func TestSweepRetriesTransientFailure(t *testing.T) {
	slept := stubSleep(t)
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")

	var calls atomic.Int64
	old := runConfig
	runConfig = func(s *Spec, c Config) ([]interface{}, error) {
		if c.Prefetch == "density" && c.Footprint == 0.5 && calls.Add(1) == 1 {
			return nil, errors.New("transient host hiccup")
		}
		return old(s, c)
	}
	defer func() { runConfig = old }()

	s := smallSpec()
	s.Journal = jpath
	s.Retries = 2
	res, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 6 {
		t.Fatalf("table has %d rows, want 6", len(res.Table.Rows))
	}
	if len(*slept) != 1 || (*slept)[0] != 100*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want one 100ms pause", *slept)
	}
	recs, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var failed, completed int
	for _, r := range recs {
		switch govern.State(r.Status) {
		case govern.StateFailed:
			failed++
		case govern.StateCompleted:
			completed++
		}
	}
	if failed != 1 || completed != 6 {
		t.Fatalf("journal has %d failed / %d completed records, want 1/6", failed, completed)
	}
}

// A cell that exhausts its retries must abort the sweep with the replay
// recipe attached.
func TestSweepRetriesExhaustedAborts(t *testing.T) {
	stubSleep(t)
	old := runConfig
	runConfig = func(s *Spec, c Config) ([]interface{}, error) {
		if c.Prefetch == "adaptive" {
			return nil, errors.New("persistent failure")
		}
		return []interface{}{c.Footprint}, nil
	}
	defer func() { runConfig = old }()

	s := smallSpec()
	s.Retries = 2
	_, err := s.RunContext(t.Context())
	if err == nil {
		t.Fatal("exhausted retries did not abort the sweep")
	}
	st := govern.StatusOf(err)
	if st.State != govern.StateFailed {
		t.Fatalf("status = %v, want failed", st.State)
	}
}

// Budget-tripped cells journal their verdict and the sweep continues
// without their rows; on resume they are not re-run.
func TestSweepBudgetTripContinuesAndResumes(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	old := runConfig
	trip := func(s *Spec, c Config) ([]interface{}, error) {
		if c.Prefetch == "none" {
			return nil, &sim.StopError{Reason: sim.StopLivelock, Executed: 5000}
		}
		return old(s, c)
	}
	runConfig = trip
	defer func() { runConfig = old }()

	s := smallSpec()
	s.Journal = jpath
	res, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatalf("budget trip aborted the sweep: %v", err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4 (2 livelocked cells dropped)", len(res.Table.Rows))
	}
	if res.Counts()[govern.StateLivelock] != 2 {
		t.Fatalf("counts = %v, want 2 livelocked", res.Counts())
	}

	// Resume must trust the deterministic verdict and not re-run them.
	var reran atomic.Int64
	runConfig = func(s *Spec, c Config) ([]interface{}, error) {
		reran.Add(1)
		return trip(s, c)
	}
	s2 := smallSpec()
	s2.Journal = jpath
	s2.Resume = true
	res2, err := s2.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("resume re-ran %d cells, want 0", reran.Load())
	}
	if res2.Counts()[govern.StateLivelock] != 2 || len(res2.Table.Rows) != 4 {
		t.Fatalf("resume verdicts lost: counts=%v rows=%d", res2.Counts(), len(res2.Table.Rows))
	}
}

// Cancelling the sweep context mid-run must stop dequeuing, journal
// what finished, and return the context error with a partial Result.
func TestSweepCancelReturnsPartialResult(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	old := runConfig
	runConfig = func(s *Spec, c Config) ([]interface{}, error) {
		if calls.Add(1) == 2 {
			cancel()
		}
		return old(s, c)
	}
	defer func() { runConfig = old }()

	s := smallSpec()
	s.Journal = jpath
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned on cancellation")
	}
	if res.Skipped == 0 {
		t.Fatal("no cells skipped after cancellation")
	}
	recs, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("journal empty: finished cells were not recorded")
	}
	for _, r := range recs {
		// In-flight cells may have been stopped by the flag; either way
		// every journaled verdict must be terminal and well-formed.
		st := govern.State(r.Status)
		if st != govern.StateCompleted && st != govern.StateCancelled {
			t.Fatalf("journal record %+v, want completed or cancelled", r)
		}
		if st == govern.StateCompleted && r.Digest != journal.RowDigest(r.Row) {
			t.Fatalf("journal record %+v has a bad digest", r)
		}
	}
}

// resumeTable runs s against the journal at jpath, optionally resuming,
// and returns the rendered table and the result.
func resumeTable(t *testing.T, s *Spec, jpath string, resume bool) ([]byte, *Result) {
	t.Helper()
	s.Journal, s.Resume = jpath, resume
	res, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// A journal written on a 32 MiB GPU must not satisfy a resume on a
// 16 MiB GPU: the label omits GPU memory, so the hashes collide, but the
// rows differ.
func TestSweepResumeIgnoresOtherGPUMemory(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	big := smallSpec()
	big.GPUMemoryBytes = 32 << 20
	resumeTable(t, big, jpath, false)

	fresh, _ := resumeTable(t, smallSpec(), filepath.Join(t.TempDir(), "fresh.jsonl"), false)
	resumed, res := resumeTable(t, smallSpec(), jpath, true)
	if res.Reused != 0 {
		t.Errorf("reused %d records journaled at 32 MiB", res.Reused)
	}
	if !bytes.Equal(resumed, fresh) {
		t.Errorf("resumed table differs from a fresh 16 MiB run:\n--- fresh ---\n%s--- resumed ---\n%s", fresh, resumed)
	}
}

// A deadline verdict reached under an event budget must not be reused
// once the budget is removed: the unbudgeted cell completes.
func TestSweepResumeIgnoresOtherBudget(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	tight := smallSpec()
	tight.Budget = sim.Budget{MaxEvents: 1000}
	_, res := resumeTable(t, tight, jpath, false)
	if res.Counts()[govern.StateDeadline] == 0 {
		t.Fatalf("budgeted run tripped no deadline: %v", res.Counts())
	}

	fresh, _ := resumeTable(t, smallSpec(), filepath.Join(t.TempDir(), "fresh.jsonl"), false)
	resumed, res := resumeTable(t, smallSpec(), jpath, true)
	if res.Reused != 0 || res.Counts()[govern.StateDeadline] != 0 {
		t.Errorf("reused %d budgeted verdicts (counts %v)", res.Reused, res.Counts())
	}
	if !bytes.Equal(resumed, fresh) {
		t.Errorf("resumed table differs from a fresh unbudgeted run:\n--- fresh ---\n%s--- resumed ---\n%s", fresh, resumed)
	}
}

// A record from a journal that predates the scope fields is never
// reused: the cell reruns, and the table is still byte-identical.
func TestSweepResumeRerunsScopelessRecords(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.jsonl")
	clean, _ := resumeTable(t, smallSpec(), jpath, false)
	recs, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Scope = journal.Scope{}
	}
	if err := journal.Compact(jpath, recs); err != nil {
		t.Fatal(err)
	}
	resumed, res := resumeTable(t, smallSpec(), jpath, true)
	if res.Reused != 0 {
		t.Errorf("reused %d scopeless records", res.Reused)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("resumed table differs from clean run")
	}
}
