package sweep

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"uvmsim/internal/govern"
	"uvmsim/internal/journal"
	"uvmsim/internal/parallel"
	"uvmsim/internal/stats"
)

// Cell retries use the driver's DMA-retry backoff shape: bounded
// exponential starting at retryBase, doubling, capped at retryCap.
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

// retrySleep is time.Sleep behind a variable so tests retry instantly.
var retrySleep = time.Sleep

// CellStatus is one cell's terminal governance outcome.
type CellStatus struct {
	// Label is the cell's replay recipe; Hash its journal key.
	Label string
	Hash  string
	// State is the terminal govern state; Err its message when not
	// completed.
	State govern.State
	Err   string
	// Attempts counts executions of the cell (0 for pool-skipped cells).
	Attempts int
	// Reused marks a cell satisfied from the resume journal without
	// re-running.
	Reused bool
}

// Result is a governed sweep's full outcome: the result table (one row
// per completed cell, cross-product order) plus per-cell statuses. When
// RunContext also returns an error the Result still holds everything
// that finished, so callers can flush partial artifacts before exiting.
type Result struct {
	Table    *stats.Table
	Statuses []CellStatus
	// Reused counts cells replayed from the journal; Skipped counts
	// cells the pool never started because the sweep stopped first.
	Reused  int
	Skipped int
}

// Counts tallies statuses by state. Pool-skipped cells have empty state
// and are not counted.
func (r *Result) Counts() map[govern.State]int {
	m := make(map[govern.State]int)
	for _, st := range r.Statuses {
		if st.State != "" {
			m[st.State]++
		}
	}
	return m
}

// appendRecord journals one outcome; a nil writer journals nothing. A
// journal write failure aborts the sweep — continuing would break the
// resume contract silently.
func appendRecord(jw *journal.Writer, rec journal.Record) error {
	if jw == nil {
		return nil
	}
	if err := jw.Append(rec); err != nil {
		return fmt.Errorf("sweep: journal append: %w", err)
	}
	return nil
}

// safeRunConfig runs one cell, converting a panic into the same
// *parallel.PanicError the pool would have produced, so panics flow
// through status classification and the retry loop like any failure.
func safeRunConfig(s *Spec, c Config, i int) (row []interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parallel.PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return runConfig(s, c)
}

// setCellStatus stamps the governance outcome onto the cell's newest
// observability capture so exports can distinguish complete captures
// from partial ones.
func (s *Spec) setCellStatus(label string, st govern.State) {
	if s.Obs == nil {
		return
	}
	if cell := s.Obs.LastCell(label); cell != nil {
		cell.SetStatus(string(st), st.Code())
	}
}

// RunContext is Run with cancellation, per-cell budgets, retries, and
// crash-safe journaling. Cell outcomes route as follows: completed cells
// emit their row; deadline/livelock cells journal their state and the
// sweep continues without them (budget trips are deterministic — a
// retry or resume would only reproduce them); failed/panicked cells
// retry up to Spec.Retries times with bounded backoff, then abort the
// sweep; cancellation stops new cells, drains in-flight ones, and
// returns ctx's error alongside the partial Result.
func (s *Spec) RunContext(ctx context.Context) (*Result, error) {
	configs, err := s.Configs()
	if err != nil {
		return nil, err
	}
	var prior map[string]journal.Record
	var jw *journal.Writer
	if s.Journal != "" {
		if s.Resume {
			recs, err := journal.Load(s.Journal)
			if err != nil {
				return nil, fmt.Errorf("sweep: resume: %w", err)
			}
			prior = journal.Latest(recs)
			jw, err = journal.Open(s.Journal)
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			jw, err = journal.Create(s.Journal)
			if err != nil {
				return nil, err
			}
		}
		defer jw.Close()
	}
	s.cancel = govern.WatchContext(ctx)

	statuses := make([]CellStatus, len(configs))
	var settled atomic.Int64
	run := func(i int) ([]string, error) {
		// Every run invocation settles exactly one cell (reused, tripped,
		// completed, or aborting the sweep); pool-skipped cells never enter.
		if s.Progress != nil {
			defer func() { s.Progress(int(settled.Add(1)), len(configs)) }()
		}
		c := configs[i]
		id := s.Cell(c).Record()
		st := &statuses[i]
		st.Label, st.Hash = id.Label, id.Hash

		// A record is reused only for the same cell: same hash and the
		// same GPU memory and budgets, which the label leaves out.
		if rec, ok := prior[id.Hash]; ok && rec.Scope == id.Scope {
			switch govern.State(rec.Status) {
			case govern.StateCompleted:
				st.State, st.Attempts, st.Reused = govern.StateCompleted, rec.Attempt, true
				return rec.Row, nil
			case govern.StateDeadline, govern.StateLivelock:
				// Deterministic trips reproduce on rerun; keep the verdict.
				st.State, st.Err = govern.State(rec.Status), rec.Err
				st.Attempts, st.Reused = rec.Attempt, true
				return nil, nil
			}
			// cancelled / failed / panicked records fall through and rerun
		}

		for attempt := 1; ; attempt++ {
			row, err := safeRunConfig(s, c, i)
			rs := govern.StatusOf(err)
			st.State, st.Err, st.Attempts = rs.State, rs.Err, attempt
			s.setCellStatus(id.Label, rs.State)
			rec := id
			rec.Status, rec.Attempt, rec.Err = string(rs.State), attempt, rs.Err
			if rs.State == govern.StateCompleted {
				rendered := stats.RenderCells(row...)
				rec.Row, rec.Digest = rendered, journal.RowDigest(rendered)
				if jerr := appendRecord(jw, rec); jerr != nil {
					return nil, jerr
				}
				return rendered, nil
			}
			if jerr := appendRecord(jw, rec); jerr != nil {
				return nil, jerr
			}
			if rs.State.Retryable() && attempt <= s.Retries {
				retrySleep(govern.Backoff(attempt, retryBase, retryCap))
				continue
			}
			switch rs.State {
			case govern.StateDeadline, govern.StateLivelock:
				return nil, nil // journaled; the sweep goes on without this row
			case govern.StateCancelled:
				// An in-flight cell the cancel flag stopped mid-run: its
				// verdict is journaled, and the run-level context error is
				// what the caller reports — a drained cell is not a failure.
				return nil, nil
			case govern.StatePanicked:
				return nil, fmt.Errorf("sweep cell %s crashed (rerun with -jobs 1 to reproduce): %w", id.Label, err)
			default:
				return nil, fmt.Errorf("sweep cell %s: %w", id.Label, err)
			}
		}
	}

	rows, out, runErr := parallel.MapCtx(ctx, s.Jobs, len(configs), run)
	res := &Result{
		Table: stats.NewTable(fmt.Sprintf("sweep: %s on %d MiB GPU", s.Workload, s.GPUMemoryBytes>>20),
			Headers()...),
		Statuses: statuses,
		Skipped:  out.Skipped,
	}
	for _, row := range rows {
		if row != nil {
			res.Table.AddRenderedRow(row)
		}
	}
	for _, st := range statuses {
		if st.Reused {
			res.Reused++
		}
	}
	return res, runErr
}
