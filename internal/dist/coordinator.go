package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"uvmsim/internal/govern"
	"uvmsim/internal/journal"
	"uvmsim/internal/obs"
	"uvmsim/internal/serve"
	"uvmsim/internal/stats"
	"uvmsim/internal/sweep"
	"uvmsim/internal/telemetry"
)

// Coordinator metric names, registered in the obs metrics registry so
// lease-fabric health is observable with the same machinery as every
// other subsystem.
const (
	MetricLeasesGranted = "dist_leases_granted_total"
	MetricLeasesExpired = "dist_leases_expired_total"
	MetricRenewals      = "dist_lease_renewals_total"
	MetricRetries       = "dist_retries_total"
	MetricCompleted     = "dist_cells_completed_total"
	MetricSkipped       = "dist_cells_skipped_total"
	MetricQuarantined   = "dist_quarantined_total"
	MetricDuplicates    = "dist_duplicate_completions_total"
	MetricBadReports    = "dist_bad_reports_total"
	MetricCacheFills    = "dist_cachefills_total"
	MetricFillErrors    = "dist_cachefill_errors_total"
)

// CoordinatorConfig tunes the lease fabric. Zero values select the
// defaults noted on each field.
type CoordinatorConfig struct {
	// LeaseTTL is how long a grant lives between heartbeats (default
	// 15s). Workers renew at a fraction of this.
	LeaseTTL time.Duration
	// RetryBudget is how many times a cell may be re-granted after its
	// first lease (expiry or worker-reported transient failure), before
	// it is quarantined (default 3).
	RetryBudget int
	// BackoffBase/BackoffCap shape the capped exponential pause before a
	// returned cell becomes leasable again (defaults 500ms / 10s).
	BackoffBase, BackoffCap time.Duration
	// Journal, when set, persists every grant, expiry, and terminal
	// outcome to this crash-safe JSONL file; Resume replays it first so
	// a restarted coordinator reuses completed rows.
	Journal string
	Resume  bool
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Log receives structured lease-lifecycle lines (grants,
	// completions, quarantines); nil logs nothing.
	Log *slog.Logger
	// TraceID is the sweep's root telemetry trace; per-cell traces
	// derive from it. Empty mints a fresh root.
	TraceID string
	// Flight is the process flight recorder; when set with FlightDir,
	// quarantines dump it, and Handler exposes GET /debug/flightrec.
	Flight    *telemetry.Flight
	FlightDir string
	// CacheFill, when set, is called once per freshly completed cell with
	// the cell's rendered row — the write-through hook the cache tier
	// (internal/cachetier) plugs in. Fills run asynchronously under the
	// cell's telemetry trace and are strictly best-effort: an error is
	// counted, never retried, and never affects the sweep.
	CacheFill func(ctx context.Context, cs CellSpec, row []string) error
	// ExtraMetrics, when set, contributes additional samples to the
	// /metrics exposition (e.g. the cache tier's breaker counters).
	ExtraMetrics func() []obs.Sample
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	} else if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.TraceID == "" {
		c.TraceID = telemetry.NewID()
	}
	return c
}

// cellState is the coordinator-side lifecycle of one cell.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone        // completed: row held
	cellSkipped     // deterministic budget trip: deadline or livelock
	cellQuarantined // retry budget exhausted
)

type cell struct {
	idx       int
	spec      CellSpec
	id        journal.Record // label, hash, seed, and scope; every record starts here
	state     cellState
	attempt   int       // lease grants consumed (1-based once granted)
	notBefore time.Time // backoff gate while pending
	leaseID   string    // current lease when cellLeased
	row       []string  // rendered row when cellDone
	status    govern.State
	errMsg    string
	reused    bool // satisfied from the resume journal
}

// Coordinator owns the cell queue, the lease table, the journal, and
// the merged result. All state lives behind one mutex; the work happens
// in workers, so the coordinator's lock is never on a hot path.
type Coordinator struct {
	spec *sweep.Spec
	cfg  CoordinatorConfig

	mu       sync.Mutex
	cells    []*cell
	byHash   map[string]*cell
	leases   map[string]*cell
	leaseSeq int
	reg      *obs.Registry
	red      *telemetry.RED
	jw       *journal.Writer
	finished bool
	fatalErr error
	done     chan struct{}

	fillWG sync.WaitGroup // in-flight write-through cache fills
}

// traceOf derives a cell's stable telemetry trace from the sweep root.
func (co *Coordinator) traceOf(cl *cell) string {
	return telemetry.CellTraceID(co.cfg.TraceID, cl.idx)
}

// TraceID returns the sweep's root telemetry trace.
func (co *Coordinator) TraceID() string { return co.cfg.TraceID }

// NewCoordinator enumerates the sweep's cells (validating the spec up
// front, exactly like the in-process path), replays the resume journal
// when configured, and returns a coordinator ready to serve leases.
func NewCoordinator(spec *sweep.Spec, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	configs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		spec:   spec,
		cfg:    cfg,
		byHash: make(map[string]*cell, len(configs)),
		leases: make(map[string]*cell),
		reg:    obs.NewRegistry(),
		red:    telemetry.NewRED("dist_http"),
		done:   make(chan struct{}),
	}
	for _, name := range []string{
		MetricLeasesGranted, MetricLeasesExpired, MetricRenewals, MetricRetries,
		MetricCompleted, MetricSkipped, MetricQuarantined, MetricDuplicates, MetricBadReports,
		MetricCacheFills, MetricFillErrors,
	} {
		co.reg.Counter(name)
	}
	co.cells = make([]*cell, len(configs))
	for i, c := range configs {
		cs := spec.Cell(c)
		cl := &cell{idx: i, spec: cs, id: cs.Record()}
		co.cells[i] = cl
		co.byHash[cl.id.Hash] = cl
	}

	var prior map[string]journal.Record
	if cfg.Journal != "" {
		if cfg.Resume {
			recs, err := journal.Load(cfg.Journal)
			if err != nil {
				return nil, fmt.Errorf("dist: resume: %w", err)
			}
			prior = journal.Latest(recs)
			co.jw, err = journal.Open(cfg.Journal)
			if err != nil {
				return nil, err
			}
		} else {
			co.jw, err = journal.Create(cfg.Journal)
			if err != nil {
				return nil, err
			}
		}
	}
	for _, cl := range co.cells {
		rec, ok := prior[cl.id.Hash]
		if !ok || rec.Scope != cl.id.Scope {
			continue // a record for another GPU memory or budget is not this cell's
		}
		switch govern.State(rec.Status) {
		case govern.StateCompleted:
			cl.state, cl.status, cl.row = cellDone, govern.StateCompleted, rec.Row
			cl.attempt, cl.reused = rec.Attempt, true
			co.reg.Counter(MetricCompleted).Inc(1)
		case govern.StateDeadline, govern.StateLivelock:
			// Deterministic trips reproduce on rerun; keep the verdict.
			cl.state, cl.status, cl.errMsg = cellSkipped, govern.State(rec.Status), rec.Err
			cl.attempt, cl.reused = rec.Attempt, true
			co.reg.Counter(MetricSkipped).Inc(1)
		default:
			// leased / expired / failed / panicked / quarantined /
			// cancelled: the cell never finished — rerun it, but carry the
			// attempt count so a crash-looping coordinator cannot grant a
			// poison cell unboundedly. (A resumed quarantined cell gets a
			// fresh budget: resuming is an operator decision to try again.)
			if govern.State(rec.Status) != govern.StateQuarantined {
				cl.attempt = rec.Attempt
			}
		}
	}
	co.checkSettledLocked()
	return co, nil
}

// Samples snapshots the coordinator's obs metrics registry — lease
// grants, renewals, expiries, retries, quarantines, duplicates.
func (co *Coordinator) Samples() []obs.Sample {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.reg.Samples()
}

// journalLocked appends one record; a journal failure is fatal to the
// sweep (continuing would silently break the resume contract).
func (co *Coordinator) journalLocked(rec journal.Record) {
	if co.jw == nil || co.fatalErr != nil {
		return
	}
	if err := co.jw.Append(rec); err != nil {
		co.fatalErr = fmt.Errorf("dist: journal append: %w", err)
		co.finishLocked()
	}
}

func (co *Coordinator) record(cl *cell, status string) journal.Record {
	rec := cl.id
	rec.Status, rec.Attempt, rec.Err = status, cl.attempt, cl.errMsg
	return rec
}

// expireLocked returns every overdue lease to the queue (or quarantine)
// under backoff. Called lazily from every API entry point, which is
// sufficient because workers poll continuously.
func (co *Coordinator) expireLocked(now time.Time) {
	for id, cl := range co.leases {
		if cl.state != cellLeased || cl.leaseID != id {
			delete(co.leases, id) // stale entry for a settled cell
			continue
		}
		if !now.After(cl.notBefore) {
			continue // notBefore doubles as the lease deadline while leased
		}
		delete(co.leases, id)
		co.reg.Counter(MetricLeasesExpired).Inc(1)
		cl.errMsg = fmt.Sprintf("lease %s expired (attempt %d)", id, cl.attempt)
		co.journalLocked(co.record(cl, StatusExpired))
		co.requeueLocked(cl, now)
	}
}

// requeueLocked returns a cell to the queue after an expiry or a
// transient failure, quarantining it once the retry budget is spent. A
// quarantine is the fabric's "something is deeply wrong with this
// cell" verdict, so it also triggers a flight-recorder dump — off the
// lock, since the dump fsyncs.
func (co *Coordinator) requeueLocked(cl *cell, now time.Time) {
	cl.leaseID = ""
	if cl.attempt >= co.cfg.RetryBudget+1 {
		cl.state, cl.status = cellQuarantined, govern.StateQuarantined
		cl.errMsg = fmt.Sprintf("quarantined after %d attempts: %s", cl.attempt, cl.errMsg)
		co.reg.Counter(MetricQuarantined).Inc(1)
		co.journalLocked(co.record(cl, string(govern.StateQuarantined)))
		if co.cfg.Log != nil {
			co.cfg.Log.LogAttrs(context.Background(), slog.LevelWarn, "cell quarantined",
				slog.String(telemetry.KeyTraceID, co.traceOf(cl)),
				slog.String(telemetry.KeyConfigHash, cl.id.Hash),
				slog.Int("attempt", cl.attempt),
				slog.String("err", cl.errMsg))
		}
		if co.cfg.Flight != nil && co.cfg.FlightDir != "" {
			fl, dir, lg := co.cfg.Flight, co.cfg.FlightDir, co.cfg.Log
			go func() {
				if path, err := fl.DumpToFile(dir, "quarantine"); err == nil && lg != nil {
					lg.Warn("flight recorder dumped", slog.String("reason", "quarantine"), slog.String("path", path))
				}
			}()
		}
		co.checkSettledLocked()
		return
	}
	cl.state = cellPending
	cl.notBefore = now.Add(govern.Backoff(cl.attempt, co.cfg.BackoffBase, co.cfg.BackoffCap))
}

// finishLocked settles the sweep: subsequent lease requests answer
// done, and Wait unblocks.
func (co *Coordinator) finishLocked() {
	if !co.finished {
		co.finished = true
		close(co.done)
	}
}

func (co *Coordinator) checkSettledLocked() {
	if co.statusLocked().Settled() {
		co.finishLocked()
	}
}

func (co *Coordinator) statusLocked() Status {
	var st Status
	st.Total = len(co.cells)
	for _, cl := range co.cells {
		switch cl.state {
		case cellPending:
			st.Pending++
		case cellLeased:
			st.Leased++
		case cellDone:
			st.Completed++
		case cellSkipped:
			st.Skipped++
		case cellQuarantined:
			st.Quarantined++
		}
		if cl.reused {
			st.Reused++
		}
	}
	return st
}

// Acquire grants the lowest-index leasable cell, or reports done / a
// wait hint. Exported for in-process workers and tests; the HTTP
// handler is a thin wrapper.
func (co *Coordinator) Acquire(worker string) LeaseResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.expireLocked(now)
	if co.finished {
		return LeaseResponse{Done: true}
	}
	var pick *cell
	for _, cl := range co.cells {
		if cl.state == cellPending && !now.Before(cl.notBefore) {
			pick = cl
			break
		}
	}
	if pick == nil {
		return LeaseResponse{WaitMs: co.waitHintLocked(now).Milliseconds()}
	}
	co.leaseSeq++
	pick.attempt++
	pick.state = cellLeased
	pick.leaseID = fmt.Sprintf("l%d-%s", co.leaseSeq, pick.id.Hash)
	pick.notBefore = now.Add(co.cfg.LeaseTTL) // lease deadline
	pick.errMsg = ""
	co.leases[pick.leaseID] = pick
	co.reg.Counter(MetricLeasesGranted).Inc(1)
	if pick.attempt > 1 {
		co.reg.Counter(MetricRetries).Inc(1)
	}
	co.journalLocked(co.record(pick, StatusLeased))
	if co.cfg.Log != nil {
		co.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, "lease granted",
			slog.String(telemetry.KeyTraceID, co.traceOf(pick)),
			slog.String("lease_id", pick.leaseID),
			slog.String("worker", worker),
			slog.String(telemetry.KeyConfigHash, pick.id.Hash),
			slog.Int("attempt", pick.attempt),
			slog.String("label", pick.id.Label))
	}
	spec := pick.spec
	return LeaseResponse{
		LeaseID: pick.leaseID, Cell: &spec, Index: pick.idx,
		Label: pick.id.Label, Hash: pick.id.Hash, Attempt: pick.attempt,
		TTLMs:   co.cfg.LeaseTTL.Milliseconds(),
		TraceID: co.traceOf(pick),
	}
}

// waitHintLocked suggests how long a worker with nothing to lease
// should wait: until the earliest backoff gate or lease deadline,
// clamped to [50ms, 1s].
func (co *Coordinator) waitHintLocked(now time.Time) time.Duration {
	const lo, hi = 50 * time.Millisecond, time.Second
	wait := hi
	for _, cl := range co.cells {
		if cl.state == cellPending || cl.state == cellLeased {
			if d := cl.notBefore.Sub(now); d < wait {
				wait = d
			}
		}
	}
	if wait < lo {
		wait = lo
	}
	return wait
}

// Renew extends a held lease; false means the lease is gone (expired
// and reassigned, or its cell already settled) and the worker should
// abandon the run.
func (co *Coordinator) Renew(leaseID string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.expireLocked(now)
	cl, ok := co.leases[leaseID]
	if !ok || cl.state != cellLeased || cl.leaseID != leaseID {
		return false
	}
	cl.notBefore = now.Add(co.cfg.LeaseTTL)
	co.reg.Counter(MetricRenewals).Inc(1)
	return true
}

// Complete applies one terminal report. Completion is keyed by hash:
// reports from expired leases are accepted (deterministic rows are
// interchangeable), and reports for already-settled cells are counted
// and dropped as duplicates.
func (co *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.cfg.Now()
	co.expireLocked(now)
	cl, ok := co.byHash[req.Hash]
	if !ok {
		co.reg.Counter(MetricBadReports).Inc(1)
		return CompleteResponse{}, fmt.Errorf("dist: unknown cell hash %q", req.Hash)
	}
	state := govern.State(req.Status)
	switch cl.state {
	case cellDone, cellSkipped:
		co.reg.Counter(MetricDuplicates).Inc(1)
		return CompleteResponse{Duplicate: true}, nil
	case cellQuarantined:
		// A straggler finishing a quarantined cell is still a valid
		// deterministic row — promote it; anything else stays quarantined.
		if state != govern.StateCompleted {
			co.reg.Counter(MetricDuplicates).Inc(1)
			return CompleteResponse{Duplicate: true}, nil
		}
	case cellPending, cellLeased:
		// A non-completed report only counts when it comes from the
		// cell's current lease. A stale worker's failure verdict must not
		// disturb a reassignment already in flight — only its completed
		// row is lease-independent, because rows are deterministic.
		if state != govern.StateCompleted && req.LeaseID != cl.leaseID {
			co.reg.Counter(MetricDuplicates).Inc(1)
			return CompleteResponse{Duplicate: true}, nil
		}
	}
	if cl.leaseID != "" {
		delete(co.leases, cl.leaseID)
		cl.leaseID = ""
	}
	logCompletion := func(level slog.Level) {
		if co.cfg.Log == nil {
			return
		}
		co.cfg.Log.LogAttrs(context.Background(), level, "completion received",
			slog.String(telemetry.KeyTraceID, co.traceOf(cl)),
			slog.String("lease_id", req.LeaseID),
			slog.String("worker", req.Worker),
			slog.String(telemetry.KeyConfigHash, cl.id.Hash),
			slog.String("state", req.Status),
			slog.String("err", req.Err))
	}
	switch state {
	case govern.StateCompleted:
		cl.state, cl.status, cl.errMsg = cellDone, govern.StateCompleted, ""
		cl.row = append([]string(nil), req.Row...)
		co.reg.Counter(MetricCompleted).Inc(1)
		rec := co.record(cl, string(govern.StateCompleted))
		rec.Row, rec.Digest = cl.row, journal.RowDigest(cl.row)
		co.journalLocked(rec)
		logCompletion(slog.LevelInfo)
		co.dispatchFillLocked(cl)
	case govern.StateDeadline, govern.StateLivelock:
		// Deterministic budget trips are terminal, exactly as in-process.
		cl.state, cl.status, cl.errMsg = cellSkipped, state, req.Err
		co.reg.Counter(MetricSkipped).Inc(1)
		co.journalLocked(co.record(cl, req.Status))
		logCompletion(slog.LevelInfo)
	case govern.StateFailed, govern.StatePanicked, govern.StateCancelled:
		// Transient verdicts consume the retry budget like a lease expiry.
		cl.errMsg = req.Err
		co.journalLocked(co.record(cl, req.Status))
		logCompletion(slog.LevelWarn)
		co.requeueLocked(cl, now)
	default:
		co.reg.Counter(MetricBadReports).Inc(1)
		return CompleteResponse{}, fmt.Errorf("dist: unknown status %q", req.Status)
	}
	co.checkSettledLocked()
	return CompleteResponse{}, nil
}

// dispatchFillLocked hands a freshly completed cell to the CacheFill
// hook on its own goroutine: the completion path must never wait on a
// network write to a cache node. Caller holds co.mu; the goroutine
// re-takes it only to bump counters.
func (co *Coordinator) dispatchFillLocked(cl *cell) {
	if co.cfg.CacheFill == nil {
		return
	}
	spec, row, trace := cl.spec, cl.row, co.traceOf(cl)
	co.fillWG.Add(1)
	go func() {
		defer co.fillWG.Done()
		ctx := telemetry.WithTraceID(context.Background(), trace)
		err := co.cfg.CacheFill(ctx, spec, row)
		co.mu.Lock()
		if err != nil {
			co.reg.Counter(MetricFillErrors).Inc(1)
		} else {
			co.reg.Counter(MetricCacheFills).Inc(1)
		}
		co.mu.Unlock()
	}()
}

// Progress returns the live census.
func (co *Coordinator) Progress() Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(co.cfg.Now())
	return co.statusLocked()
}

// Stop settles the sweep early (cancellation): lease requests start
// answering done so attached workers exit cleanly, and Wait unblocks
// with whatever completed. The journal keeps every settled cell, so a
// -resume continues where the stop landed.
func (co *Coordinator) Stop() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.finishLocked()
}

// Close releases the journal writer.
func (co *Coordinator) Close() error {
	if co.jw != nil {
		return co.jw.Close()
	}
	return nil
}

// Wait blocks until every cell settles (or ctx cancels / a journal
// failure aborts), then assembles the merged result: rendered rows in
// cross-product index order, byte-identical to a single-process run.
func (co *Coordinator) Wait(ctx context.Context) (*sweep.Result, error) {
	var runErr error
	select {
	case <-co.done:
	case <-ctx.Done():
		runErr = ctx.Err()
		co.Stop()
	}
	// Let in-flight write-through fills land before tearing anything
	// down; they are bounded by the tier's FillTimeout.
	co.fillWG.Wait()
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.fatalErr != nil {
		runErr = co.fatalErr
	}
	res := &sweep.Result{
		Table:    stats.NewTable(fmt.Sprintf("sweep: %s on %d MiB GPU", co.spec.Workload, co.spec.GPUMemoryBytes>>20), sweep.Headers()...),
		Statuses: make([]sweep.CellStatus, len(co.cells)),
	}
	for i, cl := range co.cells {
		res.Statuses[i] = sweep.CellStatus{
			Label: cl.id.Label, Hash: cl.id.Hash, State: cl.status,
			Err: cl.errMsg, Attempts: cl.attempt, Reused: cl.reused,
		}
		if cl.reused {
			res.Reused++
		}
		if cl.state == cellDone {
			res.Table.AddRenderedRow(cl.row)
		}
		if cl.status == "" {
			res.Skipped++ // never settled: stopped or cancelled mid-sweep
		}
	}
	return res, runErr
}

// Summary renders the fabric counters as one line for CLI stderr.
func (co *Coordinator) Summary() string {
	co.mu.Lock()
	defer co.mu.Unlock()
	get := func(name string) uint64 { return co.reg.Counter(name).Get() }
	return fmt.Sprintf("granted=%d renewals=%d expired=%d retries=%d completed=%d skipped=%d quarantined=%d duplicates=%d bad_reports=%d cachefills=%d fill_errors=%d",
		get(MetricLeasesGranted), get(MetricRenewals), get(MetricLeasesExpired), get(MetricRetries),
		get(MetricCompleted), get(MetricSkipped), get(MetricQuarantined), get(MetricDuplicates), get(MetricBadReports),
		get(MetricCacheFills), get(MetricFillErrors))
}

// ---- HTTP surface ----

// Handler serves the coordinator protocol:
//
//	POST /v1/lease     acquire a cell        POST /v1/renew  heartbeat
//	POST /v1/complete  report an outcome     GET  /v1/status progress
//	GET  /metrics      Prometheus            GET  /healthz
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, co.Acquire(req.Worker))
	})
	mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if !co.Renew(req.LeaseID) {
			writeJSON(w, http.StatusGone, RenewResponse{})
			return
		}
		writeJSON(w, http.StatusOK, RenewResponse{OK: true})
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := co.Complete(req)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, co.Progress())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		samples := append(co.Samples(), co.red.Samples()...)
		if co.cfg.ExtraMetrics != nil {
			samples = append(samples, co.cfg.ExtraMetrics()...)
		}
		_ = serve.WritePrometheus(w, samples)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if co.cfg.Flight != nil {
		mux.Handle("GET /debug/flightrec", co.cfg.Flight.HTTPHandler())
	}
	// No access logger on the edge: workers poll /v1/lease continuously,
	// and the meaningful lifecycle lines (grants, completions,
	// quarantines) are logged by the methods themselves. RED metrics and
	// 5xx-triggered flight dumps still cover every endpoint.
	return telemetry.Middleware(mux, telemetry.MiddlewareOptions{
		RED:       co.red,
		Flight:    co.cfg.Flight,
		FlightDir: co.cfg.FlightDir,
		Route:     coordRouteLabel,
	})
}

// coordRouteLabel maps coordinator endpoints onto stable route labels.
func coordRouteLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/lease":
		return "v1_lease"
	case "/v1/renew":
		return "v1_renew"
	case "/v1/complete":
		return "v1_complete"
	case "/v1/status":
		return "v1_status"
	case "/metrics":
		return "metrics"
	case "/healthz":
		return "healthz"
	case "/debug/flightrec":
		return "debug_flightrec"
	default:
		return "other"
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}
