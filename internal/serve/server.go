package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvmsim/internal/exp"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/parallel"
	"uvmsim/internal/sim"
	"uvmsim/internal/sweep"
	"uvmsim/internal/telemetry"
)

// Config holds the serving knobs. The zero value of any field selects
// its default; budgets default to unlimited.
type Config struct {
	// CacheEntries bounds the result cache (default 512; negative
	// disables storage but keeps coalescing).
	CacheEntries int
	// QueueSlots bounds admitted requests, queued plus running (default
	// 64). A full queue answers 429.
	QueueSlots int
	// RunSlots bounds concurrently executing simulations (default
	// NumCPU).
	RunSlots int
	// SweepJobs is the worker count inside each sweep (default 1:
	// request-level parallelism comes from RunSlots; raise it when the
	// expected load is few large sweeps rather than many small cells).
	SweepJobs int
	// MaxJobs bounds live (queued or running) async jobs (default 16).
	MaxJobs int
	// MaxCells bounds the cross-product size of one request (default
	// 4096).
	MaxCells int
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint attached to 429 responses (default 1s).
	RetryAfter time.Duration
	// DefaultBudget applies to requests that set no budget; BudgetCap
	// bounds every request's budget (zero fields = unlimited).
	DefaultBudget, BudgetCap sim.Budget
	// DefaultTimeout applies when a request sets no timeout_ms;
	// MaxTimeout caps all request timeouts. Zero = none.
	DefaultTimeout, MaxTimeout time.Duration
	// Log receives the structured access log and cache-fill lines
	// (schema: internal/telemetry). Nil logs nothing.
	Log *slog.Logger
	// Flight is the process flight recorder; when set, the handler
	// exposes it at GET /debug/flightrec and dumps it into FlightDir on
	// 5xx responses.
	Flight    *telemetry.Flight
	FlightDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.QueueSlots == 0 {
		c.QueueSlots = 64
	}
	if c.RunSlots == 0 {
		c.RunSlots = parallel.Jobs(0)
	}
	if c.SweepJobs == 0 {
		c.SweepJobs = 1
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 16
	}
	if c.MaxCells == 0 {
		c.MaxCells = 4096
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the simulation service: validation, admission, execution,
// caching, and observability behind one http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	gate    *Gate
	jobs    *jobStore
	met     *metrics
	red     *telemetry.RED
	mux     *http.ServeMux
	handler http.Handler

	// base is the lifecycle context every simulation runs under; it is
	// cancelled only on forced shutdown, so request disconnects never
	// kill a shared (coalesced) computation.
	base       context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // live async jobs
	draining   atomic.Bool
}

// New assembles a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries),
		gate:  NewGate(cfg.QueueSlots, cfg.RunSlots),
		jobs:  newJobStore(cfg.MaxJobs),
		met:   newMetrics(),
		red:   telemetry.NewRED("uvmserved_http"),
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/cachefill", s.handleCacheFill)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/experiments", s.handleExpList)
	mux.HandleFunc("POST /v1/exp/{id}", s.handleExp)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	if cfg.Flight != nil {
		mux.Handle("GET /debug/flightrec", cfg.Flight.HTTPHandler())
	}
	s.mux = mux
	s.handler = telemetry.Middleware(mux, telemetry.MiddlewareOptions{
		Logger:    cfg.Log,
		RED:       s.red,
		Flight:    cfg.Flight,
		FlightDir: cfg.FlightDir,
		Route:     routeLabel,
	})
	return s
}

// routeLabel maps a request onto its stable route label for RED
// metrics and access lines, collapsing path parameters so the metric
// cardinality is the route table's, not the traffic's.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/sim":
		return "v1_sim"
	case p == "/v1/cachefill":
		return "v1_cachefill"
	case p == "/v1/sweep":
		return "v1_sweep"
	case p == "/v1/jobs":
		return "v1_jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		if strings.HasSuffix(p, "/result") {
			return "v1_job_result"
		}
		return "v1_job_status"
	case p == "/v1/experiments":
		return "v1_experiments"
	case strings.HasPrefix(p, "/v1/exp/"):
		return "v1_exp"
	case p == "/metrics":
		return "metrics"
	case p == "/healthz":
		return "healthz"
	case p == "/livez":
		return "livez"
	case p == "/debug/flightrec":
		return "debug_flightrec"
	case p == "/":
		return "index"
	default:
		return "other"
	}
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the telemetry edge (trace/request IDs, access log, RED metrics,
// flight-recorder dump on 5xx).
func (s *Server) Handler() http.Handler { return s.handler }

// Cache exposes the result cache for tests and draining checks.
func (s *Server) Cache() *Cache { return s.cache }

// BeginDrain flips /healthz to 503 so load balancers stop routing here
// while in-flight work finishes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain waits for every live async job. If ctx expires first, the base
// context is cancelled — engines observe it within one polling window,
// their runs settle as cancelled (and are not cached) — and Drain waits
// for that settling before returning ctx's error. Synchronous in-flight
// requests are the HTTP server's to drain via Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close force-cancels everything the server is running.
func (s *Server) Close() { s.baseCancel() }

// timeout resolves a request's timeout_ms against the server policy.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// admitAndRun pushes one computation through admission control: claim a
// queue slot (or fail busy), wait for a run slot, execute, and map the
// terminal state to an HTTP status. Deterministic outcomes — completed
// runs and budget trips — are cacheable; cancellations and failures are
// not, so a drained server can never leave a partial cache entry.
func (s *Server) admitAndRun(timeoutMs int64, run func(ctx context.Context) ([]byte, govern.State, error)) (body []byte, status int, cacheable bool, err error) {
	if err := s.gate.Enter(); err != nil {
		return nil, 0, false, err
	}
	defer s.gate.Leave()
	ctx, cancel := context.WithCancel(s.base)
	if d := s.timeout(timeoutMs); d > 0 {
		ctx, cancel = context.WithTimeout(s.base, d)
	}
	defer cancel()
	if err := s.gate.Run(ctx); err != nil {
		return nil, 0, false, err
	}
	defer s.gate.EndRun()
	body, st, err := run(ctx)
	if err != nil {
		return nil, 0, false, err
	}
	status = govern.HTTPStatus(st)
	if st == govern.StateCancelled && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout // the request's own deadline, not a drain
	}
	cacheable = st == govern.StateCompleted || st == govern.StateDeadline || st == govern.StateLivelock
	return body, status, cacheable, nil
}

// marshalBody renders a response value to the exact bytes that will be
// cached and served.
func marshalBody(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// overallState folds a sweep outcome into one terminal state, most
// severe first. RunContext only returns without error when every cell
// completed or tripped its deterministic budget.
func overallState(res *sweep.Result, runErr error) govern.State {
	if runErr != nil {
		return govern.StatusOf(runErr).State
	}
	counts := res.Counts()
	switch {
	case counts[govern.StateLivelock] > 0:
		return govern.StateLivelock
	case counts[govern.StateDeadline] > 0:
		return govern.StateDeadline
	default:
		return govern.StateCompleted
	}
}

// runSweep executes a validated spec and renders it with render, which
// receives the result and the folded state.
func (s *Server) runSweep(ctx context.Context, spec *sweep.Spec, onProgress func(done, total int), render func(res *sweep.Result, st govern.State) (interface{}, error)) ([]byte, govern.State, error) {
	spec.Jobs = s.cfg.SweepJobs
	spec.Progress = func(done, total int) {
		s.met.inc(mCells)
		if onProgress != nil {
			onProgress(done, total)
		}
	}
	spec.OnMetrics = func(_ sweep.Config, samples []obs.Sample) { s.met.absorb(samples) }
	res, runErr := spec.RunContext(ctx)
	st := overallState(res, runErr)
	var v interface{}
	if runErr != nil {
		v = ErrorResponse{Error: runErr.Error()}
	} else {
		var err error
		v, err = render(res, st)
		if err != nil {
			return nil, st, err
		}
	}
	body, err := marshalBody(v)
	return body, st, err
}

// prepare validates a request and derives its spec, cells, and content
// hash. Validation errors surface before any admission or compute cost.
func (s *Server) prepare(shape string, req SweepRequest) (SweepRequest, *sweep.Spec, []sweep.Config, string, error) {
	req = req.withDefaults()
	spec := req.spec(s.cfg.DefaultBudget, s.cfg.BudgetCap)
	configs, err := spec.Configs() // validates every dimension up front
	if err != nil {
		return req, nil, nil, "", err
	}
	if len(configs) > s.cfg.MaxCells {
		return req, nil, nil, "", fmt.Errorf("serve: sweep has %d cells, limit %d", len(configs), s.cfg.MaxCells)
	}
	hash := hashOf(req.fingerprint(shape, spec.Budget))
	return req, spec, configs, hash, nil
}

func buildSweepResponse(hash string, res *sweep.Result, st govern.State, cells int) *SweepResponse {
	resp := &SweepResponse{
		Hash:    hash,
		Status:  string(st),
		Cells:   cells,
		States:  map[string]int{},
		Headers: sweep.Headers(),
		Rows:    res.Table.Rows,
	}
	for state, n := range res.Counts() {
		resp.States[string(state)] = n
	}
	for _, cs := range res.Statuses {
		if cs.State != "" && cs.State != govern.StateCompleted {
			resp.Failed = append(resp.Failed, CellFailure{Label: cs.Label, State: string(cs.State), Err: cs.Err})
		}
	}
	return resp
}

// ---- handlers ----

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.met.inc(mRequests)
	sreq, spec, configs, hash, err := s.prepare("sim", req.sweepRequest())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	label := configs[0].Label(spec) // the singleton cell's replay recipe
	body, status, src, err := s.cache.Do(r.Context(), hash, func() ([]byte, int, bool, error) {
		return s.admitAndRun(sreq.TimeoutMs, func(ctx context.Context) ([]byte, govern.State, error) {
			return s.runSweep(ctx, spec, nil, func(res *sweep.Result, st govern.State) (interface{}, error) {
				resp := &SimResponse{Hash: hash, Label: label, Status: string(st), Headers: sweep.Headers()}
				if len(res.Table.Rows) == 1 {
					resp.Row = res.Table.Rows[0]
				}
				for _, cs := range res.Statuses {
					if cs.Err != "" {
						resp.Error = cs.Err
					}
				}
				return resp, nil
			})
		})
	})
	s.finish(w, r, hash, body, status, src, err)
}

// handleCacheFill accepts a write-through fill from a sweep
// coordinator: a completed cell's rendered row, inserted into the
// content-addressed cache as the exact bytes a local run of the same
// cell would produce (§7 determinism makes them interchangeable). The
// key and label are recomputed from the request's own cell spec — a
// caller can never choose which key it fills — and a Label mismatch
// means protocol or version skew, rejected instead of cached.
func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	var req CacheFillRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.met.inc(mRequests)
	if len(req.Row) == 0 || len(req.Row) != len(sweep.Headers()) {
		s.met.inc(mFillRejected)
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("cachefill: row has %d columns, want %d", len(req.Row), len(sweep.Headers())))
		return
	}
	_, spec, configs, hash, err := s.prepare("sim", req.Sim.sweepRequest())
	if err != nil {
		s.met.inc(mFillRejected)
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	label := configs[0].Label(spec)
	if req.Label != "" && req.Label != label {
		s.met.inc(mFillRejected)
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("cachefill: label skew: request %q, server computed %q", req.Label, label))
		return
	}
	body, err := marshalBody(&SimResponse{
		Hash:    hash,
		Label:   label,
		Status:  string(govern.StateCompleted),
		Headers: sweep.Headers(),
		Row:     req.Row,
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	stored := s.cache.Put(hash, body, http.StatusOK)
	if stored {
		s.met.inc(mFills)
		if s.cfg.Log != nil {
			s.cfg.Log.LogAttrs(r.Context(), slog.LevelInfo, "cache fill (write-through)",
				slog.String(telemetry.KeyConfigHash, hash),
				slog.Int("bytes", len(body)))
		}
	}
	s.writeJSON(w, http.StatusOK, CacheFillResponse{Hash: hash, Stored: stored})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.met.inc(mRequests)
	sreq, spec, configs, hash, err := s.prepare("sweep", req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, status, src, err := s.cache.Do(r.Context(), hash, func() ([]byte, int, bool, error) {
		return s.admitAndRun(sreq.TimeoutMs, func(ctx context.Context) ([]byte, govern.State, error) {
			return s.runSweep(ctx, spec, nil, func(res *sweep.Result, st govern.State) (interface{}, error) {
				return buildSweepResponse(hash, res, st, len(configs)), nil
			})
		})
	})
	s.finish(w, r, hash, body, status, src, err)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.met.inc(mRequests)
	sreq, spec, configs, hash, err := s.prepare("sweep", req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.jobs.create(hash)
	if err != nil {
		s.reject(w)
		return
	}
	s.met.inc(mJobs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.jobs.settle()
		j.start(len(configs))
		// Async jobs outlive their submitting connection, so the
		// coalesced-wait context is the server lifecycle, not the request.
		body, status, _, err := s.cache.Do(s.base, hash, func() ([]byte, int, bool, error) {
			return s.admitAndRun(sreq.TimeoutMs, func(ctx context.Context) ([]byte, govern.State, error) {
				return s.runSweep(ctx, spec, j.progress, func(res *sweep.Result, st govern.State) (interface{}, error) {
					return buildSweepResponse(hash, res, st, len(configs)), nil
				})
			})
		})
		j.finish(body, status, err)
	}()
	s.writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	info := j.info()
	switch info.State {
	case JobDone:
		body, status, _ := j.result()
		s.writeBody(w, status, info.Hash, "", body)
	case JobFailed:
		s.writeError(w, http.StatusInternalServerError, info.Error)
	default:
		// Not settled yet: point the client back at the status endpoint.
		s.writeJSON(w, http.StatusConflict, info)
	}
}

func (s *Server) handleExpList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string][]string{"experiments": exp.ExperimentIDs()})
}

func (s *Server) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := exp.Registry()[id]; !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
		return
	}
	var req ExpRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.met.inc(mRequests)
	if req.GPUMemMiB == 0 {
		req.GPUMemMiB = DefaultGPUMemMiB
	}
	eff := req.Budget.budget(s.cfg.DefaultBudget, s.cfg.BudgetCap)
	hash := hashOf(req.fingerprint(id, eff))
	body, status, src, err := s.cache.Do(r.Context(), hash, func() ([]byte, int, bool, error) {
		return s.admitAndRun(req.TimeoutMs, func(ctx context.Context) ([]byte, govern.State, error) {
			sc := exp.Scale{
				GPUMemoryBytes: req.GPUMemMiB << 20,
				Seed:           req.Seed,
				Quick:          req.Quick,
				Jobs:           s.cfg.SweepJobs,
				Budget:         eff,
			}
			tables, runErr := exp.RunContext(ctx, id, sc)
			st := govern.StatusOf(runErr).State
			resp := &ExpResponse{ID: id, Hash: hash, Status: string(st), Tables: tables}
			if runErr != nil {
				resp.Error = runErr.Error()
				resp.Tables = nil
			}
			body, err := marshalBody(resp)
			return body, st, err
		})
	})
	s.finish(w, r, hash, body, status, src, err)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	counter := func(name string, v uint64) obs.Sample {
		return obs.Sample{Name: name, Kind: obs.KindCounter, Value: v}
	}
	gauge := func(name string, v uint64) obs.Sample {
		return obs.Sample{Name: name, Kind: obs.KindGauge, Value: v}
	}
	dynamic := []obs.Sample{
		counter(mHits, cs.Hits),
		counter(mMisses, cs.Misses),
		counter(mCoalesced, cs.Coalesced),
		counter(mEvicted, cs.Evictions),
		gauge(mEntries, uint64(cs.Entries)),
		gauge(mDepth, uint64(s.gate.Depth())),
		gauge(mRunning, uint64(s.gate.Running())),
		gauge(mJobsLive, uint64(s.jobs.active())),
	}
	// Wall-clock RED series (one set per route) ride the same exposition.
	dynamic = append(dynamic, s.red.Samples()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.write(w, dynamic); err != nil {
		s.met.inc(mErrors)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleLivez is pure liveness: 200 for as long as the process answers
// HTTP at all, drain or not. Readiness (/healthz) tells load balancers
// to stop routing here; liveness tells supervisors not to kill a
// process that is merely draining.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"service": "uvmserved",
		"endpoints": []string{
			"POST /v1/sim", "POST /v1/cachefill", "POST /v1/sweep", "POST /v1/jobs",
			"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/result",
			"GET /v1/experiments", "POST /v1/exp/{id}",
			"GET /metrics", "GET /healthz", "GET /livez",
		},
	})
}

// ---- plumbing ----

// decode parses a bounded JSON request body; an empty body is a valid
// all-defaults request.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// finish maps a Do outcome onto the response: busy → 429 with
// Retry-After, context errors → 503/504, marshal/internal errors → 500,
// everything else → the computed body verbatim. A cache miss that
// computed fresh bytes logs one "cache fill" line under the request's
// trace, tying the fleet's content-addressed cache entries back to the
// requests that populated them.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, hash string, body []byte, status int, src Source, err error) {
	switch {
	case err == nil:
		if src == SourceMiss && s.cfg.Log != nil {
			s.cfg.Log.LogAttrs(r.Context(), slog.LevelInfo, "cache fill",
				slog.String(telemetry.KeyConfigHash, hash),
				slog.Int("status", status),
				slog.Int("bytes", len(body)))
		}
		s.writeBody(w, status, hash, src, body)
	case errors.Is(err, ErrBusy):
		s.reject(w)
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, "request timed out")
	case errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		s.writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// reject writes the backpressure response.
func (s *Server) reject(w http.ResponseWriter) {
	s.met.inc(mRejected)
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "server busy: admission queue full"})
}

// writeBody serves exact body bytes — the cache contract depends on
// hits and misses writing identical content.
func (s *Server) writeBody(w http.ResponseWriter, status int, hash string, src Source, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Uvmsim-Hash", hash)
	if src != "" {
		w.Header().Set("X-Uvmsim-Cache", string(src))
	}
	if status >= 500 {
		s.met.inc(mErrors)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := marshalBody(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status >= 500 {
		s.met.inc(mErrors)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}
