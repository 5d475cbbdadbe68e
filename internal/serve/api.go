// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// front end that turns the deterministic simulator into a shared,
// cacheable compute service. Because every run is a pure function of
// its configuration (DESIGN.md §7), results are content-addressed by
// the same confighash keys the sweep journal uses: identical requests
// hit a bounded LRU cache byte-for-byte, concurrent identical requests
// coalesce into one simulation, and only genuinely new configurations
// pay for compute — which is admitted through a bounded queue with
// backpressure so the server degrades by rejecting, never by melting.
package serve

import (
	"fmt"
	"time"

	"uvmsim/internal/confighash"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/sweep"
)

// BudgetRequest carries the deterministic per-run budgets a request may
// set. Zero fields inherit the server's defaults; the server's caps
// bound every field, so a request can tighten its budget but never
// escape the operator's.
type BudgetRequest struct {
	SimBudgetMs    int64  `json:"sim_budget_ms,omitempty"`
	MaxEvents      uint64 `json:"max_events,omitempty"`
	LivelockEvents uint64 `json:"livelock_events,omitempty"`
}

// budget resolves the request against server default and cap: a zero
// request field takes the default, and when a cap is set the effective
// value never exceeds it (an unlimited request under a cap becomes the
// cap).
func (b BudgetRequest) budget(def, cap sim.Budget) sim.Budget {
	eff := sim.Budget{
		SimDeadline:    sim.Time(b.SimBudgetMs) * sim.Time(time.Millisecond),
		MaxEvents:      b.MaxEvents,
		LivelockWindow: b.LivelockEvents,
	}
	if eff.SimDeadline == 0 {
		eff.SimDeadline = def.SimDeadline
	}
	if eff.MaxEvents == 0 {
		eff.MaxEvents = def.MaxEvents
	}
	if eff.LivelockWindow == 0 {
		eff.LivelockWindow = def.LivelockWindow
	}
	if cap.SimDeadline > 0 && (eff.SimDeadline == 0 || eff.SimDeadline > cap.SimDeadline) {
		eff.SimDeadline = cap.SimDeadline
	}
	if cap.MaxEvents > 0 && (eff.MaxEvents == 0 || eff.MaxEvents > cap.MaxEvents) {
		eff.MaxEvents = cap.MaxEvents
	}
	if cap.LivelockWindow > 0 && (eff.LivelockWindow == 0 || eff.LivelockWindow > cap.LivelockWindow) {
		eff.LivelockWindow = cap.LivelockWindow
	}
	return eff
}

// SimRequest asks for one single-cell simulation. Zero-valued knobs
// take the same defaults the uvmsweep CLI uses; Seed 0 is a real seed,
// not a default.
type SimRequest struct {
	Workload   string  `json:"workload"`
	GPUMemMiB  int64   `json:"gpu_mem_mib,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Footprint  float64 `json:"footprint,omitempty"`
	Prefetch   string  `json:"prefetch,omitempty"`
	Replay     string  `json:"replay,omitempty"`
	Evict      string  `json:"evict,omitempty"`
	Batch      int     `json:"batch,omitempty"`
	VABlockKiB int64   `json:"vablock_kib,omitempty"`
	// Gpus is the device count. A pointer distinguishes "absent" (one
	// GPU) from an explicit 0, which is rejected with 400 — a cell spec
	// that names a device count must name a legal one. Migration selects
	// the multi-GPU placement policy; it is meaningful only when Gpus > 1.
	Gpus      *int          `json:"gpus,omitempty"`
	Migration string        `json:"migration,omitempty"`
	Budget    BudgetRequest `json:"budget,omitempty"`
	// TimeoutMs bounds the request on the host clock. It is not part of
	// the cache key: a timed-out run is cancelled and never cached.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SimRequestOf maps a sweep cell onto the single-cell wire form, the
// inverse of SimRequest.sweepRequest. ok is false when the wire form
// cannot express the cell exactly (fractional MiB/ms, zero knobs the
// server would re-default) — such a cell must be simulated locally,
// never approximated through the serve tier.
func SimRequestOf(c sweep.Cell) (SimRequest, bool) {
	const mib = int64(1) << 20
	ms := int64(time.Millisecond)
	if c.GPUMemoryBytes%mib != 0 || c.SimDeadlineNs%ms != 0 ||
		c.Workload == "" || c.Prefetch == "" || c.Replay == "" || c.Evict == "" ||
		c.Batch == 0 || c.VABlockBytes%1024 != 0 || c.VABlockBytes == 0 || c.Footprint == 0 {
		return SimRequest{}, false
	}
	req := SimRequest{
		Workload:   c.Workload,
		GPUMemMiB:  c.GPUMemoryBytes / mib,
		Seed:       c.Seed,
		Footprint:  c.Footprint,
		Prefetch:   c.Prefetch,
		Replay:     c.Replay,
		Evict:      c.Evict,
		Batch:      c.Batch,
		VABlockKiB: c.VABlockBytes >> 10,
		Budget: BudgetRequest{
			SimBudgetMs:    c.SimDeadlineNs / ms,
			MaxEvents:      c.MaxEvents,
			LivelockEvents: c.LivelockWindow,
		},
	}
	if c.Gpus > 1 {
		g := c.Gpus
		req.Gpus = &g
		req.Migration = c.Migration
	}
	return req, true
}

// sweepRequest lifts the single cell into a singleton sweep so both
// endpoints share one validation, execution, and caching path.
func (r SimRequest) sweepRequest() SweepRequest {
	sr := SweepRequest{
		Workload:   r.Workload,
		GPUMemMiB:  r.GPUMemMiB,
		Seed:       r.Seed,
		Footprints: []float64{r.Footprint},
		Prefetch:   []string{r.Prefetch},
		Replay:     []string{r.Replay},
		Evict:      []string{r.Evict},
		Batch:      []int{r.Batch},
		VABlockKiB: []int64{r.VABlockKiB},
		Budget:     r.Budget,
		TimeoutMs:  r.TimeoutMs,
	}
	if r.Gpus != nil {
		// Forwarded even when illegal (<1): sweep validation turns it
		// into the 400 the cell-spec contract promises.
		sr.Gpus = []int{*r.Gpus}
	}
	if r.Migration != "" {
		sr.Migration = []string{r.Migration}
	}
	return sr
}

// SweepRequest asks for a full parameter sweep: the cross product of
// every list, exactly as uvmsweep expands it. Empty lists take the CLI
// defaults.
type SweepRequest struct {
	Workload   string    `json:"workload"`
	GPUMemMiB  int64     `json:"gpu_mem_mib,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	Footprints []float64 `json:"footprints,omitempty"`
	Prefetch   []string  `json:"prefetch,omitempty"`
	Replay     []string  `json:"replay,omitempty"`
	Evict      []string  `json:"evict,omitempty"`
	Batch      []int     `json:"batch,omitempty"`
	VABlockKiB []int64   `json:"vablock_kib,omitempty"`
	// Gpus lists device counts (empty means single-GPU); Migration lists
	// placement policy names. Entries are validated, never defaulted: an
	// explicit 0 or unknown policy is a 400, not a silent substitution.
	Gpus      []int         `json:"gpus,omitempty"`
	Migration []string      `json:"migration,omitempty"`
	Budget    BudgetRequest `json:"budget,omitempty"`
	TimeoutMs int64         `json:"timeout_ms,omitempty"`
}

// Request defaults, matching the uvmsweep CLI flag defaults.
const (
	DefaultWorkload   = "regular"
	DefaultGPUMemMiB  = 96
	DefaultFootprint  = 0.5
	DefaultPrefetch   = "density"
	DefaultReplay     = "batchflush"
	DefaultEvict      = "lru"
	DefaultBatch      = 256
	DefaultVABlockKiB = 2048
)

// withDefaults fills every empty dimension. Mutating a copy keeps the
// fingerprint canonical: two requests that spell the default
// differently ("" vs explicit) hash identically.
func (r SweepRequest) withDefaults() SweepRequest {
	if r.Workload == "" {
		r.Workload = DefaultWorkload
	}
	if r.GPUMemMiB == 0 {
		r.GPUMemMiB = DefaultGPUMemMiB
	}
	r.Footprints = withDefault(r.Footprints, DefaultFootprint)
	r.Prefetch = withDefault(r.Prefetch, DefaultPrefetch)
	r.Replay = withDefault(r.Replay, DefaultReplay)
	r.Evict = withDefault(r.Evict, DefaultEvict)
	r.Batch = withDefault(r.Batch, DefaultBatch)
	r.VABlockKiB = withDefault(r.VABlockKiB, DefaultVABlockKiB)
	// Canonicalize the multi-GPU axes. A request whose every device count
	// is 1 is the single-GPU request — migration collapses at K=1, so the
	// axes are cleared and the fingerprint (and cache identity) matches
	// every pre-multi-GPU request byte-for-byte. Illegal entries (0,
	// negative, over the maximum) are deliberately left in place for
	// validation to reject. A genuinely multi-GPU request with no policy
	// list pins the first-touch default so spelling it out hashes the same.
	if r.multiGPU() {
		if len(r.Migration) == 0 {
			r.Migration = []string{"first-touch"}
		}
	} else if sweep.EffectivelySingleGPU(r.Gpus, r.Migration) {
		r.Gpus = nil
		r.Migration = nil
	}
	return r
}

// withDefault returns a copy of list with zero entries replaced by def;
// an empty list becomes [def].
func withDefault[T comparable](list []T, def T) []T {
	if len(list) == 0 {
		return []T{def}
	}
	out := make([]T, len(list))
	var zero T
	for i, v := range list {
		if v == zero {
			v = def
		}
		out[i] = v
	}
	return out
}

// multiGPU reports whether any requested device count exceeds one.
func (r SweepRequest) multiGPU() bool {
	for _, g := range r.Gpus {
		if g > 1 {
			return true
		}
	}
	return false
}

// spec converts the defaulted request into a validated sweep spec under
// the server's budget policy. The caller owns Jobs, Obs, and hooks.
func (r SweepRequest) spec(def, cap sim.Budget) *sweep.Spec {
	vb := make([]int64, len(r.VABlockKiB))
	for i, v := range r.VABlockKiB {
		vb[i] = v << 10
	}
	return &sweep.Spec{
		Workload:       r.Workload,
		GPUMemoryBytes: r.GPUMemMiB << 20,
		Seed:           r.Seed,
		Footprints:     r.Footprints,
		Prefetch:       r.Prefetch,
		Replay:         r.Replay,
		Evict:          r.Evict,
		Batch:          r.Batch,
		VABlock:        vb,
		GPUs:           r.Gpus,
		Migration:      r.Migration,
		Budget:         r.Budget.budget(def, cap),
	}
}

// fingerprint renders the canonical cache identity of a defaulted
// request: every knob that can change the response body, in fixed
// order, budget included (a different budget can trip differently).
// TimeoutMs and worker counts are excluded — wall-clock limits and
// parallelism never change a completed run's bytes (§7 determinism).
// The shape prefix keeps a singleton sweep from colliding with the
// single-cell endpoint, whose response shape differs.
func (r SweepRequest) fingerprint(shape string, eff sim.Budget) string {
	fp := fmt.Sprintf("serve/v1/%s workload=%s gpumem=%d seed=%d fp=%v pf=%v rp=%v ev=%v batch=%v vb=%v budget=%d/%d/%d",
		shape, r.Workload, r.GPUMemMiB, r.Seed, r.Footprints, r.Prefetch, r.Replay, r.Evict, r.Batch, r.VABlockKiB,
		int64(eff.SimDeadline), eff.MaxEvents, eff.LivelockWindow)
	// Zero-value elision, same as sweep labels: withDefaults clears the
	// multi-GPU axes on effectively single-GPU requests, so the suffix
	// appears only when a response can actually depend on them and every
	// pre-multi-GPU cache key survives unchanged.
	if len(r.Gpus) > 0 {
		fp += fmt.Sprintf(" gpus=%v migration=%v", r.Gpus, r.Migration)
	}
	return fp
}

// SimResponse is the single-cell result. Bodies are cached verbatim:
// a hit returns exactly these bytes.
type SimResponse struct {
	Hash    string   `json:"hash"`
	Label   string   `json:"label"`
	Status  string   `json:"status"`
	Error   string   `json:"error,omitempty"`
	Headers []string `json:"headers,omitempty"`
	Row     []string `json:"row,omitempty"`
}

// CacheFillRequest write-throughs one completed single-cell result into
// the server's cache: the cell's request form plus the rendered row a
// worker already computed. The server re-derives the cache key and
// label from Sim itself — the caller cannot choose what key it fills —
// and Label, when set, must match the server's recomputation, so a
// protocol or version skew is rejected instead of cached.
type CacheFillRequest struct {
	Sim   SimRequest `json:"sim"`
	Label string     `json:"label,omitempty"`
	Row   []string   `json:"row"`
}

// CacheFillResponse acknowledges a write-through fill. Stored is false
// when the key was already cached (or storage is disabled) — a
// harmless no-op, not an error.
type CacheFillResponse struct {
	Hash   string `json:"hash"`
	Stored bool   `json:"stored"`
}

// CellFailure describes one cell that did not complete.
type CellFailure struct {
	Label string `json:"label"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// SweepResponse is the full-sweep result: one row per completed cell in
// cross-product order, plus the terminal-state census.
type SweepResponse struct {
	Hash    string         `json:"hash"`
	Status  string         `json:"status"`
	Cells   int            `json:"cells"`
	States  map[string]int `json:"states"`
	Headers []string       `json:"headers"`
	Rows    [][]string     `json:"rows"`
	Failed  []CellFailure  `json:"failed,omitempty"`
}

// ExpRequest runs one named paper experiment (exp.Registry) at a scale.
type ExpRequest struct {
	GPUMemMiB int64         `json:"gpu_mem_mib,omitempty"`
	Seed      uint64        `json:"seed,omitempty"`
	Quick     bool          `json:"quick,omitempty"`
	Budget    BudgetRequest `json:"budget,omitempty"`
	TimeoutMs int64         `json:"timeout_ms,omitempty"`
}

// fingerprint is the experiment cache identity; the experiment id is
// the shape.
func (r ExpRequest) fingerprint(id string, eff sim.Budget) string {
	return fmt.Sprintf("serve/v1/exp/%s gpumem=%d seed=%d quick=%t budget=%d/%d/%d",
		id, r.GPUMemMiB, r.Seed, r.Quick,
		int64(eff.SimDeadline), eff.MaxEvents, eff.LivelockWindow)
}

// ExpResponse carries a named experiment's tables.
type ExpResponse struct {
	ID     string         `json:"id"`
	Hash   string         `json:"hash"`
	Status string         `json:"status"`
	Error  string         `json:"error,omitempty"`
	Tables []*stats.Table `json:"tables,omitempty"`
}

// JobInfo is the polled view of an async job.
type JobInfo struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State string `json:"state"` // queued | running | done | failed
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

// Async job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// ErrorResponse is the JSON error envelope for every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// hashOf addresses a fingerprint through the shared confighash format,
// the same keys the sweep journal writes.
func hashOf(fingerprint string) string { return confighash.Sum(fingerprint) }
