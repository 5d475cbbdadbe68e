package sweep

import (
	"fmt"

	"uvmsim/internal/confighash"
	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/gpusim"
	"uvmsim/internal/journal"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/sim"
	"uvmsim/internal/workloads"
)

// Cell is one sweep cell in flat, self-contained form: every knob a
// process needs to run it and reproduce its label byte for byte. Sweep
// labels and runs, the dist wire form, the serve tier's single-cell
// request, and the single-cell CLIs all derive from it (DESIGN.md §7.1).
type Cell struct {
	Workload       string  `json:"workload"`
	GPUMemoryBytes int64   `json:"gpu_mem_bytes"`
	Seed           uint64  `json:"seed"`
	Footprint      float64 `json:"footprint"`
	Prefetch       string  `json:"prefetch"`
	Replay         string  `json:"replay"`
	Evict          string  `json:"evict"`
	Batch          int     `json:"batch"`
	VABlockBytes   int64   `json:"vablock_bytes"`
	// Gpus and Migration are set only on multi-GPU cells (zero-value
	// elision): a K=1 cell serializes exactly as it did before the axes
	// existed, so mixed-version fleets agree on every single-GPU label.
	Gpus      int    `json:"gpus,omitempty"`
	Migration string `json:"migration,omitempty"`
	// Deterministic per-cell budgets (see sim.Budget); part of the cell
	// because a budget trip is a property of the cell, not the worker.
	SimDeadlineNs  int64  `json:"sim_deadline_ns,omitempty"`
	MaxEvents      uint64 `json:"max_events,omitempty"`
	LivelockWindow uint64 `json:"livelock_window,omitempty"`
}

// Cell flattens one resolved configuration of the sweep into its
// canonical cell — the only constructor, so every label, journal record,
// wire form, and run of the cell agrees.
func (s *Spec) Cell(c Config) Cell {
	return Cell{
		Workload:       s.Workload,
		GPUMemoryBytes: s.GPUMemoryBytes,
		Seed:           s.Seed,
		Footprint:      c.Footprint,
		Prefetch:       c.Prefetch,
		Replay:         c.Replay.String(),
		Evict:          c.Evict,
		Batch:          c.Batch,
		VABlockBytes:   c.VABlock,
		Gpus:           c.GPUs,
		Migration:      c.Migration.String(),
		SimDeadlineNs:  int64(s.Budget.SimDeadline),
		MaxEvents:      s.Budget.MaxEvents,
		LivelockWindow: s.Budget.LivelockWindow,
	}.Canonical()
}

// Canonical resolves default spellings: an empty replay policy is
// batchflush, a multi-GPU cell without a migration policy is
// first-touch, and a cell with at most one GPU drops its device count
// and migration policy — the single-GPU model has no migration, and the
// elision keeps every pre-multi-GPU label and wire form unchanged.
func (c Cell) Canonical() Cell {
	if c.Replay == "" {
		c.Replay = driver.ReplayBatchFlush.String()
	}
	if c.Gpus <= 1 {
		c.Gpus, c.Migration = 0, ""
	} else if c.Migration == "" {
		c.Migration = multigpu.FirstTouch.String()
	}
	return c
}

// Label renders the canonical cell as a replay recipe: every per-cell
// knob plus the seed. GPU memory and the budgets are deliberately absent
// (see Record): adding them would change every historical confighash.
func (c Cell) Label() string {
	c = c.Canonical()
	label := fmt.Sprintf("workload=%s footprint=%g prefetch=%s replay=%s evict=%s batch=%d vablock=%dKiB seed=%d",
		c.Workload, c.Footprint, c.Prefetch, c.Replay, c.Evict, c.Batch, c.VABlockBytes>>10, c.Seed)
	if c.Gpus > 1 {
		label += fmt.Sprintf(" gpus=%d migration=%s", c.Gpus, c.Migration)
	}
	return label
}

// Hash is the cell's confighash: the journal, dedup, and cache key.
func (c Cell) Hash() string { return confighash.Sum(c.Label()) }

// Record returns the cell's journal identity: label, hash, seed, and
// the scope the label leaves out. Every journal record for the cell
// starts from it, and resume reuses a record only when its scope matches.
func (c Cell) Record() journal.Record {
	label := c.Label()
	return journal.Record{
		Label: label, Hash: confighash.Sum(label), Seed: c.Seed,
		Scope: journal.Scope{
			GPUMemoryBytes: c.GPUMemoryBytes,
			SimDeadlineNs:  c.SimDeadlineNs,
			MaxEvents:      c.MaxEvents,
			LivelockWindow: c.LivelockWindow,
		},
	}
}

// Budget returns the cell's deterministic run budget.
func (c Cell) Budget() sim.Budget {
	return sim.Budget{
		SimDeadline:    sim.Time(c.SimDeadlineNs),
		MaxEvents:      c.MaxEvents,
		LivelockWindow: c.LivelockWindow,
	}
}

// Validate applies the sweep's up-front checks to the cell.
func (c Cell) Validate() error { return c.Spec().Validate() }

// Spec lifts the cell into a singleton sweep. Running it reuses the
// validation, governance, and row rendering of the full sweep, which
// keeps distributed rows byte-identical to in-process ones.
func (c Cell) Spec() *Spec {
	s := &Spec{
		Workload:       c.Workload,
		GPUMemoryBytes: c.GPUMemoryBytes,
		Seed:           c.Seed,
		Footprints:     []float64{c.Footprint},
		Prefetch:       []string{c.Prefetch},
		Replay:         []string{c.Replay},
		Evict:          []string{c.Evict},
		Batch:          []int{c.Batch},
		VABlock:        []int64{c.VABlockBytes},
		Jobs:           1,
		Budget:         c.Budget(),
	}
	if c.Gpus != 0 {
		s.GPUs = []int{c.Gpus}
	}
	if c.Migration != "" {
		s.Migration = []string{c.Migration}
	}
	return s
}

// Config is the one mapping of the cell's knobs onto a core.Config. A
// zero Batch or VABlockBytes keeps the default, for callers without
// those knobs; callers add observability and cancellation on top.
func (c Cell) Config() (core.Config, error) {
	pol, err := driver.ParseReplayPolicy(c.Replay)
	if err != nil {
		return core.Config{}, err
	}
	mpol, err := multigpu.ParsePolicy(c.Migration)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(c.GPUMemoryBytes)
	cfg.Seed = c.Seed
	cfg.PrefetchPolicy = c.Prefetch
	cfg.EvictPolicy = c.Evict
	cfg.Driver.Policy = pol
	if c.Batch != 0 {
		cfg.Driver.BatchSize = c.Batch
	}
	cfg.VABlockSize = c.VABlockBytes
	if c.Gpus > 1 {
		cfg.GPUs, cfg.Migration = c.Gpus, mpol
	}
	cfg.Budget = c.Budget()
	return cfg, nil
}

// Params returns the default workload parameters seeded Seed+100, as
// the paper-reproduction experiments do.
func (c Cell) Params() workloads.Params {
	p := workloads.DefaultParams()
	p.Seed = c.Seed + 100
	return p
}

// Kernel builds the cell's named workload on sys at the cell's
// footprint (a fraction of GPU memory).
func (c Cell) Kernel(sys *core.System) (*gpusim.Kernel, error) {
	build, err := workloads.Get(c.Workload)
	if err != nil {
		return nil, err
	}
	return build(sys, int64(c.Footprint*float64(c.GPUMemoryBytes)), c.Params())
}

// EffectivelySingleGPU reports whether device-count and migration lists
// can only produce single-GPU cells: every count is 1 (empty means 1)
// and every migration name parses. Configs collapses such axes to one
// cell and the serve tier drops them from its cache key; illegal entries
// never qualify, so validation still rejects them.
func EffectivelySingleGPU(gpus []int, migration []string) bool {
	for _, g := range gpus {
		if g != 1 {
			return false
		}
	}
	for _, m := range migration {
		if _, err := multigpu.ParsePolicy(m); err != nil {
			return false
		}
	}
	return true
}
