// Package sweep expands a generic parameter sweep — one workload crossed
// with prefetch policy, replay policy, eviction policy, fault batch
// size, VABlock granularity, and footprint fraction — into independent
// simulation configurations and executes them across the worker pool.
//
// The package exists so sweeps behave like first-class experiments:
// every flag combination is validated before any cell runs (a typo in
// the last policy name fails in milliseconds, not after minutes of
// simulation), cells fan out across parallel.Map with index-ordered
// collection so the emitted table is byte-identical at every worker
// count, and a crashing cell aborts the sweep with the offending
// configuration and seed attached.
package sweep

import (
	"context"
	"fmt"

	"uvmsim/internal/core"
	"uvmsim/internal/driver"
	"uvmsim/internal/multigpu"
	"uvmsim/internal/obs"
	"uvmsim/internal/sim"
	"uvmsim/internal/stats"
	"uvmsim/internal/workloads"
)

// Spec describes a sweep: the cross product of every list field, run on
// the named workload at the given scale.
type Spec struct {
	// Workload names the workload generator every cell runs.
	Workload string
	// GPUMemoryBytes is the framebuffer size per cell.
	GPUMemoryBytes int64
	// Seed drives all randomness (see Cell.Params for the workload seed).
	Seed uint64
	// Footprints are data sizes as fractions of GPU memory.
	Footprints []float64
	// Prefetch, Replay, and Evict are policy-name lists.
	Prefetch []string
	Replay   []string
	Evict    []string
	// Batch lists fault batch sizes; VABlock lists granularities in bytes.
	Batch   []int
	VABlock []int64
	// GPUs lists device counts (empty means [1]); Migration lists
	// multi-GPU page-placement policy names (empty means first-touch).
	// Cells with one GPU ignore the migration axis — the cross product
	// collapses so a K=1 cell appears exactly once.
	GPUs      []int
	Migration []string
	// Jobs bounds the worker pool: 1 is strictly serial, <= 0 NumCPU.
	Jobs int
	// Obs, when non-nil, collects per-cell spans and metrics. Each cell
	// registers under its Label, so exports sort identically at every
	// Jobs value. Lifecycle additionally tracks per-fault latencies.
	Obs       *obs.Collector
	Lifecycle bool
	// Budget bounds every cell in simulated time, event count, and
	// forward progress; a tripped cell journals deadline/livelock and the
	// sweep continues without its row.
	Budget sim.Budget
	// Retries is how many times a transiently-failed cell (panic or
	// ordinary error) is re-run with bounded exponential backoff before
	// the sweep aborts. Budget trips are deterministic and never retried.
	Retries int
	// Journal, when set, appends every cell's terminal outcome to this
	// crash-safe JSONL file as the sweep runs.
	Journal string
	// Resume replays Journal before running: completed cells reuse their
	// journaled rows, budget-tripped cells stay skipped, and only
	// unfinished cells execute.
	Resume bool
	// Progress, when non-nil, is invoked after each cell settles (any
	// terminal state, including cells reused from the resume journal)
	// with the number of settled cells and the total. It runs on worker
	// goroutines and must be safe for concurrent use; the serving layer
	// wires it to async-job progress polling.
	Progress func(done, total int)
	// OnMetrics, when non-nil, receives each completed cell's
	// metrics-registry snapshot right after its run finishes. It runs on
	// worker goroutines and must be safe for concurrent use; the serving
	// layer folds the snapshots into its cumulative /metrics registry.
	OnMetrics func(c Config, samples []obs.Sample)

	// cancel is set by RunContext and polled by every cell's engine.
	cancel *sim.Cancel
}

// Config is one fully-resolved sweep cell.
type Config struct {
	Footprint float64
	Prefetch  string
	Replay    driver.ReplayPolicy
	Evict     string
	Batch     int
	VABlock   int64
	// GPUs is the device count (0 and 1 both mean single-GPU);
	// Migration is the multi-GPU placement policy, meaningful only when
	// GPUs > 1.
	GPUs      int
	Migration multigpu.Policy
}

// Label renders the cell's replay recipe (see Cell.Label).
func (c Config) Label(s *Spec) string { return s.Cell(c).Label() }

// Validate resolves every name and bound in the spec up front. Nothing
// has run yet when it fails.
func (s *Spec) Validate() error {
	if _, err := workloads.Get(s.Workload); err != nil {
		return err
	}
	if s.GPUMemoryBytes <= 0 {
		return fmt.Errorf("sweep: GPU memory %d must be positive", s.GPUMemoryBytes)
	}
	if len(s.Footprints) == 0 || len(s.Prefetch) == 0 || len(s.Replay) == 0 ||
		len(s.Evict) == 0 || len(s.Batch) == 0 || len(s.VABlock) == 0 {
		return fmt.Errorf("sweep: empty dimension (footprints=%d prefetch=%d replay=%d evict=%d batch=%d vablock=%d)",
			len(s.Footprints), len(s.Prefetch), len(s.Replay), len(s.Evict), len(s.Batch), len(s.VABlock))
	}
	for _, fp := range s.Footprints {
		if fp <= 0 {
			return fmt.Errorf("sweep: footprint %g must be positive", fp)
		}
	}
	for _, rp := range s.Replay {
		if _, err := driver.ParseReplayPolicy(rp); err != nil {
			return err
		}
	}
	for _, pf := range s.Prefetch {
		if err := core.ValidatePolicies(core.Config{PrefetchPolicy: pf}); err != nil {
			return err
		}
	}
	for _, ev := range s.Evict {
		if err := core.ValidatePolicies(core.Config{EvictPolicy: ev}); err != nil {
			return err
		}
	}
	for _, bs := range s.Batch {
		if bs <= 0 {
			return fmt.Errorf("sweep: batch size %d must be positive", bs)
		}
	}
	for _, vb := range s.VABlock {
		if vb <= 0 {
			return fmt.Errorf("sweep: VABlock size %d must be positive", vb)
		}
	}
	for _, g := range s.GPUs {
		if g < 1 {
			return fmt.Errorf("sweep: GPU count %d must be at least 1", g)
		}
		if g > multigpu.MaxDevices {
			return fmt.Errorf("sweep: GPU count %d exceeds the supported maximum %d", g, multigpu.MaxDevices)
		}
	}
	for _, mi := range s.Migration {
		if _, err := multigpu.ParsePolicy(mi); err != nil {
			return err
		}
	}
	return nil
}

// Configs expands the cross product in deterministic declaration order:
// footprint outermost, then prefetch, replay, evict, batch, VABlock,
// GPUs, migration — the same nesting the serial CLI always printed, with
// the multi-GPU axes innermost. Empty GPUs/Migration lists default to
// single-GPU first-touch, and single-GPU cells collapse the migration
// axis (EffectivelySingleGPU: the policy is meaningless at K=1, and
// collapsing keeps labels — and therefore confighashes — unique).
func (s *Spec) Configs() ([]Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gpus := s.GPUs
	if len(gpus) == 0 {
		gpus = []int{1}
	}
	out := make([]Config, 0,
		len(s.Footprints)*len(s.Prefetch)*len(s.Replay)*len(s.Evict)*
			len(s.Batch)*len(s.VABlock)*len(gpus)*max(len(s.Migration), 1))
	for _, fp := range s.Footprints {
		for _, pf := range s.Prefetch {
			for _, rp := range s.Replay {
				pol, err := driver.ParseReplayPolicy(rp)
				if err != nil {
					return nil, err
				}
				for _, ev := range s.Evict {
					for _, bs := range s.Batch {
						for _, vb := range s.VABlock {
							for _, g := range gpus {
								migration := s.Migration
								if len(migration) == 0 || EffectivelySingleGPU([]int{g}, migration) {
									migration = []string{multigpu.FirstTouch.String()}
								}
								for _, mname := range migration {
									mpol, err := multigpu.ParsePolicy(mname)
									if err != nil {
										return nil, err
									}
									out = append(out, Config{
										Footprint: fp, Prefetch: pf, Replay: pol,
										Evict: ev, Batch: bs, VABlock: vb,
										GPUs: g, Migration: mpol,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Headers returns the sweep table's column names.
func Headers() []string {
	return []string{
		"footprint_pct", "prefetch", "replay", "evict", "batch", "vablock_kb",
		"total_ms", "faults", "evictions", "h2d_mb", "d2h_mb", "stall_ms",
	}
}

// runConfig executes one cell. It is a variable so tests can substitute
// a crashing cell and assert the pool's panic containment.
var runConfig = func(s *Spec, c Config) ([]interface{}, error) {
	cell := s.Cell(c)
	cfg, err := cell.Config()
	if err != nil {
		return nil, err
	}
	cfg.Obs = obs.Options{Collector: s.Obs, Label: cell.Label(), Lifecycle: s.Lifecycle}
	cfg.Cancel = s.cancel
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	k, err := cell.Kernel(sys)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunUVM(k)
	if err != nil {
		return nil, err
	}
	if s.OnMetrics != nil {
		s.OnMetrics(c, sys.Metrics().Samples())
	}
	return []interface{}{
		c.Footprint * 100, c.Prefetch, c.Replay.String(), c.Evict, c.Batch, c.VABlock >> 10,
		float64(res.TotalTime.Micros()) / 1000, res.Faults, res.Evictions,
		float64(res.BytesH2D) / (1 << 20), float64(res.BytesD2H) / (1 << 20),
		float64(res.GPU.StallTime.Micros()) / 1000,
	}, nil
}

// Run validates the spec, fans the cells out across Jobs workers, and
// returns the result table with one row per configuration in cross
// product order. The table is byte-identical at every Jobs value.
func (s *Spec) Run() (*stats.Table, error) {
	res, err := s.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}
