package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"uvmsim/internal/core"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/stats"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

const mib = int64(1) << 20

// spec is one sweep of cells with the policies every workload here
// shares unless it says otherwise: density prefetch, batchflush replay,
// LRU eviction, uvmsweep's default batch and VABlock sizes, one GPU.
func spec(workload string, gpuMiB int64, seed uint64, footprints ...float64) *sweep.Spec {
	return &sweep.Spec{
		Workload:       workload,
		GPUMemoryBytes: gpuMiB * mib,
		Seed:           seed,
		Footprints:     footprints,
		Prefetch:       []string{"density"},
		Replay:         []string{"batchflush"},
		Evict:          []string{"lru"},
		Batch:          []int{256},
		VABlock:        []int64{2 * mib},
		Jobs:           1,
	}
}

// sgemmSpecs: sgemm on a 96 MiB GPU at 50%, 100% and 125% of its memory.
// The generator and the warp model dominate, evictions are few, and the
// paper's ~120% oversubscription cliff falls inside the range.
func sgemmSpecs(seed uint64) []*sweep.Spec {
	return []*sweep.Spec{spec("sgemm", 96, seed, 0.5, 1.0, 1.25)}
}

// oversubSpecs: fault- and eviction-bound cells whose generators are
// cheap. The K=4 cells are the only heavy load on the multi-GPU layer.
func oversubSpecs(seed uint64) []*sweep.Spec {
	hpgmg4 := spec("hpgmg", 96, seed, 5.0)
	hpgmg4.GPUs, hpgmg4.Migration = []int{4}, []string{"first-touch", "access-counter"}
	random4 := spec("random", 96, seed, 5.0)
	random4.GPUs, random4.Migration = []int{4}, []string{"first-touch"}
	return []*sweep.Spec{
		spec("random", 96, seed, 1.5, 2.0),
		spec("cufft", 96, seed, 2.0),
		spec("hpgmg", 96, seed, 2.0),
		hpgmg4,
		random4,
	}
}

// cellTiming is the host cost of one directly run cell.
type cellTiming struct {
	newSys, build, run, total      time.Duration
	cpu                            time.Duration // process CPU time over the whole cell
	buildAllocBytes, runAllocBytes uint64        // traced runs only
	simNs                          int64
}

// runCell runs one cell the way a library caller does — core.NewSystem,
// the workload generator, RunUVM — with the configuration sweep builds
// for the same cell, and renders the row sweep would print for it. It
// adds the cell's exact counts to counts. With a tracer it records a
// "cell" span with one child per layer call.
func runCell(s *sweep.Spec, c sweep.Config, tr *tracer, counts map[string]uint64) ([]string, cellTiming, error) {
	label := c.Label(s)
	var ct cellTiming
	cellID := tr.id()
	c0 := cpuTime()
	t0 := time.Now()

	cfg := core.DefaultConfig(s.GPUMemoryBytes)
	cfg.Seed = s.Seed
	cfg.PrefetchPolicy = c.Prefetch
	cfg.EvictPolicy = c.Evict
	if strings.Contains(c.Evict, "access-aware") {
		cfg.GPU.AccessCounters = true
	}
	cfg.Driver.Policy = c.Replay
	cfg.Driver.BatchSize = c.Batch
	cfg.VABlockSize = c.VABlock
	if c.GPUs > 1 {
		cfg.GPUs = c.GPUs
		cfg.Migration = c.Migration
	}
	cfg.Obs = obs.Options{Label: label}

	tNew := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, ct, err
	}
	builder, err := workloads.Get(s.Workload)
	if err != nil {
		return nil, ct, err
	}
	p := workloads.DefaultParams()
	p.Seed = s.Seed + 100
	tBuild := time.Now()
	a0 := allocBytes(tr)
	k, err := builder(sys, int64(c.Footprint*float64(s.GPUMemoryBytes)), p)
	if err != nil {
		return nil, ct, err
	}
	a1 := allocBytes(tr)
	tRun := time.Now()
	res, err := sys.RunUVM(k)
	if err != nil {
		return nil, ct, err
	}
	tDone := time.Now()
	a2 := allocBytes(tr)

	row := stats.RenderCells(
		c.Footprint*100, c.Prefetch, c.Replay.String(), c.Evict, c.Batch, c.VABlock>>10,
		float64(res.TotalTime.Micros())/1000, res.Faults, res.Evictions,
		float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20),
		float64(res.GPU.StallTime.Micros())/1000,
	)
	addCounts(counts, sys, res)
	tEnd := time.Now()
	ct.cpu = cpuTime() - c0

	ct.newSys, ct.build, ct.run, ct.total = tBuild.Sub(tNew), tRun.Sub(tBuild), tDone.Sub(tRun), tEnd.Sub(t0)
	ct.buildAllocBytes, ct.runAllocBytes = a1-a0, a2-a1
	ct.simNs = int64(res.TotalTime)
	if tr != nil {
		tr.add(0, cellID, label, "core.NewSystem", tNew, tBuild)
		tr.add(0, cellID, label, "workloads.build", tBuild, tRun)
		tr.add(0, cellID, label, "core.RunUVM", tRun, tDone)
		tr.add(cellID, 0, label, "cell", t0, tEnd)
	}
	return row, ct, nil
}

// countNames are the exact per-layer counts, in report order. A count
// repeats exactly for a given seed; any drift between passes or runs is
// an output mismatch.
var countNames = []string{
	"sim.events",
	"gpusim.accesses", "gpusim.faults_raised", "gpusim.faults_coalesced",
	"driver.batches", "driver.faults_fetched", "driver.faults_deduped", "driver.replays", "driver.flush_discarded",
	"prefetch.prefetched_pages", "prefetch.demand_pages",
	"evict.evictions", "evict.evicted_pages",
	"xfer.h2d_bytes", "xfer.d2h_bytes",
	"multigpu.remote_accesses", "multigpu.migrations", "multigpu.migrations_aborted", "multigpu.invalidations",
}

func addCounts(counts map[string]uint64, sys *core.System, res *core.RunResult) {
	get := res.Counters.Get
	for name, v := range map[string]uint64{
		"sim.events":                  sys.Engine().Executed(),
		"gpusim.accesses":             res.GPU.Accesses,
		"gpusim.faults_raised":        res.GPU.FaultsRaised,
		"gpusim.faults_coalesced":     res.GPU.FaultsCoalesced,
		"driver.batches":              get("batches"),
		"driver.faults_fetched":       get("faults_fetched"),
		"driver.faults_deduped":       get("faults_deduped"),
		"driver.replays":              get("replays"),
		"driver.flush_discarded":      get("flush_discarded"),
		"prefetch.prefetched_pages":   get("prefetched_pages"),
		"prefetch.demand_pages":       get("demand_pages"),
		"evict.evictions":             get("evictions"),
		"evict.evicted_pages":         get("evicted_pages"),
		"xfer.h2d_bytes":              uint64(res.BytesH2D),
		"xfer.d2h_bytes":              uint64(res.BytesD2H),
		"multigpu.remote_accesses":    get("p2p_remote_accesses"),
		"multigpu.migrations":         get("p2p_migrations"),
		"multigpu.migrations_aborted": get("p2p_migrations_aborted"),
		"multigpu.invalidations":      get("p2p_invalidations"),
	} {
		counts[name] += v
	}
}

// allocBytes reads the cumulative heap allocation, only when tracing:
// untraced passes skip the read.
func allocBytes(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	return heapAllocs()
}

// cellPass is one pass over every cell of a workload.
type cellPass struct {
	csv     []byte // every spec's table as CSV, in spec order
	cells   []cellTiming
	counts  map[string]uint64
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
}

func runCellPass(specs []*sweep.Spec, tr *tracer) (*cellPass, error) {
	p := &cellPass{counts: make(map[string]uint64)}
	a0 := heapAllocs()
	c0 := cpuTime()
	t0 := time.Now()
	var buf bytes.Buffer
	for _, s := range specs {
		configs, err := s.Configs()
		if err != nil {
			return nil, err
		}
		tab := stats.NewTable("", sweep.Headers()...)
		for _, c := range configs {
			row, ct, err := runCell(s, c, tr, p.counts)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", c.Label(s), err)
			}
			tab.AddRenderedRow(row)
			p.cells = append(p.cells, ct)
		}
		if err := tab.WriteCSV(&buf); err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	p.allocMB = float64(heapAllocs()-a0) / float64(mib)
	p.csv = buf.Bytes()
	return p, nil
}

// heapAllocs is the cumulative number of heap bytes allocated by the
// process (runtime MemStats TotalAlloc), read without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// referenceSweep runs every spec through sweep.Spec.RunContext with one
// job — what `uvmsweep -jobs 1` runs — and returns the tables as CSV
// together with each cell's wall time, taken from the Progress hook.
func referenceSweep(ctx context.Context, specs []*sweep.Spec) ([]byte, []time.Duration, error) {
	var buf bytes.Buffer
	var walls []time.Duration
	for _, s := range specs {
		ref := *s
		ref.Jobs = 1
		last := time.Now()
		ref.Progress = func(done, total int) {
			now := time.Now()
			walls = append(walls, now.Sub(last))
			last = now
		}
		res, err := ref.RunContext(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("reference sweep of %s: %w", s.Workload, err)
		}
		for _, st := range res.Statuses {
			if st.State != govern.StateCompleted {
				return nil, nil, fmt.Errorf("reference sweep: cell %s ended %s: %s", st.Label, st.State, st.Err)
			}
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			return nil, nil, err
		}
	}
	return buf.Bytes(), walls, nil
}
